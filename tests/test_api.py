"""The supported API: README's library example and `hyperell.__all__`."""

import ast
import contextlib
import io
import re
from pathlib import Path

import hyperell

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = Path(hyperell.__file__).resolve().parent


def test_readme_library_example_prints_its_results():
    text = README.read_text()
    section = text[text.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == [
        "(1, 0, 3)",
        "2 + 0*sqrt(3)",
        "7096 0.9998782612408987",
    ]


def test_all_names_resolve():
    assert len(hyperell.__all__) == 16
    assert len(set(hyperell.__all__)) == 16
    for name in hyperell.__all__:
        assert getattr(hyperell, name) is not None, name


def test_no_library_code_is_called_only_by_tests():
    """Every top-level function and class in the package earns its place.

    It is referred to, by name or attribute, from other code in the package;
    or it is in `hyperell.__all__`; or its docstring says it is an oracle.
    Code that only tests call belongs in tests/support.py.
    """
    defs = []
    users: dict[str, set] = {}  # name -> {(module, enclosing top-level name)}
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((path.stem, top))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    users.setdefault(node.id, set()).add((path.stem, owner))
                elif isinstance(node, ast.Attribute):
                    users.setdefault(node.attr, set()).add((path.stem, owner))
    assert defs
    unused = [
        f"{module}.{node.name}"
        for module, node in defs
        if not users.get(node.name, set()) - {(module, node.name)}
        and node.name not in hyperell.__all__
        and "oracle" not in (ast.get_docstring(node) or "")
    ]
    assert not unused, f"no caller in the package: {unused}"


# every functools cache in the package lives as long as the process, so each is listed with why it may
MODULE_CACHES = {
    "field.check_odd_prime": "at most 64 None results; every exact value in Q(sqrt q) checks its q",
    "polyring._int_mobius": "one small int per integer up to the largest degree whose primes are counted",
    "extfield.find_irreducible": "one modulus of n+1 digits per (q, n) of the oracle's fields",
    "extfield.get_field": "the oracle's F_{q^r}, r <= g, shared by every curve whose points it counts",
}
CACHE_DECORATORS = {"cache", "lru_cache", "cached_property"}


def _name(node) -> str | None:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def test_module_caches_are_listed():
    """Every functools cache in the package decorates a function of MODULE_CACHES; scan holds none.

    A pass's tables live for the pass that reads them, not in a module cache.
    """
    decorated, uses = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        uses += sum(_name(node) in CACHE_DECORATORS for node in ast.walk(tree))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    if _name(dec.func if isinstance(dec, ast.Call) else dec) in CACHE_DECORATORS:
                        decorated.append(f"{path.stem}.{node.name}")
    assert sorted(decorated) == sorted(MODULE_CACHES)
    assert uses == len(decorated)  # no cache is made other than by decorating a function
    assert not any(name.startswith("scan.") for name in decorated)


def test_cli_names_no_private_attribute_of_a_package_module():
    """cli.py reaches the package through public names only.

    A refusal the library makes behind a private helper stays the library's,
    so the front end keeps no copy of its rule to update.
    """
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    imported = set()  # the package modules cli.py binds to a name
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None and alias.name in modules:
                    imported.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    private.append(f"{node.module}.{alias.name}")
    assert {"scan", "verify"} <= imported
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in imported and node.attr.startswith("_"):
                private.append(f"{node.value.id}.{node.attr}")
    assert not private, f"cli.py names private attributes: {private}"
