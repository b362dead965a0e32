"""The supported API: README's library example and `hyperell.__all__`."""

import ast
import contextlib
import io
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

import hyperell
from hyperell import curve, lfunction, polyring, scan
from hyperell.asymptotics import euler_constants, first_moment_main_term, zeta_ring
from hyperell.characters import jacobi_factorization, reciprocity_holds, residue_symbol_prime
from hyperell.curve import count_points, power_sums, zeta_numerator
from hyperell.ensemble import EnsembleSpec
from hyperell.extfield import find_irreducible
from hyperell.field import check_odd_prime
from hyperell.lfunction import LPolynomial, afe_central_value, dirichlet_coefficient, l_polynomial
from hyperell.scan import (
    batch_coefficients,
    batch_coprime_counts,
    moment_scan,
    sample_codes,
    sampled_moment,
    squarefree_mask,
)
from hyperell.verify import run_identity_suite

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


# (entry point, argument name in its message, call with the value in the argument's place)
INT_ARGUMENTS = [
    ("EnsembleSpec", "genus", lambda v: EnsembleSpec(5, v)),
    ("moment_scan", "genus", lambda v: moment_scan(5, v)),
    ("sampled_moment", "genus", lambda v: sampled_moment(5, v, 10, 1)),
    ("run_identity_suite", "genus", lambda v: run_identity_suite(3, v)),
    ("euler_constants", "cutoff", lambda v: euler_constants(5, v)),
    ("first_moment_main_term", "genus", lambda v: first_moment_main_term(5, v, euler_constants(5))),
    ("batch_coefficients", "n_max", lambda v: batch_coefficients(5, 3, [1], v)),
    ("batch_coprime_counts", "half_deg", lambda v: batch_coprime_counts(5, 3, [1], v)),
    ("squarefree_mask", "d", lambda v: squarefree_mask(5, v)),
    ("sample_codes", "d", lambda v: sample_codes(5, v, 10, 1)),
    ("batch_coefficients", "d", lambda v: batch_coefficients(5, v, [1], 2)),
    ("count_points", "extension degree", lambda v: count_points((1, 0, 0, 1), 5, v)),
]


@pytest.mark.parametrize(
    "name,call,value",
    [
        pytest.param(name, call, value, id=f"{entry}-{name}-{value!r}")
        for entry, name, call in INT_ARGUMENTS
        for value in (1.5, True, "2", None)
        if (name, value) != ("cutoff", None)  # cutoff=None asks for the default cutoff
    ],
)
def test_integer_arguments_refuse_what_is_no_int(name, call, value):
    with pytest.raises(ValueError, match=rf"^{name} must be an int, got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize(
    "name,call",
    [pytest.param(name, call, id=f"{entry}-{name}") for entry, name, call in INT_ARGUMENTS],
)
def test_integer_arguments_refuse_minus_one(name, call):
    # squarefree_mask(5, -1) failed inside numpy; first_moment_main_term gave a negative main term
    with pytest.raises(ValueError, match=rf"^{name} must be >= [01], got -1$"):
        call(-1)


@pytest.mark.parametrize("value", [5.0, True, "5", None])
def test_q_refuses_what_is_no_int(value):
    check_odd_prime(5)  # the cached check of the int 5 is no hit for 5.0
    calls = [
        lambda: moment_scan(value, 2),
        lambda: sampled_moment(value, 2, 10, 1),
        lambda: run_identity_suite(value, 1),
        lambda: euler_constants(value),
        lambda: squarefree_mask(value, 3),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=rf"^q must be an odd prime, got {re.escape(repr(value))}$"):
            call()


def _checkpoint_with_short_sums(path):
    state = {"version": 1, "q": 3, "g": 1, "chunk_size": 64, "done": []}
    path.write_text(json.dumps({**state, "square_sums": [6], "nonsquare_sums": [0]}))
    moment_scan(3, 1, checkpoint_path=str(path))


# (call given a scratch directory, exception type, message prefix)
BOUNDARY_REFUSALS = {
    "zeta_ring-half": (lambda _: zeta_ring(5, Fraction(1, 2)), ValueError, "only integer s"),
    "main_term-other-q": (
        lambda _: first_moment_main_term(5, 2, euler_constants(3)),
        ValueError,
        "constants were built for a different q",
    ),
    "residue_symbol_prime-non-monic": (
        lambda _: residue_symbol_prime((1,), (1, 2), 3),
        ValueError,
        "denominator must be monic",
    ),
    "jacobi_factorization-non-monic": (
        lambda _: jacobi_factorization((1,), (1, 2), 3),
        ValueError,
        "denominator must be monic",
    ),
    "reciprocity-non-monic": (
        lambda _: reciprocity_holds((1, 2), (1, 1), 3),
        ValueError,
        "reciprocity applies to monic polynomials",
    ),
    "reciprocity-not-coprime": (
        lambda _: reciprocity_holds((0, 1), (0, 0, 1), 3),
        ValueError,
        "reciprocity check needs a coprime pair",
    ),
    "power_sums-even": (lambda _: power_sums((1, 0, 1), 3), ValueError, "D must be monic of odd"),
    "zeta_numerator-square": (
        lambda _: zeta_numerator((0, 0, 0, 1), 3),
        ValueError,
        "D must be square-free",
    ),
    "find_irreducible-0": (lambda _: find_irreducible(3, 0), ValueError, "degree must be >= 1"),
    "LPolynomial-lam": (lambda _: LPolynomial(3, (1,), 2), ValueError, "lam must be 0 or 1"),
    "LPolynomial-even-length": (
        lambda _: LPolynomial(3, (1, 0), 0),
        ValueError,
        "completed coefficients must have odd length",
    ),
    "dirichlet_coefficient-negative": (
        lambda _: dirichlet_coefficient((0, 1), -1, 3),
        ValueError,
        "coefficient index must be >= 0",
    ),
    "l_polynomial-non-monic": (
        lambda _: l_polynomial((1, 2), 3),
        ValueError,
        "D must be monic of positive degree",
    ),
    "l_polynomial-cap": (  # 1 + 3 + ... + 3^20 symbols
        lambda _: l_polynomial((1, 1) + (0,) * 19 + (1,), 3),
        polyring.ResourceCapError,
        "L-polynomial of degree 21 at q=3 needs 5230176601 symbols, past the cap",
    ),
    "power_sums-cap": (  # 3 + ... + 3^17 points, refused before F_{3^17} is built
        lambda _: power_sums((1, 1) + (0,) * 33 + (1,), 3),
        polyring.ResourceCapError,
        "point counts of genus 17 at q=3 visit 193710243 points, past the cap",
    ),
    "afe_central_value-even": (
        lambda _: afe_central_value((1, 0, 1), 3),
        ValueError,
        "D must be monic of odd",
    ),
    "monic_by_code-range": (lambda _: polyring.monic_by_code(9, 2, 3), ValueError, "code out of range"),
    "monic_code-non-monic": (
        lambda _: polyring.monic_code((1, 2), 3),
        ValueError,
        "monic polynomial required",
    ),
    "squarefree-zero": (lambda _: polyring.squarefree((), 3), ValueError, "square-free test undefined"),
    "factorize-zero": (lambda _: polyring.factorize((), 3), ValueError, "cannot factor the zero"),
    "mobius-zero": (lambda _: polyring.mobius((), 3), ValueError, "mobius undefined at zero"),
    "irreducible_count-0": (lambda _: polyring.irreducible_count(3, 0), ValueError, "degree must be >= 1"),
    "squarefree_mask-cap": (  # 5^20 bytes, refused before numpy is asked for them
        lambda _: squarefree_mask(5, 20),
        polyring.ResourceCapError,
        "a square-free mask of degree 20 at q=5 needs 95367431640625 entries, past the cap",
    ),
    "checkpoint-short-sums": (
        lambda tmp: _checkpoint_with_short_sums(tmp / "ck.json"),
        ValueError,
        "checkpoint sum vectors have the wrong length",
    ),
}


@pytest.mark.parametrize("call,error,prefix", BOUNDARY_REFUSALS.values(), ids=BOUNDARY_REFUSALS)
def test_boundary_refusals(tmp_path, call, error, prefix):
    with pytest.raises(error, match=f"^{re.escape(prefix)}"):
        call(tmp_path)


# each guard, a budget just below what it asks for, the call and the message before ", past the cap"
ONE_BUDGET_GUARDS = {
    "moment_scan": (35, lambda: moment_scan(3, 2), "prime tables to degree 2 at q=3 need 36 entries"),
    "sampled_moment-sample": (  # its prime tables to degree 1, 25 entries, fit
        100,
        lambda: sampled_moment(5, 1, 51, seed=1),
        "a sample of 51 curves to degree 1 needs 102 batch entries",
    ),
    "sample_codes": (100, lambda: sample_codes(5, 3, 101, 1), "a sample of 101 codes needs 101 draws"),
    "extend": (80, lambda: polyring.IrreducibleTable(3).extend(4), "irreducibles of degree 4 at q=3 need 81 marks"),
    "l_polynomial": (
        120,
        lambda: l_polynomial((1, 2, 0, 0, 0, 1), 3),
        "L-polynomial of degree 5 at q=3 needs 121 symbols",
    ),
    "power_sums": (11, lambda: power_sums((1, 2, 0, 0, 0, 1), 3), "point counts of genus 2 at q=3 visit 12 points"),
}
# what each guard would do first past its refusal
GUARDED_WORK = [
    (scan, "squarefree_mask"),
    (scan, "_prime_tables"),
    (scan, "sample_codes"),
    (scan, "_digit_matrix"),
    (polyring.IrreducibleTable, "_sieve"),
    (lfunction, "dirichlet_coefficient"),
    (curve, "count_points"),
]


@pytest.mark.parametrize("budget,call,what", ONE_BUDGET_GUARDS.values(), ids=ONE_BUDGET_GUARDS)
def test_one_budget_moves_every_guard(monkeypatch, budget, call, what):
    """Lowering polyring's `_TABLE_BUDGET` alone makes each guard refuse before any work."""
    monkeypatch.setattr(polyring, "_TABLE_BUDGET", budget)
    for owner, name in GUARDED_WORK:
        monkeypatch.setattr(owner, name, lambda *a, **k: pytest.fail("work began past the cap"))
    with pytest.raises(polyring.ResourceCapError, match=f"^{re.escape(what)}, past the cap$"):
        call()


def test_only_polyring_holds_the_budget():
    """No module but polyring names `_TABLE_BUDGET` or constructs a ResourceCapError.

    Every other guard calls `polyring.check_budget`, the one comparison with
    the budget, so a change to what the budget bounds is one edit.
    """
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {_name(node), getattr(node, "name", None), getattr(node, "asname", None)}
            if isinstance(node, ast.Call) and _name(node.func) == "ResourceCapError":
                found.append(f"{path.stem}: ResourceCapError(")
            elif "_TABLE_BUDGET" in names:
                found.append(f"{path.stem}: _TABLE_BUDGET")
    assert found and all(f.startswith("polyring: ") for f in found), f"outside polyring: {found}"
    compared = [
        top.name
        for top in ast.parse((PACKAGE / "polyring.py").read_text()).body
        for node in ast.walk(top)
        if isinstance(node, ast.Compare) and "_TABLE_BUDGET" in {_name(n) for n in ast.walk(node)}
    ]
    assert compared == ["check_budget"]


def test_no_library_code_is_called_only_by_tests():
    """Every function, class, method and property in the package earns its place.

    It is referred to, by name or attribute, from other code in the package
    (a method or property by attribute only, as in `F.add`, also from
    another member of its class: a bare name `add` is a module function);
    or it is a top-level name in `hyperell.__all__`, or a dunder; or its
    docstring says it is an oracle.  Code that only tests call belongs in
    tests/support.py.
    """
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs = []  # (qualified name, node, the (module, top-level, member) prefix of its own uses)
    users: dict[str, set] = {}  # name -> {(module, enclosing top-level name, enclosing member)}
    attribute_users: dict[str, set] = {}  # the same, for the uses as an attribute alone
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", None)
            if isinstance(top, (*functions, ast.ClassDef)):
                defs.append((f"{module}.{owner}", top, (module, owner)))
            member_of = {}  # id(node) -> the method or property of top that holds it
            for member in top.body if isinstance(top, ast.ClassDef) else []:
                if isinstance(member, functions):
                    member_of.update((id(node), member.name) for node in ast.walk(member))
                    if not (member.name.startswith("__") and member.name.endswith("__")):
                        own = (module, owner, member.name)
                        defs.append((f"{module}.{owner}.{member.name}", member, own))
            for node in ast.walk(top):
                if isinstance(node, (ast.Name, ast.Attribute)):
                    use = (module, owner, member_of.get(id(node)))
                    users.setdefault(_name(node), set()).add(use)
                    if isinstance(node, ast.Attribute):
                        attribute_users.setdefault(node.attr, set()).add(use)
    assert any(len(own) == 3 for _, _, own in defs)
    unused = [
        qualname
        for qualname, node, own in defs
        if all(
            use[: len(own)] == own
            for use in (attribute_users if len(own) == 3 else users).get(node.name, ())
        )
        and not (len(own) == 2 and node.name in hyperell.__all__)
        and "oracle" not in (ast.get_docstring(node) or "")
    ]
    assert not unused, f"no caller in the package: {unused}"


# every functools cache in the package lives as long as the process, so each is listed with why it may
MODULE_CACHES = {
    "field.check_odd_prime": "at most 64 None results; every exact value in Q(sqrt q) checks its q",
    "polyring._int_mobius": "one small int per integer up to the largest degree whose primes are counted",
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


def test_the_package_starts_no_thread():
    """No module imports concurrent.futures or names threading.Thread; one lock is all of threading.

    The scans run in the calling thread.  `IrreducibleTable`'s lock stays,
    for callers that share `shared_table` across threads of their own.  A
    worker pool of any kind comes with a measured gain and edits this lint.
    """
    from_modules = ("concurrent", "concurrent.futures", "threading")  # a name imported from one hides from `uses`
    imports, uses = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imports += [f"{path.stem}: {a.name}" for a in node.names if a.name == "concurrent.futures"]
            elif isinstance(node, ast.ImportFrom) and node.module in from_modules:
                imports.append(f"{path.stem}: from {node.module}")
            elif isinstance(node, ast.Attribute) and _name(node.value) == "threading":
                uses.append(f"{path.stem}: threading.{node.attr}")
    assert not imports, f"the package imports a pool or names threading's members: {imports}"
    assert uses == ["polyring: threading.Lock"]


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
