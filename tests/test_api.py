"""The supported API: README's library example and `hyperell.__all__`."""

import contextlib
import io
import re
from pathlib import Path

import hyperell

README = Path(__file__).resolve().parent.parent / "README.md"


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
