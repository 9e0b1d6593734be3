"""The README's library example runs and its comments hold."""

import ast
import pathlib
import re

import numpy as np

from choikit import apply, kraus_from_channel

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_and_keeps_its_promises():
    code = library_example()
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    promised = 0
    for line in code.splitlines():
        expr, _, comment = line.partition("#")
        try:
            value = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue
        # a comment that is a Python literal is the value of its line
        assert eval(expr, namespace) == value, line
        promised += 1
    assert promised >= 2
    # the comments in words: "kills the off-diagonal", "2 members"
    c = namespace["c"]
    assert np.allclose(apply(c, np.full((2, 2), 0.5)), np.eye(2) / 2, atol=1e-15)
    assert len(kraus_from_channel(c)) == 2
