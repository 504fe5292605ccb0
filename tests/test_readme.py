"""The README quick-start block runs, and each expression in it equals the value its comment names."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text()
    match = re.search(r"Quick start:\s*```python\n(.*?)```", text, re.S)
    assert match, "README has no python quick-start block"
    return match.group(1)


def test_quick_start_values():
    source = _quick_start()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        if not isinstance(node, ast.Expr):
            exec(compile(code, "README.md", "exec"), namespace)
            continue
        comment = re.search(r"#\s*([-+0-9.e]+)", lines[node.end_lineno - 1])
        assert comment, f"quick-start expression {code!r} names no value"
        want = float(comment.group(1))
        got = eval(compile(code, "README.md", "eval"), namespace)
        assert abs(got - want) <= 1e-9, f"{code}: got {got}, README says {want}"
        checked.append(want)
    assert checked == [0.875, 0.75]
