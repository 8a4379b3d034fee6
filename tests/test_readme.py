"""The README's Python quick start runs, and each ``expr  # value`` comment
in it states the value the expression has, so the example cannot go stale."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_values():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    checked = 0
    for block in blocks:
        env: dict = {}
        for line in block.splitlines():
            code, _, comment = line.partition("  #")
            try:
                expr = compile(code.strip(), "README.md", "eval")
            except SyntaxError:  # an import or an assignment
                exec(line, env)
                continue
            # the comment's value is a literal at its start: `# 4: why`
            literal = re.match(r"\s*('[^']*'|-?\d+)", comment)
            assert literal, line
            assert eval(expr, env) == ast.literal_eval(literal.group(1)), line
            checked += 1
    assert checked >= 5
