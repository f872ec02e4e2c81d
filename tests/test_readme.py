"""The README's Python examples run as written and print what they state."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_and_give_the_values_their_comments_state():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.S | re.M)
    assert blocks
    namespaces = []
    for block in blocks:  # each in a fresh namespace
        namespaces.append({})
        exec(compile(block, str(README), "exec"), namespaces[-1])
    quick_start = namespaces[0]
    ctx = quick_start["ctx"]
    assert ctx.w == ("a", "b", "c", "a") and ctx.opt == 3
    assert quick_start["tag"] == "dp"
