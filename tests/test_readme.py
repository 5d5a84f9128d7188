"""The README's code examples run against the current API."""

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block(section: str) -> str:
    """The first ```python block under the ``## <section>`` heading."""
    text = README.read_text()
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", body, re.S)
    assert match, f"no python block under '## {section}'"
    return match.group(1)


def test_library_use_example_runs():
    """The block runs unchanged (2,000 d=1 steps) and prints the stop reason
    and the final H^1 norm."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(python_block("Library use"), str(README), "exec"), {})
    reason, h1 = out.getvalue().split()
    assert reason == "completed"
    assert 0.0 < float(h1) < math.inf
