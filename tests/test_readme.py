"""The README's library example runs against the current API."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def python_blocks():
    with open(README, encoding="utf-8") as handle:
        return re.findall(r"^```python\n(.*?)^```", handle.read(), re.M | re.S)


def test_readme_python_example_runs():
    (block,) = python_blocks()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    # one printed line per print() of the example
    assert len(out.getvalue().splitlines()) == block.count("print(")
