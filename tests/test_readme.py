"""Every ```python block of README.md runs as written."""

import contextlib
import io
import os
import re

import pytest

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")
with open(README) as fh:
    BLOCKS = re.findall(r"^```python\n(.*?)^```", fh.read(), re.S | re.M)


def test_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=["block%d" % i for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block):
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(block, README, "exec"), {"__name__": "readme"})
