"""The README's Python examples run as written.

Its ```python blocks are run in order in one namespace, as a reader would
paste them, so a quick start that drifts from the package's signatures
fails here.
"""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list:
    """The README's ```python blocks, in order."""
    return re.findall(r"^```python\n(.*?)^```$",
                      README.read_text(encoding="utf-8"), flags=re.S | re.M)


def test_readme_python_blocks_run(capsys):
    blocks = python_blocks()
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the quick start's stated results: the orange slice encloses -pi and
    # its propagator is a special perfect entangler
    assert capsys.readouterr().out == "SPE\n"
    assert abs(namespace["omega"] + np.pi) < 1e-12
    assert namespace["labels"].shape == (200, 200)
