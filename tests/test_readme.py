"""The README's example is code the package must run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def example_block() -> str:
    """The first ```python block under `## Example`."""
    text = README.read_text()
    section = text[text.index("\n## Example\n"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_example_runs():
    exec(compile(example_block(), str(README), "exec"), {})
