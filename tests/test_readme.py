"""The README's example is code the package must run as written."""

import re
from pathlib import Path

import pytest

from ffk import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def example_block() -> str:
    """The first ```python block under `## Example`."""
    text = README.read_text()
    section = text[text.index("\n## Example\n"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_example_runs():
    exec(compile(example_block(), str(README), "exec"), {})


def refusals() -> list[tuple[str, int]]:
    """(command, exit code) for each row of the table under the README's exit codes."""
    text = README.read_text()
    section = text[text.index("\nExit codes:"):text.index("\nJSON reports are deterministic")]
    return [(cmd, int(code)) for cmd, code in re.findall(r"^\| `ffk ([^`]+)` \| (\d) \|$",
                                                         section, re.MULTILINE)]


def test_readme_names_refusals():
    assert len(refusals()) >= 10


@pytest.mark.parametrize("command, code", refusals())
def test_readme_refusal_exits_as_stated(capsys, monkeypatch, command, code):
    monkeypatch.delenv("FFK_COMPONENT_CAP", raising=False)
    assert cli.main(command.split()) == code
    out = capsys.readouterr()
    assert out.out == "" and len(out.err.splitlines()) == 1
