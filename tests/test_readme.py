"""The README's examples run as written: every command of its "Command
line" block exits 0, and its library quick start prints what it says."""

import re
import shlex
from pathlib import Path

import pytest

from ringcodes.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading, language):
    """The first ``language`` code block after the ``## heading`` line."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


COMMANDS = [
    shlex.split(line)[1:]
    for line in _block("Command line", "sh").replace("\\\n", " ").splitlines()
    if line.startswith("ringcodes ")
]


def test_readme_lists_every_command():
    assert len(COMMANDS) == 7


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv[:2]))
def test_readme_command_exits_0(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out


def test_readme_quick_start(capsys):
    exec(_block("Library quick start", "python"), {})
    assert capsys.readouterr().out.splitlines()[-2:] == ["4 625 2", "True"]
