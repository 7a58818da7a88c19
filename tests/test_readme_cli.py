"""Every ``twistbern ...`` example in README's command-line block parses."""

import re
import shlex
from pathlib import Path

import pytest

from twistbern.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    text = README.read_text()
    block = re.search(r"## Command-line interface\s+```sh\n(.*?)```", text,
                      re.S).group(1)
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv and argv[0] == "twistbern":
            commands.append(argv[1:])
    return commands


def test_readme_has_the_cli_examples():
    assert [argv[0] for argv in readme_commands()] == [
        "chars", "bernoulli", "bernoulli", "verify", "grid", "padic"]


@pytest.mark.parametrize("argv", readme_commands())
def test_readme_example_parses(argv):
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]
