"""README drift check: every command line in the CLI section parses."""

import pathlib
import shlex

import pytest

from compspec.cli import build_parser

README = pathlib.Path(__file__).parent.parent / "README.md"


def _cli_commands() -> list[list[str]]:
    """The ``compspec ...`` lines of the README's CLI code block, split
    into argv lists with trailing comments dropped."""
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("compspec ")]


COMMANDS = _cli_commands()


@pytest.mark.parametrize("argv", COMMANDS, ids=[a[0] for a in COMMANDS])
def test_readme_command_parses(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"README command {shlex.join(argv)!r} does not parse "
                    f"(exit {exc.code})")


def test_readme_lists_every_subcommand():
    parser = build_parser()
    subcommands = next(a for a in parser._actions
                       if a.dest == "command").choices
    assert {argv[0] for argv in COMMANDS} == set(subcommands)
