"""Every `pshlab ...` command line in the README's sh blocks parses with the CLI's parser.

Lines continued with a backslash are joined first.  The lines are parsed, not
run, so the test catches drift between the README and the parser: a subcommand
or option that the README names and the parser no longer has.
"""

import re
import shlex
from pathlib import Path

import pytest

from pshlab import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def command_lines() -> list:
    """The argv after `pshlab` of each command line in an sh block."""
    text = README.read_text(encoding="utf-8")
    lines = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["pshlab"]:
                lines.append(argv[1:])
    return lines


LINES = command_lines()


def test_the_readme_has_command_lines():
    assert LINES


@pytest.mark.parametrize("argv", LINES, ids=" ".join)
def test_readme_command_line_parses(argv, capsys):
    try:
        cli.build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"pshlab {shlex.join(argv)}: {capsys.readouterr().err}")
