"""README's command-line block runs as written.

Each ``chernpatch ...`` line of the ``sh`` block under "## Command line"
runs through ``cli.main`` and must exit with the code its comment states:
1 where the comment says "exits 1", else 0.
"""

import pathlib
import re
import shlex

from chernpatch import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _command_lines():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n+```sh\n(.*?)^```", text,
                      re.M | re.S)
    assert block, "README has no sh block under '## Command line'"
    return [line for line in block[1].splitlines()
            if line.startswith("chernpatch ")]


def test_readme_commands_exit_as_stated(capsys):
    lines = _command_lines()
    assert lines
    for line in lines:
        want = 1 if "# exits 1" in line else 0
        argv = shlex.split(line, comments=True)[1:]
        assert cli.main(argv) == want, line
        capsys.readouterr()
