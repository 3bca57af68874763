"""The README's examples run in the test suite, so its values cannot drift."""

import contextlib
import doctest
import io
import re
import shlex
from pathlib import Path

from bernint import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted > 0
    assert failed == 0


def test_readme_cli_lines():
    # every `bernint ...` line of the README's sh blocks exits 0 and prints
    # the value its `# -> ...` comment gives
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("bernint ")]
    assert len(lines) >= 8
    for line in lines:
        command, _, expected = line.partition("# -> ")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(shlex.split(command, comments=True)[1:])
        assert code == 0, line
        if expected:
            assert out.getvalue() == expected.strip() + "\n", line
