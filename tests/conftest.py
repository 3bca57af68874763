"""Point the CLI child processes at the bernint these tests import.

`tests/test_cli.py` and `tests/test_acceptance.py` run `python -m
bernint.cli` in a child process.  pytest's `pythonpath` setting reaches
only this process, so the child gets the package's directory through
PYTHONPATH; then a checkout needs no install.
"""

import os
from pathlib import Path

import bernint

_here = str(Path(bernint.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_here, os.environ.get("PYTHONPATH")) if p
)
