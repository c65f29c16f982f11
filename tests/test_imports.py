"""Start-up cost: scipy stays off the import path of analytic work."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import opsloss

SRC = str(Path(opsloss.__file__).resolve().parent.parent)


def scipy_modules_after(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter and list the scipy modules it loaded."""
    probe = (code + "\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("code", [
    "import opsloss",
    "from opsloss.cli import main\n"
    "assert main(['analyze', '--loads', '0.4,0.4', '--w', '1', '--model', 'lcc']) == 0",
    # The chain oracle solves with numpy alone; scipy.sparse would cost the
    # process tens of megabytes and a third of a second.
    "from opsloss.cli import main\n"
    "assert main(['analyze', '--loads', '0.4,0.3,0.2,0.1', '--w', '2', '--model', 'oracle']) == 0",
])
def test_no_scipy_loaded(code):
    assert scipy_modules_after(code) == []
