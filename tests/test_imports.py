"""Start-up cost: numpy, scipy and hashlib stay off the import path.

numpy loads only where an analytic solver runs: ``import opsloss`` and
``opsloss.cli`` load none of it, and neither do ``tui``, the simulator or
a simulation-only sweep, while ``analyze`` and analytic sweeps load it at
their first solve. Analytic work never loads scipy, and a simulation
loads it only for a confidence interval over more than 101 replications,
beyond the table of Student-t quantiles in ``opsloss.sim``. hashlib,
which maps OpenSSL's libcrypto, loads only where a simulation seeds its
streams. The chain oracle's module, ``opsloss.ctmc``, loads only where
the oracle runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import opsloss

SRC = str(Path(opsloss.__file__).resolve().parent.parent)

ANALYZE_LCC = ("from opsloss.cli import main\n"
               "assert main(['analyze', '--loads', '0.4,0.4', '--w', '1', '--model', 'lcc']) == 0")
ANALYZE_ORACLE = ("from opsloss.cli import main\n"
                  "assert main(['analyze', '--loads', '0.4,0.3,0.2,0.1', '--w', '2',"
                  " '--model', 'oracle']) == 0")
SIMULATE_CLEARED = ("from opsloss.cli import main\n"
                    "assert main(['simulate', '--loads', '0.4,0.3', '--w', '1', '--mode',"
                    " 'cleared', '--reps', '3', '--horizon', '50']) == 0")
SIMULATE_HELD = ("from opsloss.cli import main\n"
                 "assert main(['simulate', '--loads', '0.4,0.3', '--w', '1', '--mode', 'held',"
                 " '--reps', '10', '--horizon', '50']) == 0")
SWEEP_SIM = ("from opsloss.cli import main\n"
             "assert main(['sweep', '--preset', 'fig6', '--models', 'sim-cleared',"
             " '--horizon', '50']) == 0")


def modules_after(code: str, package: str) -> list[str]:
    """Run ``code`` in a fresh interpreter and list the modules of ``package`` it loaded."""
    probe = (code + "\nimport json, sys\n"
             f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == {package!r})))")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("code", [
    "import opsloss",
    ANALYZE_LCC,
    # The chain oracle solves with numpy alone; scipy.sparse would cost the
    # process tens of megabytes and a third of a second.
    ANALYZE_ORACLE,
    SIMULATE_CLEARED,
    SIMULATE_HELD,
    SWEEP_SIM,
])
def test_no_scipy_loaded(code):
    assert modules_after(code, "scipy") == []


def test_large_interval_loads_scipy():
    # 102 samples have 101 degrees of freedom, one past the quantile table.
    code = ("from opsloss import confidence_interval\n"
            "confidence_interval([i / 102 for i in range(102)])")
    assert "scipy.special" in modules_after(code, "scipy")


@pytest.mark.parametrize("code", [
    "import opsloss",
    "import opsloss.cli",
    "from opsloss.cli import main\n"
    "assert main(['tui', '--loads', '0.4,0.3,0.2,0.1']) == 0",
    "from opsloss.cli import main\n"
    "assert main(['tui', '--m', '16', '--total', '2', '--tui', '0.6']) == 0",
    SIMULATE_CLEARED,
    SIMULATE_HELD,
    SWEEP_SIM,
])
def test_no_numpy_loaded(code):
    assert modules_after(code, "numpy") == []


@pytest.mark.parametrize("code", [
    ANALYZE_LCC,
    "from opsloss.cli import main\n"
    "assert main(['sweep', '--preset', 'fig3', '--models', 'lcc']) == 0",
])
def test_oracle_module_loads_only_for_the_oracle(code):
    # The oracle shares the model table with the product-form solvers; its
    # entry imports opsloss.ctmc inside the call.
    assert "opsloss.ctmc" not in modules_after(code, "opsloss")


def test_analytic_model_loads_numpy():
    assert "numpy" in modules_after(ANALYZE_LCC, "numpy")


@pytest.mark.parametrize("code", [
    "import opsloss.cli",
    "from opsloss.cli import main\n"
    "assert main(['tui', '--loads', '0.4,0.3,0.2,0.1']) == 0",
    "from opsloss.cli import main\n"
    "assert main(['tui', '--m', '16', '--total', '2', '--tui', '0.6']) == 0",
    ANALYZE_LCC,
    ANALYZE_ORACLE,
    "from opsloss.cli import main\n"
    "assert main(['sweep', '--preset', 'fig6', '--models', 'lcc']) == 0",
])
def test_no_hashlib_loaded(code):
    # hashlib maps OpenSSL's libcrypto; only a simulation's stream seeds need it.
    assert modules_after(code, "hashlib") == []
    assert modules_after(code, "_hashlib") == []


def test_simulation_loads_hashlib():
    assert "hashlib" in modules_after(SIMULATE_CLEARED, "hashlib")
