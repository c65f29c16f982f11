"""The package surface and the late-bound solver names.

``opsloss`` exports its names lazily. ``opsloss.sweep`` reaches the
analytic solvers and the oracle through module-level functions that
import the real one inside the call, and its model table, which the CLI
uses too, looks those names up at call time. A wrapper installed on one
of those names, as perfbench's traced runs install one, must see every
call.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import opsloss
import opsloss.sweep
from opsloss import SweepSpec, run_sweep
from opsloss.cli import main

SRC = str(Path(opsloss.__file__).resolve().parent.parent)


class TestPackageSurface:
    def test_every_export_is_its_submodule_object(self):
        for name in opsloss.__all__:
            module = importlib.import_module(f"opsloss.{opsloss._EXPORTS[name]}")
            assert getattr(opsloss, name) is getattr(module, name), name

    def test_dir_lists_every_export(self):
        # In a fresh interpreter, where no export has been read yet.
        code = "import json, opsloss; print(json.dumps(dir(opsloss)))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=SRC), check=True)
        assert set(opsloss.__all__) <= set(json.loads(proc.stdout))

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            opsloss.no_such_name

    def test_star_import_binds_every_export(self):
        namespace: dict = {}
        exec("from opsloss import *", namespace)
        for name in opsloss.__all__:
            assert namespace[name] is getattr(opsloss, name), name


def counting(fn):
    def wrapper(*args, **kwargs):
        wrapper.calls += 1
        return fn(*args, **kwargs)

    wrapper.calls = 0
    return wrapper


class TestLateBoundSolvers:
    def test_wrapped_sweep_solver_sees_every_call(self, monkeypatch):
        wrapper = counting(opsloss.sweep.engset_lcc)
        monkeypatch.setattr(opsloss.sweep, "engset_lcc", wrapper)
        spec = SweepSpec(name="t", m=4, w_values=(1, 2), per_wavelength_load=0.5,
                         tui_values=(0.6, 1.0), models=("lcc",))
        run_sweep(spec)
        run_sweep(spec)
        assert wrapper.calls == 8
        assert opsloss.sweep.engset_lcc is wrapper

    def test_wrapped_cli_oracle_sees_every_call(self, monkeypatch, capsys):
        # analyze and sweep reach the oracle through the one model table.
        wrapper = counting(opsloss.sweep.ctmc_oracle)
        monkeypatch.setattr(opsloss.sweep, "ctmc_oracle", wrapper)
        assert main(["analyze", "--loads", "0.4,0.3,0.2", "--w", "1", "--model", "oracle"]) == 0
        assert main(["sweep", "--m", "3", "--w", "1", "--load", "0.5", "--tui", "0.6,1.0",
                     "--models", "oracle"]) == 0
        assert wrapper.calls == 3
        assert capsys.readouterr().out.count("oracle,") == 9
