"""Which SciPy subpackages a run loads: each only once the run calls into it.

``scipy.sparse`` loads where a ``CompositeModel``'s H is built, and
``scipy.integrate`` where the scaling-he run integrates J. The pytest process
has both loaded already, so each case runs in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
LAZY = ("scipy.sparse", "scipy.integrate")

DEPHASING_RUN = """
import json
from click.testing import CliRunner
from thermoq.cli import main
with open("deph.json", "w") as fh:
    json.dump({"experiment": "dephasing", "model": {"modes": [[1.0, 0.1], [1.6, 0.15]]},
               "sweep": {"beta": [2.0]}, "numerics": {"n_max": 14},
               "output": {"path": "deph.csv"}}, fh)
result = CliRunner().invoke(main, ["run", "deph.json"])
assert result.exit_code == 0, result.output
"""


IMPORT = "import thermoq, thermoq.cli"
SCHEMA = """
from click.testing import CliRunner
from thermoq.cli import main
assert CliRunner().invoke(main, ["schema"]).exit_code == 0
"""
DEPH_SCALING = """
from thermoq.closed_form import deph_scaling_points
from thermoq.models import SpectralDensity
deph_scaling_points(SpectralDensity(1.0, 1.0, 1.0), [1.0, 2.0, 3.0, 4.0], k_modes=50)
"""
SPARSE_BUILD = """
from thermoq.models import build_coupled_oscillators
build_coupled_oscillators(1.1, 1.0, 0.1, 3)
"""
HE_SCALING = """
from thermoq.closed_form import he_scaling_points
from thermoq.models import SpectralDensity
he_scaling_points(SpectralDensity(1.0, 1.0, 1.0), [1.0, 2.0, 3.0, 4.0])
"""


def loaded_after_each(steps, cwd):
    """Per step, the modules of LAZY that are in ``sys.modules`` once a fresh
    interpreter, started in ``cwd`` with thermoq on its path, has run that
    step and every step before it."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    report = f"print('loaded:', *(m for m in {LAZY!r} if m in sys.modules))"
    probe = "\n".join(["import sys", *(f"{step}\n{report}" for step in steps)])
    result = subprocess.run([sys.executable, "-c", probe], cwd=cwd, capture_output=True,
                            text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    return [set(line.split()[1:]) for line in result.stdout.splitlines()
            if line.startswith("loaded:")]


def test_runs_that_call_neither_load_neither(tmp_path):
    steps = {"import": IMPORT, "schema": SCHEMA, "dephasing run": DEPHASING_RUN,
             "deph_scaling_points": DEPH_SCALING}
    loaded = loaded_after_each(steps.values(), tmp_path)
    assert dict(zip(steps, loaded)) == dict.fromkeys(steps, set())


def test_each_subpackage_loads_at_its_first_caller(tmp_path):
    after_build, after_he_scaling = loaded_after_each([SPARSE_BUILD, HE_SCALING], tmp_path)
    assert after_build == {"scipy.sparse"}
    assert "scipy.integrate" in after_he_scaling
