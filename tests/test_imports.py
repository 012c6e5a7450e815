"""Imports: which SciPy subpackages a run loads, and that every import is read.

No run loads ``scipy.sparse``: H is built, diagonalized and applied to its
eigenvectors (``CompositeModel.probe_tables``, the mean-force routes) with
numpy alone. ``scipy.integrate`` loads where the scaling-he run integrates J.
The pytest process has both loaded already, so each case runs in a fresh
interpreter. No module of the package or its tests imports a name it never
reads; ``__init__.py`` re-exports, and a line marked ``# noqa: F401`` keeps a
name for code that patches it there.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
TESTS = Path(__file__).resolve().parent
LAZY = ("scipy.sparse", "scipy.integrate")

RUN = """
import json
from click.testing import CliRunner
from thermoq.cli import main
with open("run.json", "w") as fh:
    json.dump({config}, fh)
result = CliRunner().invoke(main, ["run", "run.json"])
assert result.exit_code == 0, result.output
"""
DEPHASING_RUN = RUN.format(config={
    "experiment": "dephasing", "model": {"modes": [[1.0, 0.1], [1.6, 0.15]]},
    "sweep": {"beta": [2.0]}, "numerics": {"n_max": 14}, "output": {"path": "deph.csv"}})
HEAT_EXCHANGE_RUN = RUN.format(config={
    "experiment": "heat-exchange", "sweep": {"beta": [2.0, 3.0]}, "numerics": {"n_max": 14},
    "output": {"path": "he.csv", "per_outcome": True}})
MEAN_FORCE_RUN = RUN.format(config={
    "experiment": "mean-force", "model": {"modes": [[1.0, 0.1]], "coupling_axis": "xz"},
    "sweep": {"beta": [1.0]}, "numerics": {"n_max": 6}, "output": {"path": "mf.csv"}})
CROSS_VALIDATE = """
from click.testing import CliRunner
from thermoq.cli import main
result = CliRunner().invoke(main, ["cross-validate", "--draws", "2"])
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
COMPOSITE_BUILDS = """
from thermoq.models import BathMode, build_coupled_oscillators, build_spin_boson_model
modes = [BathMode(0.9, 0.1), BathMode(1.4, 0.1)]
models = [build_coupled_oscillators(1.1, 1.0, 0.1, 3),
          build_spin_boson_model(0.0, modes, [2, 3], coupling_axis="z"),
          *(build_spin_boson_model(1.0, modes, 3, coupling_axis=axis)
            for axis in ("x", "z", "xz"))]
assert all(model.spectrum for model in models)
"""
PROBE_TABLES = "models[-1].probe_tables"
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
    # H is assembled and checked with numpy, and no sparse Kronecker product is formed
    steps = {"import": IMPORT, "schema": SCHEMA, "dephasing run": DEPHASING_RUN,
             "deph_scaling_points": DEPH_SCALING,
             "every CompositeModel build and spectrum": COMPOSITE_BUILDS,
             "heat-exchange run": HEAT_EXCHANGE_RUN}
    loaded = loaded_after_each(steps.values(), tmp_path)
    assert dict(zip(steps, loaded)) == dict.fromkeys(steps, set())


def test_each_subpackage_loads_at_its_first_caller(tmp_path):
    after_builds, after_tables, after_he_scaling = loaded_after_each(
        [COMPOSITE_BUILDS, PROBE_TABLES, HE_SCALING], tmp_path)
    assert after_builds == set()
    assert after_tables == set()
    assert "scipy.integrate" in after_he_scaling


def test_mean_force_run_and_cross_validate_load_neither(tmp_path):
    # each reads probe_tables, on two models in the 2-draw cross-validate
    assert loaded_after_each([MEAN_FORCE_RUN, CROSS_VALIDATE], tmp_path) == [set(), set()]


def unread_imports(path):
    """(line, name) of each name the module at ``path`` imports and never reads,
    leaving out the names imported on a line whose ``# noqa:`` codes include F401."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(alias.lineno, name)
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            for name in [alias.asname or alias.name.partition(".")[0]]
            if name not in read and "F401" not in lines[alias.lineno - 1].partition("# noqa:")[2]]


def test_every_imported_name_is_read():
    modules = [path for path in [*(SRC / "thermoq").glob("*.py"), *TESTS.glob("*.py")]
               if path.name != "__init__.py"]
    unread = {f"{path.relative_to(SRC.parent)}:{line}": name
              for path in modules for line, name in unread_imports(path)}
    assert unread == {}
