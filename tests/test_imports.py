"""Imports: thermoq runs on numpy and click alone, and every import is read.

SciPy is a test-only reference (``scipy.sparse``, ``scipy.linalg``, ``quad``):
no module of the package imports it, and every stock config and a 2-draw
cross-validate run in a fresh interpreter that cannot import it. No module of
the package or its tests imports a name it never reads; ``__init__.py``
re-exports, and a line marked ``# noqa: F401`` keeps a name for code that
patches it there.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TESTS = Path(__file__).resolve().parent

# sys.modules["scipy"] = None makes every import of scipy or a subpackage of it
# raise ImportError
RUN_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from click.testing import CliRunner
from thermoq.cli import main
for args in [*(["run", config] for config in sys.argv[1:]), ["cross-validate", "--draws", "2"]]:
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, (args, result.output, result.exception)
"""


def imported_modules(path):
    """(line, module) of each absolute import in the module at ``path``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_no_module_of_the_package_imports_scipy():
    found = [f"{path.relative_to(SRC)}:{line} {module}"
             for path in sorted((SRC / "thermoq").glob("*.py"))
             for line, module in imported_modules(path) if module.partition(".")[0] == "scipy"]
    assert found == []


def test_every_stock_config_and_cross_validate_run_without_scipy(tmp_path):
    configs = sorted(str(path) for path in (ROOT / "configs").glob("*.json"))
    assert configs
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", RUN_WITHOUT_SCIPY, *configs], cwd=tmp_path, capture_output=True,
        text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path, "THERMOQ_OUTPUT_DIR": str(tmp_path)})
    assert result.returncode == 0, result.stderr


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
