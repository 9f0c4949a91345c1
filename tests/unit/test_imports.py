"""Every ``repro`` module imports and exports what its ``__all__`` lists.

Modules outside the columnar backend and the serving layer built on it must
also import with NumPy absent: a subprocess blocks the ``numpy`` import and
imports each of them.  The CI ``no-numpy`` job runs this file with no NumPy
installed, where the modules that need it skip.
"""

from __future__ import annotations

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

PACKAGE = pathlib.Path(repro.__file__).parent

#: The packages that need NumPy to import.
NUMPY_PACKAGES = ("repro.columnar", "repro.serving")

#: Every module file under the package, found without importing any of them.
MODULES = sorted(
    ".".join(("repro",) + path.relative_to(PACKAGE).with_suffix("").parts).removesuffix(
        ".__init__"
    )
    for path in PACKAGE.rglob("*.py")
)


def needs_numpy(name: str) -> bool:
    return any(name == package or name.startswith(package + ".") for package in NUMPY_PACKAGES)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_and_exports_what_it_lists(name):
    if needs_numpy(name):
        pytest.importorskip("numpy", reason=f"{name} requires NumPy")
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", ())
    assert len(set(exports)) == len(exports), f"{name}.__all__ lists a name twice"
    missing = [export for export in exports if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


#: Blocks ``import numpy`` the way an environment without it fails, then
#: imports each module named on the command line; prints the failures.
_WITHOUT_NUMPY = """
import importlib, json, sys

class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, BlockNumpy())
failed = {}
for name in sys.argv[1:]:
    try:
        importlib.import_module(name)
    except Exception as exc:
        failed[name] = repr(exc)
print(json.dumps(failed))
"""


def test_modules_outside_the_columnar_backend_import_without_numpy():
    free = [name for name in MODULES if not needs_numpy(name)]
    assert "repro.sql.compiler" in free and "repro.plan" in free
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    completed = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, *free],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert json.loads(completed.stdout) == {}
