"""The package runs on its one runtime dependency, numpy: every minreal
module imports in a fresh interpreter in which scipy and pytest, which only
the tests install, cannot be imported."""

import os
import pkgutil
import subprocess
import sys

import minreal


def test_every_module_imports_without_scipy_or_pytest():
    names = [m.name for m in pkgutil.iter_modules(minreal.__path__, "minreal.")]
    assert "minreal.world" in names
    code = ("import importlib, sys\n"
            "sys.modules['scipy'] = sys.modules['pytest'] = None\n"
            f"for name in {names!r}:\n"
            "    importlib.import_module(name)\n")
    src = os.path.dirname(minreal.__path__[0])
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": path})
