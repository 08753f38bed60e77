"""The runtime dependency stays numpy alone: importing every splitmono module
in a fresh interpreter loads no third-party module other than numpy.  The
interpreter runs without ``site`` (``-S``), so no ``.pth`` hook preloads a
module that splitmono could then import unseen; numpy's own directory is put
on its path instead."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy

SRC = Path(__file__).resolve().parents[1] / "src"
NUMPY_HOME = Path(numpy.__file__).resolve().parents[1]

PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import splitmono
for module in pkgutil.iter_modules(splitmono.__path__):
    importlib.import_module(f"splitmono.{module.name}")
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(loaded - set(sys.stdlib_module_names) - {"numpy", "splitmono"})))
"""


def test_importing_splitmono_loads_no_third_party_module_but_numpy():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(NUMPY_HOME)])}
    done = subprocess.run([sys.executable, "-S", "-c", PROBE], env=env, capture_output=True,
                          text=True, check=True)
    assert json.loads(done.stdout) == []
