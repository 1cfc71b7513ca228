"""What importing the package and running a chain load, each checked in a
fresh interpreter, since this suite's own process has long loaded scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bayesglasso

# scipy's package __init__s, numpy.f2py (which scipy.linalg pulls in
# through its array-API layer) and the process pool: none of them is
# needed to import the package.
UNLOADED_ON_IMPORT = ("scipy.linalg", "scipy.special", "numpy.f2py",
                      "concurrent.futures.process")

LOADS_BY_STEP = f"""
import json, sys
import numpy as np

report = {{}}
import bayesglasso.cli
report["import"] = [m for m in {UNLOADED_ON_IMPORT!r} if m in sys.modules]

from bayesglasso import sampler
from bayesglasso.distributions import RngStream
S = 10.0 * np.eye(4) + 1.0
sampler.run_chain(S, 10, sampler.ChainConfig("bgs", burn_in=2, draws=3), RngStream(1))
report["bgs chain"] = "scipy.special" in sys.modules

at_first_sweep = []
sweep = sampler.sweep
def hooked(*args):
    if not at_first_sweep:
        at_first_sweep.append("scipy.special" in sys.modules)
    return sweep(*args)
sampler.sweep = hooked
sampler.run_chain(S, 10, sampler.ChainConfig("hrs", burn_in=2, draws=3), RngStream(1))
report["hrs first sweep"] = at_first_sweep[0]
print(json.dumps(report))
"""

# bayesglasso imported before or after the scipy packages it loads its
# compiled modules from; either way every binding must be scipy's own.
SAME_ROUTINES = """
import sys
import importlib

order = sys.argv[1].split(",")
for name in order:
    importlib.import_module(name)

from scipy.linalg import blas, lapack
import scipy.special
from bayesglasso import matrixcore
from bayesglasso.distributions import normal_tail_ufuncs

for name in ["dsyr", "dsymv", "ddot", "dscal", "dtrtrs", "dpotrf", "dpotri"]:
    routine = getattr(matrixcore, "_" + name)
    assert routine is getattr(blas, name, None) or routine is getattr(lapack, name), name
assert matrixcore.blas is sys.modules["scipy.linalg._fblas"]
assert matrixcore.lapack is sys.modules["scipy.linalg._flapack"]
assert normal_tail_ufuncs() == (scipy.special.log_ndtr, scipy.special.ndtri_exp)
print("ok")
"""

# A compiled module whose init fails, as scipy.special._ufuncs's does when
# its package is not yet imported, must not stay registered: a later
# import of its package would find it and fail the same way.
FAILED_LOADS = """
import sys
from bayesglasso.matrixcore import scipy_extension

try:
    scipy_extension("special", "_ufuncs")
except ImportError:
    pass
else:
    raise AssertionError("scipy.special._ufuncs loaded without its package")
assert "scipy.special._ufuncs" not in sys.modules
import scipy.special
print("ok")
"""


def run_python(code, *args):
    """Run code in a fresh interpreter that imports this bayesglasso and
    turns every warning into an error."""
    src = str(Path(bayesglasso.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return proc.stdout


def test_each_step_loads_only_what_it_calls():
    report = json.loads(run_python(LOADS_BY_STEP))
    assert report["import"] == []
    assert report["bgs chain"] is False
    # Loaded before run_chain starts its timer, not in the first sweep.
    assert report["hrs first sweep"] is True


@pytest.mark.parametrize("order", ["bayesglasso,scipy.linalg,scipy.special,scipy.stats",
                                   "scipy.linalg,scipy.special,scipy.stats,bayesglasso"],
                         ids=["package-first", "scipy-first"])
def test_bindings_are_scipys_routines_in_either_import_order(order):
    assert run_python(SAME_ROUTINES, order).strip() == "ok"


def test_a_failed_load_leaves_no_module_behind():
    assert run_python(FAILED_LOADS).strip() == "ok"
