"""Per-core bit checks: the column kernel's bit-exact tests and the seeded
CLI artifacts' sha256, each rerun with OpenBLAS's core forced to each of
``CORES``, which any AVX2 x86-64 host can run.  Each OpenBLAS kernel rounds
differently, and the one the host picks by itself is checked by the rest
of the suite.

``test_sampler.py``'s exact-symmetry test and its bitwise reference kernel
test run in a pytest subprocess under each core.

Every non-timing artifact of a desk-scale ``simulate`` (both samplers) and
of a ``fit`` with n < p (both samplers) is hashed, and the digests are
compared with ``tests/golden/digests.json``.  The bits depend on the BLAS
kernel, so a digest is keyed by the numpy and scipy versions, the versions
of the OpenBLAS each bundles, and ``OPENBLAS_CORETYPE``; the runs happen in
a subprocess under each core.  On a key the file does not hold the test
skips, with the key as its reason.  Every test here skips off x86_64, or
when OpenBLAS does not report the core it was asked for.

A change that alters the random stream or the arithmetic on purpose
regenerates the file with

    python tests/test_digests.py --write

which replaces it with this host's digests, since digests of other builds
are stale after such a change.
"""

import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "digests.json"
SRC = HERE.parent / "src"
CORES = ("Haswell", "Sandybridge")
# The bit-exact kernel tests of test_sampler.py, and the number of cases
# they pass: the symmetry test and 8 reference kernel cases.
KERNEL_TESTS = ("test_sweep_keeps_exact_symmetry_and_audit_counts",
                "test_sweep_matches_reference_kernel_bitwise")
KERNEL_CASES = 9

pytestmark = pytest.mark.skipif(platform.machine() != "x86_64",
                                reason="OpenBLAS core types are x86_64 names")

_CHAIN = ["--burnin", "10", "--draws", "30", "--seed", "5"]
RUNS = {
    **{f"simulate-{kind}": ["simulate", "--design", "circle", "--p", "8", "--n", "20",
                            "--sampler", kind, "--reps", "2", *_CHAIN]
       for kind in ("bgs", "hrs")},
    **{f"fit-{kind}": ["fit", "data.csv", "--sampler", kind, *_CHAIN]
       for kind in ("bgs", "hrs")},
}


def build_key():
    """numpy, scipy and their OpenBLAS versions, and the forced core type."""
    def openblas(config):
        return config["Build Dependencies"]["blas"]["version"]

    return (f"numpy {np.__version__} (OpenBLAS {openblas(np.show_config(mode='dicts'))}), "
            f"scipy {scipy.__version__} (OpenBLAS {openblas(scipy.show_config(mode='dicts'))}), "
            f"core {os.environ.get('OPENBLAS_CORETYPE', '')}")


def artifact_digests():
    """Run every command of RUNS in a scratch directory; sha256 of each
    artifact but timing.json, keyed "<run>/<file>"."""
    from bayesglasso.cli import main
    from bayesglasso.designs import simulate_data, true_model
    from bayesglasso.distributions import RngStream

    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the manifest records the data path as given
        # n = 6 observations of p = 10 variables, so the fits run with n < p.
        Y = simulate_data(true_model("ar2", 10), n=6, rng=RngStream(7))
        np.savetxt("data.csv", Y, delimiter=",", fmt="%.17g")
        for name, argv in RUNS.items():
            if main([*argv, "--out", name]) != 0:
                raise RuntimeError(f"{name} failed")
            for path in sorted(Path(name).iterdir()):
                if path.name != "timing.json":
                    digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def core_env(core):
    """The environment forcing OpenBLAS's core; OPENBLAS_VERBOSE=2 has
    OpenBLAS name the core it loads, as "Core: <name>" on stderr."""
    return {**os.environ, "OPENBLAS_CORETYPE": core, "OPENBLAS_VERBOSE": "2",
            "OPENBLAS_NUM_THREADS": "1"}


def skip_unless_reported(core, stderr):
    if f"Core: {core}" not in stderr:
        pytest.skip(f"OpenBLAS did not report core {core}")


def run_child(core):
    """(key, digests, OpenBLAS's stderr) of the runs under one forced core."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child"],
                          env=core_env(core), capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(proc.stdout[-3000:] + proc.stderr[-3000:])
    out = json.loads(proc.stdout)
    return out["key"], out["digests"], proc.stderr


def write_golden():
    golden = {}
    for core in CORES:
        key, digests, stderr = run_child(core)
        if f"Core: {core}" not in stderr:
            raise SystemExit(f"OpenBLAS did not report core {core}")
        golden[key] = digests
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} keys to {GOLDEN}")


@pytest.mark.parametrize("core", CORES)
def test_kernel_bits_under_openblas_core(core):
    # A full-matrix A - u u' (dger) comes out asymmetric on the Haswell
    # kernel, which AVX2 and AMD machines get by default; the one carried
    # triangle must stay exactly symmetric, and the sweep must match the
    # plain reference kernel bit for bit, on every kernel.
    # -s leaves OpenBLAS's "Core: <name>" line on the subprocess's stderr.
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         *(f"test_sampler.py::{name}" for name in KERNEL_TESTS)],
        cwd=HERE, env=core_env(core), capture_output=True, text=True, timeout=300)
    skip_unless_reported(core, proc.stderr)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert re.search(rf"^{KERNEL_CASES} passed in ", proc.stdout, re.M), proc.stdout[-3000:]


@pytest.mark.parametrize("core", CORES)
def test_seeded_artifacts_match_golden_digests(core):
    key, digests, stderr = run_child(core)
    skip_unless_reported(core, stderr)
    golden = json.loads(GOLDEN.read_text())
    if key not in golden:
        pytest.skip(f"no golden digests for {key}")
    changed = sorted(name for name in golden[key].keys() | digests.keys()
                     if golden[key].get(name) != digests.get(name))
    assert not changed, f"artifacts differ from the golden digests: {changed}"


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        sys.path.insert(0, str(SRC))
        print(json.dumps({"key": build_key(), "digests": artifact_digests()}))
    elif sys.argv[1:] == ["--write"]:
        write_golden()
    else:
        raise SystemExit("usage: python tests/test_digests.py --write")
