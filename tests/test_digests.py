"""Per-core bit checks: the column kernel's bit-exact tests and the seeded
CLI artifacts' sha256, each rerun with OpenBLAS's core forced to each of
``CORES``, which any AVX2 x86-64 host can run.  Each OpenBLAS kernel rounds
differently, and the one the host picks by itself is checked by the rest
of the suite.

One child process per core, ``python -W error tests/test_digests.py
--child``, first calls ``test_sampler.py``'s exact-symmetry test and its
bitwise reference kernel test on every cell of
``test_sampler.KERNEL_CELLS``; an assertion there ends the child before
any artifact is made.  It then runs a desk-scale ``simulate`` and a
``fit`` with n < p, each with every kind of ``sampler.SAMPLER_KINDS``, and
hashes every non-timing artifact.  Both per-core tests read that one
child: the kernel test passes when the child exits 0, and the digest test
compares its digests with ``tests/golden/digests.json``.  The bits depend
on the BLAS kernel, so a digest is keyed by the numpy and scipy versions,
the versions of the OpenBLAS each bundles, and ``OPENBLAS_CORETYPE``.  On a key the file
does not hold the digest test skips, with the key as its reason.  Every
test here skips off x86_64, or when OpenBLAS does not report the core it
was asked for.

A change that alters the random stream or the arithmetic on purpose
regenerates the file with

    python tests/test_digests.py --write

which replaces it with this host's digests, since digests of other builds
are stale after such a change.  It exits non-zero, writing nothing, if a
core's child fails its kernel checks.
"""

import hashlib
import json
import os
import platform
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

pytestmark = pytest.mark.skipif(platform.machine() != "x86_64",
                                reason="OpenBLAS core types are x86_64 names")


def build_key():
    """numpy, scipy and their OpenBLAS versions, and the forced core type."""
    def openblas(config):
        return config["Build Dependencies"]["blas"]["version"]

    return (f"numpy {np.__version__} (OpenBLAS {openblas(np.show_config(mode='dicts'))}), "
            f"scipy {scipy.__version__} (OpenBLAS {openblas(scipy.show_config(mode='dicts'))}), "
            f"core {os.environ.get('OPENBLAS_CORETYPE', '')}")


def kernel_checks():
    """The bit-exact kernel tests of test_sampler.py, on every cell; the
    first failure raises."""
    import test_sampler

    # A full-matrix A - u u' (dger) comes out asymmetric on the Haswell
    # kernel, which AVX2 and AMD machines get by default; the one carried
    # triangle must stay exactly symmetric, and the sweep must match the
    # plain reference kernel bit for bit, on every kernel.
    test_sampler.test_sweep_keeps_exact_symmetry_and_audit_counts()
    for cell in test_sampler.KERNEL_CELLS:
        test_sampler.test_sweep_matches_reference_kernel_bitwise(*cell)


def artifact_digests():
    """Run a simulate and then a fit with each sampler kind in a scratch
    directory; sha256 of each artifact but timing.json, keyed
    "<command>-<kind>/<file>"."""
    from bayesglasso.cli import main
    from bayesglasso.designs import simulate_data, true_model
    from bayesglasso.distributions import RngStream
    from bayesglasso.sampler import SAMPLER_KINDS

    chain = ["--burnin", "10", "--draws", "30", "--seed", "5"]
    runs = {
        **{f"simulate-{kind}": ["simulate", "--design", "circle", "--p", "8", "--n", "20",
                                "--sampler", kind, "--reps", "2", *chain]
           for kind in SAMPLER_KINDS},
        **{f"fit-{kind}": ["fit", "data.csv", "--sampler", kind, *chain]
           for kind in SAMPLER_KINDS},
    }
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the manifest records the data path as given
        # n = 6 observations of p = 10 variables, so the fits run with n < p.
        Y = simulate_data(true_model("ar2", 10), n=6, rng=RngStream(7))
        np.savetxt("data.csv", Y, delimiter=",", fmt="%.17g")
        for name, argv in runs.items():
            if main([*argv, "--out", name]) != 0:
                raise RuntimeError(f"{name} failed")
            for path in sorted(Path(name).iterdir()):
                if path.name != "timing.json":
                    digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def run_child(core):
    """The finished child process of one forced core.  OPENBLAS_VERBOSE=2
    has OpenBLAS name the core it loads, as "Core: <name>" on stderr."""
    env = {**os.environ, "OPENBLAS_CORETYPE": core, "OPENBLAS_VERBOSE": "2",
           "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-W", "error", str(Path(__file__).resolve()), "--child"],
                          env=env, capture_output=True, text=True, timeout=300)


def child_output(core, proc):
    """(key, digests) of a child that loaded the core and passed."""
    if f"Core: {core}" not in proc.stderr:
        pytest.skip(f"OpenBLAS did not report core {core}")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    out = json.loads(proc.stdout)
    return out["key"], out["digests"]


def write_golden():
    golden = dict(child_output(core, run_child(core)) for core in CORES)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} keys to {GOLDEN}")


@pytest.fixture(scope="module", params=CORES)
def child(request):
    """(core, finished child process), one child per core for both tests."""
    return request.param, run_child(request.param)


def test_kernel_bits_under_openblas_core(child):
    # The child exits 0 only after every kernel check has passed.
    child_output(*child)


def test_seeded_artifacts_match_golden_digests(child):
    key, digests = child_output(*child)
    golden = json.loads(GOLDEN.read_text())
    if key not in golden:
        pytest.skip(f"no golden digests for {key}")
    changed = sorted(name for name in golden[key].keys() | digests.keys()
                     if golden[key].get(name) != digests.get(name))
    assert not changed, f"artifacts differ from the golden digests: {changed}"


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        sys.path.insert(0, str(SRC))
        kernel_checks()
        print(json.dumps({"key": build_key(), "digests": artifact_digests()}))
    elif sys.argv[1:] == ["--write"]:
        write_golden()
    else:
        raise SystemExit("usage: python tests/test_digests.py --write")
