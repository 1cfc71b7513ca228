"""Test-session settings shared by tests/ and benchmarks/.

OpenBLAS rounds some LAPACK routines differently with more than one
thread (dpotri, which inverts every sweep's factor, among them), so a
chain's draws depend on the thread count.  The suite runs BLAS on one
thread, as CI's tier-1 job, benchmarks/run.py and the per-core digest
children do, so its seeded numbers are the same on every machine.  pytest
imports this file before any test module, so numpy loads OpenBLAS after
the setting.

One test needs it to pass:
benchmarks/test_benchmark.py::test_traced_run_leaves_no_wrapper_installed
has a 6-draw bgs chain whose Geyer ESS denominator is 0 up to rounding, and
two threads round it to exactly 0 (ROADMAP, "Failing and fragile checks";
its mend is item 3's fix of geyer_ess).
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
