"""Workloads, output checks and metrics of the bayesglasso benchmark.

Every timed operation is one in-process call of ``bayesglasso.cli.main``,
closed loop, one command and one chain at a time.  The only substitution in
an untraced run is :class:`ChainCapture` at ``bayesglasso.cli.run_chain``:
once per chain it switches on ``ChainConfig.store_draws`` and keeps the
output, so ESS comes from the very chains that were timed.  A traced run
also installs the timing wrappers listed in :func:`trace_targets`.
"""

import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy
from scipy.linalg import lapack

import bayesglasso
from bayesglasso import cli, distributions, sampler
from bayesglasso.designs import GraphDesign, build_design, scatter_matrix, simulate_data
from bayesglasso.distributions import RngStream
from bayesglasso.metrics import frobenius_loss, stein_loss

from ess import diagonal_ess
from tracing import Tracer, inside

SAMPLERS = ("bgs", "hrs")
SETUP_REPEATS = 5
# A run must end within 180 s whatever happens; commands get what is left.
RUN_DEADLINE_S = 165.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``command`` is "simulate" (a replicated campaign, one chain per
    replication) or "fit" (one chain on a CSV the benchmark writes).  The
    work is split into ``rounds``; each round runs one command per sampler,
    so the samplers interleave and every timing has several samples whose
    median resists short bursts of machine speed-up and slow-down.  The
    amount of work scales with --seconds: ``sweep_s`` is the reference cost
    of one sweep.  ``calib_iters`` sizes the calibration kernel at this p,
    and ``calib_ref_s`` is its time on the reference machine (see
    :func:`calibrate`).  Campaign chains keep ``chain_sweeps`` and the number of
    replications follows; fit chains take the whole share.  A fifth of
    every chain is burn-in.
    """

    name: str
    command: str
    design: str
    p: int
    n: int
    sweep_s: float
    rounds: int
    calib_iters: int
    calib_ref_s: float
    chain_sweeps: int = 0


WORKLOADS = {
    # The paper's headline cell.  At ~350 us per column the cost is mostly
    # Python per-call overhead in sampler and distributions, not LAPACK, and
    # the replication loop exercises the cli/designs/metrics path.
    "circle30-campaign": Workload("circle30-campaign", "simulate", "circle", 30, 50,
                                  sweep_s=0.0105, rounds=4, calib_iters=3000,
                                  calib_ref_s=0.12, chain_sweeps=250),
    # n < p, the regime hrs exists for; dense factorisations dominate, and a
    # single chain per command bypasses the replication loop while CSV ingest
    # runs.  Four short chains per sampler, not one long one: the ESS of a
    # 160-draw hrs chain moved by +-15% with the data from seed to seed,
    # while 40-draw chains sit near their ESS ceiling and move by a few
    # percent.  ess_per_s here therefore says less about mixing than on the
    # campaign; its job on this workload is the cost side.
    "ar2-p100-fit": Workload("ar2-p100-fit", "fit", "ar2", 100, 50,
                             sweep_s=0.1, rounds=4, calib_iters=600,
                             calib_ref_s=0.14),
}


@dataclass(frozen=True)
class Plan:
    """The commands of one run, fixed by workload, seed and --seconds."""

    workload: Workload
    seed: int
    rounds: int
    reps: int
    burn_in: int
    draws: int

    def cli_seed(self, rnd):
        """--seed of round rnd's commands; both samplers share it."""
        return self.seed * 100 + rnd


def make_plan(workload, seed, seconds):
    per_command = max(seconds, 1.0) / len(SAMPLERS) / workload.rounds / workload.sweep_s
    if workload.command == "simulate":
        sweeps = workload.chain_sweeps
        reps = max(1, round(per_command / sweeps))
    else:
        sweeps, reps = max(16, round(per_command)), 1
    return Plan(workload, seed, workload.rounds, reps, sweeps // 5, sweeps - sweeps // 5)


def halve(plan):
    """Half the rounds, for the untraced and traced halves of a traced run."""
    return replace(plan, rounds=max(1, plan.rounds // 2))


# ------------------------------------------------------------------ set-up

@dataclass
class Inputs:
    model: object
    scatters: dict          # (round, replication) -> expected scatter matrix
    csv_path: Path | None = None


def build_inputs(plan, work):
    """Design, data and (for fit) the CSV, all from the workload seed.

    Campaign data follow the CLI's own stream convention, stream
    (--seed, replication), so the checks can confirm that each chain saw
    the intended data.  Every fit command reads the same CSV.
    """
    w = plan.workload
    model = build_design(GraphDesign(kind=w.design, p=w.p))
    if w.command == "simulate":
        scatters = {(rnd, rep): scatter_matrix(simulate_data(
                        model, w.n, RngStream(plan.cli_seed(rnd), rep)))
                    for rnd in range(plan.rounds) for rep in range(plan.reps)}
        return Inputs(model, scatters)
    Y = simulate_data(model, w.n, RngStream(plan.seed))
    csv_path = work / "data.csv"
    header = ",".join(f"x{j + 1}" for j in range(w.p))
    np.savetxt(csv_path, Y, delimiter=",", fmt="%.17g", header=header, comments="")
    S = scatter_matrix((Y - Y.mean(axis=0)) / Y.std(axis=0, ddof=1))
    return Inputs(model, {(rnd, 0): S for rnd in range(plan.rounds)}, csv_path)


def _import_seconds(src):
    code = ("import time; t = time.perf_counter(); import bayesglasso.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return float(done.stdout.strip())


def set_up(plan, work, src):
    """Median over SETUP_REPEATS of a fresh package import plus input build."""
    times = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        t_import = _import_seconds(src)
        t0 = time.perf_counter()
        inputs = build_inputs(plan, work)
        times.append(t_import + time.perf_counter() - t0)
    return statistics.median(times), inputs


# ------------------------------------------------------------- calibration

def calibrate(p, iters):
    """Seconds this machine takes, right now, for a fixed imitation of
    ``iters`` column updates at dimension p.

    It uses numpy and LAPACK only, never bayesglasso, so it measures the
    machine and not the program.  On the 2-vCPU KVM guest described in
    README.md the host switches between phases whose speeds differ by
    25-40%, for seconds to minutes at a time; timing metrics are scaled by
    calib_ref_s over this kernel's time measured around each command
    (reference seconds).
    """
    gen = np.random.default_rng(0)
    A = np.eye(p) * 3.0 + 0.1
    order = np.arange(p)
    order[0], order[-1] = order[-1], order[0]
    t0 = time.perf_counter()
    for _ in range(iters):
        B = A.take(order, axis=0).take(order, axis=1)
        L, _ = lapack.dpotrf(B[:-1, :-1], lower=1, clean=1)
        inv, _ = lapack.dpotri(L, lower=1)
        v = gen.standard_normal(p - 1)
        q = float(v @ inv @ v)
        gen.gamma(1.01, 1.0 / (np.abs(v) + 1e-6))
        math.sqrt(q + 1.0)
    return time.perf_counter() - t0


# ---------------------------------------------------------------- commands

class CommandTimeout(BaseException):
    """Raised by the wall-clock alarm.  A BaseException, so that the CLI's
    per-replication ``except Exception`` cannot swallow it."""


def _alarm(signum, frame):
    raise CommandTimeout()


def call_cli(argv, limit_s):
    """cli.main(argv) under a wall-clock limit; (exit code or None, seconds)."""
    if limit_s <= 0.0:
        return None, 0.0
    previous = signal.signal(signal.SIGALRM, _alarm)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        code = cli.main(argv)
    except CommandTimeout:
        code = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    return code, time.perf_counter() - t0


def command_argv(plan, kind, rnd, out, inputs, burn_in=None, draws=None, reps=None):
    w = plan.workload
    seed = str(plan.cli_seed(rnd))
    burn_in = plan.burn_in if burn_in is None else burn_in
    draws = plan.draws if draws is None else draws
    if w.command == "simulate":
        reps = plan.reps if reps is None else reps
        return ["simulate", "--design", w.design, "--p", str(w.p), "--n", str(w.n),
                "--sampler", kind, "--burnin", str(burn_in), "--draws", str(draws),
                "--reps", str(reps), "--seed", seed, "--jobs", "1",
                "--out", str(out)]
    return ["fit", str(inputs.csv_path), "--sampler", kind, "--standardize",
            "--burnin", str(burn_in), "--draws", str(draws),
            "--seed", seed, "--out", str(out)]


@dataclass
class Chain:
    scatter: np.ndarray
    output: object
    wall_s: float
    ess: float = math.nan
    ref_s: float = math.nan     # wall_s in reference seconds


class ChainCapture:
    """Keeps every chain the CLI runs, with store_draws switched on."""

    def __init__(self):
        self.chains = []

    def __call__(self, run_chain):
        def capture(data_scatter, n, config, rng):
            t0 = time.perf_counter()
            out = run_chain(data_scatter, n, replace(config, store_draws=True), rng)
            self.chains.append(Chain(data_scatter, out, time.perf_counter() - t0))
            return out
        return capture


@dataclass
class CommandResult:
    kind: str
    round: int
    seconds: float
    ops: int
    failed: int
    chains: list
    problems: list = field(default_factory=list)
    ref_seconds: float = math.nan


def _artifacts(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.name != "timing.json"}


def determinism_check(plan, inputs, work, deadline):
    """Same-seed commands, run twice, must agree byte for byte.

    Short chains keep this cheap; it also warms up first-call costs before
    anything is timed.
    """
    results = []
    for kind in SAMPLERS:
        outs = [work / f"det-{kind}-{k}" for k in (0, 1)]
        codes = [call_cli(command_argv(plan, kind, 0, out, inputs, burn_in=2, draws=3,
                                       reps=2), deadline - time.perf_counter())[0]
                 for out in outs]
        ops = 2 * (2 if plan.workload.command == "simulate" else 1)
        problems = [f"exit code {c}" for c in codes if c != 0]
        if not problems:
            try:
                problems += _audit_problems(kind, outs[0])
                if _artifacts(outs[0]) != _artifacts(outs[1]):
                    problems.append("same-seed artifacts differ")
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        results.append(CommandResult(kind, 0, 0.0, ops, ops if problems else 0, [], problems))
        for out in outs:
            shutil.rmtree(out, ignore_errors=True)
    return results


def _audit_problems(kind, out):
    if kind != "hrs":
        return []
    audit = json.loads((out / "audit.json").read_text())
    if audit["violations"] != 0:
        return [f"hrs audit reports {audit['violations']} violations"]
    return []


def run_command(plan, kind, rnd, inputs, work, deadline, tracer=None, targets=()):
    """One timed CLI command plus its output checks."""
    w = plan.workload
    out = work / f"{w.command}-{kind}-{rnd}"
    shutil.rmtree(out, ignore_errors=True)
    capture = ChainCapture()
    original = cli.run_chain
    cli.run_chain = capture(original)
    before = calibrate(w.p, w.calib_iters)
    try:
        argv = command_argv(plan, kind, rnd, out, inputs)
        if tracer is None:
            code, seconds = call_cli(argv, deadline - time.perf_counter())
        else:
            with tracer.installed(targets):
                code, seconds = call_cli(argv, deadline - time.perf_counter())
    finally:
        cli.run_chain = original
    to_ref = w.calib_ref_s / ((before + calibrate(w.p, w.calib_iters)) / 2.0)
    result = CommandResult(kind, rnd, seconds, plan.reps, 0, capture.chains,
                           ref_seconds=seconds * to_ref)
    for chain in capture.chains:
        chain.ref_s = chain.wall_s * to_ref
    bad_reps = set()
    if code != 0:
        result.problems.append("timed out" if code is None else f"exit code {code}")
        bad_reps = set(range(plan.reps))
    elif len(capture.chains) != plan.reps:
        result.problems.append(f"{len(capture.chains)} chains for {plan.reps} replications")
        bad_reps = set(range(plan.reps))
    else:
        bad_reps = _check_outputs(plan, kind, rnd, inputs, out, capture.chains,
                                  result.problems)
    result.failed = len(bad_reps)
    for rep in bad_reps & set(range(len(capture.chains))):
        capture.chains[rep].ess = math.nan
    for chain in capture.chains:
        chain.output.draws = None
    shutil.rmtree(out, ignore_errors=True)
    return result


def _check_outputs(plan, kind, rnd, inputs, out, chains, problems):
    """Replication indices that fail a check; problems get one line each."""
    bad = set()
    sweeps = plan.burn_in + plan.draws
    for rep, chain in enumerate(chains):
        mean = chain.output.omega_mean
        why = None
        if not np.allclose(chain.scatter, inputs.scatters[rnd, rep], rtol=1e-12, atol=0.0):
            why = "chain did not receive the benchmark's data"
        elif chain.output.sweeps_run != sweeps or len(chain.output.draws) != plan.draws:
            why = (f"ran {chain.output.sweeps_run} sweeps and kept {len(chain.output.draws)}"
                   f" draws, expected {sweeps} and {plan.draws}")
        elif not np.isfinite(mean).all():
            why = "posterior mean not finite"
        elif not _is_pd(mean):
            why = "posterior mean not positive definite"
        elif kind == "hrs" and chain.output.audit.violations != 0:
            why = f"hrs chain reports {chain.output.audit.violations} violations"
        else:
            try:
                chain.ess = diagonal_ess(chain.output.draws)
            except ValueError as exc:
                why = f"ESS: {exc}"
            else:
                if not (math.isfinite(chain.ess) and chain.ess > 0.0):
                    why = f"ESS {chain.ess} is not a positive number"
        if why is not None:
            bad.add(rep)
            problems.append(f"replication {rep}: {why}")

    problems_before = len(problems)
    try:
        problems.extend(_audit_problems(kind, out))
        if plan.workload.command == "simulate":
            problems.extend(_check_campaign_files(plan, inputs, out, chains))
        else:
            problems.extend(_check_fit_files(out, chains[0]))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    if len(problems) > problems_before:
        bad = set(range(len(chains)))
    return bad


def _is_pd(M):
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return False
    return True


def _check_campaign_files(plan, inputs, out, chains):
    problems = []
    aggregate = json.loads((out / "aggregate.json").read_text())
    if aggregate["replications_completed"] != plan.reps or aggregate["failures"]:
        problems.append(f"aggregate reports failures: {aggregate['failures']}")
    lines = (out / "replications.csv").read_text().splitlines()
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    if len(rows) != plan.reps:
        return problems + [f"replications.csv has {len(rows)} rows"]
    truth = inputs.model.omega_true
    for rep, (row, chain) in enumerate(zip(rows, chains)):
        got = dict(zip(header, row))
        want = {"stein": stein_loss(chain.output.omega_mean, truth),
                "frobenius": frobenius_loss(chain.output.omega_mean, truth)}
        for key, value in want.items():
            if not math.isclose(float(got[key]), value, rel_tol=1e-9):
                problems.append(f"replication {rep}: {key} {got[key]} != {value!r}")
    return problems


def _check_fit_files(out, chain):
    mean = np.loadtxt(out / "posterior_mean.csv", delimiter=",", ndmin=2)
    scaled = np.loadtxt(out / "posterior_mean_unit_diag.csv", delimiter=",", ndmin=2)
    if not np.array_equal(mean, chain.output.omega_mean):
        return ["posterior_mean.csv differs from the chain's mean"]
    if not np.allclose(np.diagonal(scaled), 1.0) or not np.isfinite(scaled).all():
        return ["posterior_mean_unit_diag.csv is not a unit-diagonal finite matrix"]
    return []


def run_commands(plan, inputs, work, deadline, tracer=None, run_kind=None):
    """Each round runs one command per sampler; returns (untraced, traced).

    With a tracer every command runs twice in a row, untraced and then
    traced, so the two see the same machine conditions.  Traced commands
    get a fresh run id each, recorded in run_kind so spans can be grouped
    by sampler.
    """
    untraced, traced = [], []
    targets = trace_targets() if tracer is not None else ()
    for rnd in range(plan.rounds):
        for kind in SAMPLERS:
            untraced.append(run_command(plan, kind, rnd, inputs, work, deadline))
            if tracer is not None:
                tracer.run_id += 1
                run_kind[tracer.run_id] = kind
                traced.append(run_command(plan, kind, rnd, inputs, work, deadline,
                                          tracer, targets))
    return untraced, traced


# ----------------------------------------------------------------- metrics

def _chains(results, kind):
    """The sampler's chains that passed every check (they have an ESS)."""
    return [c for r in results if r.kind == kind for c in r.chains
            if math.isfinite(c.ess)]


def sweeps_per_s(results, kind, clock="ref_s"):
    """Median over the sampler's chains of sweeps per second of run_chain,
    in reference seconds ("ref_s") or wall seconds ("wall_s")."""
    chains = _chains(results, kind)
    return statistics.median(c.output.sweeps_run / getattr(c, clock) for c in chains)


def ess_per_s(results, kind, clock="ref_s"):
    """Pooled diagonal ESS per second of run_chain.

    The pooled seconds are the pooled sweeps at the median chain rate, so a
    burst of machine speed-up or slow-down during one chain moves this no
    more than it moves sweeps_per_s.
    """
    chains = _chains(results, kind)
    ess_per_sweep = sum(c.ess for c in chains) / sum(c.output.sweeps_run for c in chains)
    return ess_per_sweep * sweeps_per_s(results, kind, clock)


def end_to_end(results, setup_s, attempted, failed, clock="ref_s"):
    """The end-to-end metrics; clock "wall_s" gives the unscaled wall-clock
    figures, printed alongside for reference."""
    per, sec = ("1/ref-s", "ref-s") if clock == "ref_s" else ("1/s", "s")
    command_s = "ref_seconds" if clock == "ref_s" else "seconds"
    m = {"setup_s": (setup_s, "s")}
    for kind in SAMPLERS:
        m[f"sweeps_per_s.{kind}"] = (sweeps_per_s(results, kind, clock), per)
        m[f"ess_per_s.{kind}"] = (ess_per_s(results, kind, clock), per)
        m[f"command_s.{kind}"] = (statistics.median(getattr(r, command_s) for r in results
                                                    if r.kind == kind), sec)
    m["completed_share"] = (1.0 - failed / attempted, "share")
    return m


def _size(M, *args, **kwargs):
    return len(M)


def _tail(mu, sigma, lo, hi, *args, **kwargs):
    # The sampler's own rule: the interval lies more than 4 sigma into a tail.
    return int(sigma > 0.0 and ((lo - mu) / sigma > 4.0 or (hi - mu) / sigma < -4.0))


def trace_targets():
    """(module, attribute, span name, tag) for every wrapped public function.

    Attributes a future version no longer has are skipped, so their metrics
    read zero calls instead of breaking the traced run.
    """
    wanted = [
        (cli, "main", "cli.main", None),
        (cli, "run_replication", "cli.run_replication", None),
        (cli, "ingest_csv", "cli.ingest_csv", None),
        (cli, "build_design", "designs.build_design", None),
        (cli, "simulate_data", "designs.simulate_data", None),
        (cli, "scatter_matrix", "designs.scatter_matrix", None),
        (cli, "stein_loss", "metrics.stein_loss", None),
        (cli, "frobenius_loss", "metrics.frobenius_loss", None),
        (cli, "adjacency_from_estimate", "metrics.adjacency_from_estimate", None),
        (cli, "structure_scores", "metrics.structure_scores", None),
        (cli, "scores_from_counts", "metrics.scores_from_counts", None),
        (cli, "unit_diag_scale", "metrics.unit_diag_scale", None),
        (cli, "run_chain", "sampler.run_chain", None),
        (sampler, "sweep", "sampler.sweep", None),
        (sampler, "make_partition", "sampler.make_partition", None),
        (sampler, "bgs_update_beta", "sampler.bgs_update_beta", None),
        (sampler, "hrs_update_beta", "sampler.hrs_update_beta", None),
        (sampler, "update_gamma", "sampler.update_gamma", None),
        (sampler, "update_lambda_column", "sampler.update_lambda_column", None),
        (sampler, "update_tau_column", "sampler.update_tau_column", None),
        (sampler, "pd_check", "matrixcore.pd_check", _size),
        (sampler, "invert_from_factor", "matrixcore.invert_from_factor", _size),
        (sampler, "sample_mvn", "distributions.sample_mvn", None),
        (sampler, "sample_truncated_normal", "distributions.sample_truncated_normal", _tail),
        (sampler, "sample_unit_sphere", "distributions.sample_unit_sphere", None),
        (sampler, "sample_gamma", "distributions.sample_gamma", None),
        (sampler, "sample_inverse_gaussian", "distributions.sample_inverse_gaussian", None),
        (distributions, "pd_check", "matrixcore.pd_check", _size),
    ]
    return [t for t in wanted if hasattr(t[0], t[1])]


def per_layer(tracer, run_kind, traced, untraced, p):
    """Per-layer metrics from the traced commands' spans.

    Stage times (partition, beta, ...) are the inclusive time of the stage
    function per column; sweep_self_us is what no stage covers.  Matrix
    counts only include calls made inside a sweep.
    """
    s = tracer.spans()
    name, dur, self_t, tag = s["name"], s["dur"], s["self"], s["tag"]

    def is_(*names):
        return np.isin(name, tracer.name_ids(*names))

    sweep = is_("sampler.sweep")
    in_sweep = inside(s, tracer.name_ids("sampler.sweep"))
    parent_is_sweep = np.zeros_like(sweep)
    has_parent = s["parent"] >= 0
    parent_is_sweep[has_parent] = sweep[s["parent"][has_parent]]
    pd, inv = is_("matrixcore.pd_check") & in_sweep, is_("matrixcore.invert_from_factor") & in_sweep

    m = {}
    for kind in SAMPLERS:
        run = np.isin(s["run"], [r for r, k in run_kind.items() if k == kind])
        cols = max(int((sweep & run).sum()) * p, 1)

        def per_col_us(mask):
            return float(dur[mask & run].sum()) * 1e6 / cols

        def mean_us(mask):
            sel = dur[mask & run]
            return float(sel.mean()) * 1e6 if sel.size else 0.0

        size = tag.astype(float)
        flops = (size[pd & run] ** 3).sum() / 3.0 + 2.0 * (size[inv & run] ** 3).sum() / 3.0
        sweep_time = float(dur[sweep & run].sum())
        sweep_ms = dur[sweep & run] * 1e3
        chains = _chains(traced, kind)
        sweeps_run = sum(c.output.sweeps_run for c in chains)
        updates = sum(c.output.audit.updates_total for c in chains)
        violations = sum(c.output.audit.violations for c in chains)
        m.update({
            f"matrixcore.pd_check_per_column.{kind}": ((pd & run).sum() / cols, "count"),
            f"matrixcore.invert_per_column.{kind}": ((inv & run).sum() / cols, "count"),
            f"matrixcore.pd_check_us.{kind}": (mean_us(pd), "us"),
            f"matrixcore.invert_us.{kind}": (mean_us(inv), "us"),
            f"matrixcore.flops_per_column.{kind}": (float(flops) / cols, "flop-computed"),
            f"matrixcore.share.{kind}": (
                float(self_t[(pd | inv) & run].sum()) / sweep_time if sweep_time else 0.0,
                "share"),
            f"sampler.partition_us.{kind}": (per_col_us(is_("sampler.make_partition")), "us"),
            f"sampler.beta_us.{kind}": (
                per_col_us(is_("sampler.bgs_update_beta", "sampler.hrs_update_beta")), "us"),
            f"sampler.gamma_us.{kind}": (per_col_us(is_("sampler.update_gamma")), "us"),
            f"sampler.lambda_us.{kind}": (per_col_us(is_("sampler.update_lambda_column")), "us"),
            f"sampler.tau_us.{kind}": (per_col_us(is_("sampler.update_tau_column")), "us"),
            f"sampler.audit_us.{kind}": (
                per_col_us(is_("matrixcore.pd_check") & parent_is_sweep), "us"),
            f"sampler.sweep_self_us.{kind}": (
                float(self_t[sweep & run].sum()) * 1e6 / cols, "us"),
            f"sampler.sweep_ms.p50.{kind}": (
                float(np.percentile(sweep_ms, 50)) if sweep_ms.size else 0.0, "ms"),
            f"sampler.sweep_ms.p99.{kind}": (
                float(np.percentile(sweep_ms, 99)) if sweep_ms.size else 0.0, "ms"),
            f"sampler.ess_per_sweep.{kind}": (
                sum(c.ess for c in chains) / sweeps_run if sweeps_run else 0.0, "ess/sweep"),
            f"sampler.violation_ratio.{kind}": (violations / updates if updates else 0.0,
                                                "share"),
            f"distributions.gamma_us.{kind}": (mean_us(is_("distributions.sample_gamma")), "us"),
            f"distributions.invgauss_us.{kind}": (
                mean_us(is_("distributions.sample_inverse_gaussian")), "us"),
        })
        if kind == "bgs":
            m["distributions.mvn_us"] = (mean_us(is_("distributions.sample_mvn")), "us")
        else:
            truncnorm = is_("distributions.sample_truncated_normal") & run
            m["distributions.truncnorm_us"] = (mean_us(truncnorm), "us")
            m["distributions.truncnorm_tail_share"] = (
                float(tag[truncnorm].mean()) if truncnorm.any() else 0.0, "share")
            m["distributions.sphere_us"] = (mean_us(is_("distributions.sample_unit_sphere")),
                                            "us")

    commands = max(len(traced), 1)
    cli_self = float(self_t[is_("cli.main", "cli.run_replication")].sum())
    m["cli.self_ms"] = (cli_self * 1e3 / commands, "ms")
    m["cli.ingest_ms"] = (float(dur[is_("cli.ingest_csv")].sum()) * 1e3 / commands, "ms")
    m["designs.data_ms"] = (float(dur[is_("designs.build_design", "designs.simulate_data",
                                          "designs.scatter_matrix")].sum()) * 1e3 / commands,
                            "ms")
    m["metrics.score_ms"] = (float(dur[is_(*[n for n in tracer.names
                                             if n.startswith("metrics.")])].sum())
                             * 1e3 / commands, "ms")
    pairs = [(u.wall_s, t.wall_s) for ru, rt in zip(untraced, traced)
             for u, t in zip(ru.chains, rt.chains)]
    m["trace.overhead_share"] = (statistics.median(1.0 - u / t for u, t in pairs), "share")
    return m, s


# ------------------------------------------------------------ machine info

def machine_info(root):
    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_version(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "bayesglasso": bayesglasso.__version__,
        "git_commit": _git_commit(root),
    }
    return info


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes():
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def _openblas_version():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return deps["blas"].get("version", "unknown")
    except (KeyError, TypeError):
        return "unknown"


def _git_commit(root):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -------------------------------------------------------------------- main

def measure(workload, seed, seconds, trace, root, work):
    """One benchmark run; returns (result dict, wall-clock metrics, spans or None).

    A traced run halves the planned rounds and runs each command twice,
    untraced and then traced, so the overhead of tracing is measured on
    identical chains under the same machine conditions.
    """
    deadline = time.perf_counter() + RUN_DEADLINE_S
    plan = make_plan(workload, seed, seconds)
    if trace:
        plan = halve(plan)
    setup_s, inputs = set_up(plan, work, root / "src")

    checks = determinism_check(plan, inputs, work, deadline)
    tracer, run_kind = (Tracer(), {}) if trace else (None, None)
    untraced, traced = run_commands(plan, inputs, work, deadline, tracer, run_kind)
    results = checks + untraced + traced

    attempted = sum(r.ops for r in results)
    failed = sum(r.failed for r in results)
    for r in results:
        if r.chains:
            rates = " ".join(f"{c.output.sweeps_run / c.wall_s:.2f}" for c in r.chains)
            ess = " ".join(f"{c.ess:.2f}" for c in r.chains)
            print(f"{workload.name} {r.kind} round {r.round}: command {r.seconds:.3f} s, "
                  f"chain sweeps/s [{rates}], ESS [{ess}]", file=sys.stderr)
        for problem in r.problems:
            print(f"{workload.name} {r.kind}: {problem}", file=sys.stderr)
    measured = [untraced] + ([traced] if trace else [])
    metrics, wall, spans = {}, {}, None
    if all(_chains(rs, kind) for rs in measured for kind in SAMPLERS):
        if trace:
            metrics, spans = per_layer(tracer, run_kind, traced, untraced, workload.p)
            spans["names"] = np.array(tracer.names)
        else:
            metrics = end_to_end(untraced, setup_s, attempted, failed)
            wall = end_to_end(untraced, setup_s, attempted, failed, clock="wall_s")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": _as_json(metrics),
    }, _as_json(wall), spans


def _as_json(metrics):
    return {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}


def write_spans(spans, path):
    """Every span of a traced run, one array per column, in one .npz file."""
    np.savez(path, **spans)
