"""Command-line front end: simulation campaigns, real-data fits, audits.

Three commands:

* ``simulate`` runs a replicated scenario (design, p, n, sampler) and
  writes per-replication scores, pooled aggregates and the violation
  audit.
* ``fit`` ingests a CSV data matrix, runs one chain and writes the
  posterior mean (raw and unit-diagonal scaled) plus the audit.
* ``audit`` runs one chain purely for the violation counters.

Every output directory gets a manifest echoing the full configuration and
seed.  Wall-clock numbers go to a separate timing file so that everything
else is byte-identical across reruns with the same seed.

Exit codes: 0 success, 1 any replication/data failure, 2 configuration
error.
"""

import argparse
import csv
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .designs import DESIGN_KINDS, GraphDesign, build_design, scatter_matrix, simulate_data
from .distributions import RngStream
from .matrixcore import save_matrix_csv
from .metrics import (
    adjacency_from_estimate,
    frobenius_loss,
    scores_from_counts,
    stein_loss,
    structure_scores,
    unit_diag_scale,
)
from .sampler import SAMPLER_KINDS, ChainConfig, ViolationAudit, run_chain

REPLICATION_COLUMNS = [
    "design", "p", "n", "sampler", "replication", "stein", "frobenius",
    "tp", "tn", "fp", "fn", "specificity", "sensitivity", "mcc",
]

# Stream id offset for the bootstrap resampler so it never collides with a
# replication stream.
_BOOTSTRAP_STREAM = 2 ** 32


class ConfigError(ValueError):
    pass


@dataclass
class ScenarioConfig:
    design: str
    p: int
    n: int
    sampler: str
    burn_in: int = 5000
    draws: int = 10000
    replications: int = 50
    r: float = 1e-2
    s: float = 1e-6
    threshold: float = 1e-3
    seed: int = 0
    mcc_as_printed: bool = False
    jobs: int = 1

    def validate(self):
        try:
            GraphDesign(kind=self.design, p=self.p)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.sampler not in SAMPLER_KINDS:
            raise ConfigError(f"sampler must be one of {SAMPLER_KINDS}")
        if self.n < 1 or self.replications < 1 or self.draws < 1:
            raise ConfigError("n, replications and draws must be positive")
        if self.burn_in < 0 or self.jobs < 1:
            raise ConfigError("need burn_in >= 0, jobs >= 1")
        if self.r <= 0.0 or self.s <= 0.0 or self.threshold <= 0.0:
            raise ConfigError("r, s and threshold must be positive")

    def chain_config(self):
        return ChainConfig(kind=self.sampler, burn_in=self.burn_in,
                           draws=self.draws, r=self.r, s=self.s)


@dataclass
class Dataset:
    values: np.ndarray
    column_labels: list | None = None


def ingest_csv(path, standardize=False):
    """Read an n x p numeric CSV, auto-detecting a single header row.

    All values must be finite; standardization centers each column and
    scales it to unit sample standard deviation (n-1 denominator).
    """
    with open(path, newline="") as fh:
        raw = [(lineno, row) for lineno, row in enumerate(csv.reader(fh), start=1)
               if len(row) > 0]
    if not raw:
        raise ValueError(f"{path}: empty file")

    labels = None
    first_line, first_row = raw[0]
    if not all(_is_number(c) for c in first_row):
        labels = [c.strip() for c in first_row]
        raw = raw[1:]
        if not raw:
            raise ValueError(f"{path}: header row but no data")

    width = len(raw[0][1])
    values = np.empty((len(raw), width))
    for k, (lineno, row) in enumerate(raw):
        if len(row) != width:
            raise ValueError(
                f"{path}: row {lineno}: expected {width} columns, found {len(row)}")
        for j, cell in enumerate(row):
            try:
                v = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: row {lineno}, column {j + 1}: "
                    f"not numeric: {cell!r}") from None
            if not math.isfinite(v):
                raise ValueError(
                    f"{path}: row {lineno}, column {j + 1}: non-finite value {cell!r}")
            values[k, j] = v

    if labels is not None and len(labels) != width:
        raise ValueError(f"{path}: header has {len(labels)} labels for {width} columns")

    if standardize:
        if values.shape[0] < 2:
            raise ValueError("standardization needs at least 2 rows")
        sd = values.std(axis=0, ddof=1)
        zero = np.nonzero(sd == 0.0)[0]
        if zero.size:
            raise ValueError(f"column {zero[0] + 1} has zero variance")
        values = (values - values.mean(axis=0)) / sd

    return Dataset(values=values, column_labels=labels)


def _is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def run_replication(scenario, rep):
    """One simulate replication: data, chain, losses, structure scores.

    The replication owns RngStream(seed, stream_id=rep), so results do not
    depend on execution order or worker count.
    """
    model = build_design(GraphDesign(kind=scenario.design, p=scenario.p))
    rng = RngStream(scenario.seed, stream_id=rep)
    Y = simulate_data(model, scenario.n, rng)
    S = scatter_matrix(Y)
    out = run_chain(S, scenario.n, scenario.chain_config(), rng)

    est = out.omega_mean
    adj = adjacency_from_estimate(est, scenario.threshold)
    sc = structure_scores(adj, model.adjacency_true,
                          mcc_as_printed=scenario.mcc_as_printed)
    row = {
        "design": scenario.design,
        "p": scenario.p,
        "n": scenario.n,
        "sampler": scenario.sampler,
        "replication": rep,
        "stein": stein_loss(est, model.omega_true),
        "frobenius": frobenius_loss(est, model.omega_true),
        "tp": sc.tp, "tn": sc.tn, "fp": sc.fp, "fn": sc.fn,
        "specificity": sc.specificity,
        "sensitivity": sc.sensitivity,
        "mcc": sc.mcc,
    }
    return row, {"replication": rep, **_audit_summary(out.audit)}, out.elapsed_seconds


def _replication_task(scenario, rep):
    try:
        row, audit, elapsed = run_replication(scenario, rep)
        return rep, row, audit, elapsed, None
    except Exception as exc:  # recorded, campaign continues
        return rep, None, None, 0.0, f"{type(exc).__name__}: {exc}"


def _bootstrap_se_of_median(values, seed, resamples=1000):
    """SE of the median via bootstrap over replications."""
    vals = np.asarray(values, dtype=float)
    gen = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(_BOOTSTRAP_STREAM,))))
    idx = gen.integers(0, vals.size, size=(resamples, vals.size))
    meds = np.median(vals[idx], axis=1)
    return float(np.std(meds, ddof=1))


def cmd_simulate(scenario, out_dir):
    scenario.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "manifest.json", {
        "command": "simulate",
        "version": __version__,
        "config": asdict(scenario),
    })

    t0 = time.perf_counter()
    reps = range(scenario.replications)
    if scenario.jobs > 1:
        with ProcessPoolExecutor(max_workers=scenario.jobs) as pool:
            results = list(pool.map(_replication_task, [scenario] * scenario.replications, reps))
    else:
        results = [_replication_task(scenario, rep) for rep in reps]
    results.sort(key=lambda t: t[0])

    rows = [row for _, row, _, _, err in results if err is None]
    audits = [a for _, _, a, _, err in results if err is None]
    failures = [{"replication": rep, "seed": scenario.seed, "stream_id": rep,
                 "error": err} for rep, _, _, _, err in results if err is not None]
    rep_seconds = {str(rep): elapsed for rep, _, _, elapsed, err in results if err is None}

    _write_replication_csv(out / "replications.csv", rows)
    _write_json(out / "aggregate.json", _aggregate(scenario, rows, failures))
    _write_json(out / "audit.json", _pool_audits(audits))
    _write_json(out / "timing.json", {
        "total_seconds": time.perf_counter() - t0,
        "replication_seconds": rep_seconds,
    })
    if failures:
        for f in failures:
            print(f"replication {f['replication']} failed: {f['error']}", file=sys.stderr)
        return 1
    return 0


def _write_replication_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPLICATION_COLUMNS)
        for row in rows:
            writer.writerow([_csv_cell(row[c]) for c in REPLICATION_COLUMNS])


def _csv_cell(v):
    # repr keeps the full round-trip precision of floats.
    return repr(float(v)) if isinstance(v, float) else str(v)


def _aggregate(scenario, rows, failures):
    agg = {
        "replications_completed": len(rows),
        "failures": failures,
        "stein": None,
        "frobenius": None,
        "structure": None,
    }
    if rows:
        for key in ("stein", "frobenius"):
            vals = [row[key] for row in rows]
            agg[key] = {
                "median": float(np.median(vals)),
                "se": _bootstrap_se_of_median(vals, scenario.seed),
            }
        pooled = scores_from_counts(
            sum(r["tp"] for r in rows), sum(r["tn"] for r in rows),
            sum(r["fp"] for r in rows), sum(r["fn"] for r in rows),
            mcc_as_printed=scenario.mcc_as_printed)
        agg["structure"] = {
            "tp": pooled.tp, "tn": pooled.tn, "fp": pooled.fp, "fn": pooled.fn,
            "specificity": pooled.specificity,
            "sensitivity": pooled.sensitivity,
            "mcc": pooled.mcc,
        }
    return agg


def _audit_summary(audit):
    """The audit.json form of a ViolationAudit."""
    return {
        "updates_total": audit.updates_total,
        "violations": audit.violations,
        "violation_ratio_percent": audit.ratio_percent,
        "sigma_drift_max": audit.sigma_drift_max,
    }


def _pool_audits(audits):
    pooled = ViolationAudit()
    for a in audits:
        pooled.updates_total += a["updates_total"]
        pooled.violations += a["violations"]
        pooled.sigma_drift_max = max(pooled.sigma_drift_max, a["sigma_drift_max"])
    return {**_audit_summary(pooled), "per_replication": audits}


def cmd_fit(data_path, sampler, out_dir, *, burn_in=5000, draws=10000, seed=0,
            r=1e-2, s=1e-6, standardize=False):
    if sampler not in SAMPLER_KINDS:
        raise ConfigError(f"sampler must be one of {SAMPLER_KINDS}")
    cfg = ChainConfig(kind=sampler, burn_in=burn_in, draws=draws, r=r, s=s)
    try:
        cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    ds = ingest_csv(data_path, standardize=standardize)
    n, p = ds.values.shape
    if n < 2:
        raise ValueError(f"need at least 2 rows of data, found {n}")
    if p < 2:
        raise ValueError(f"need at least 2 columns of data, found {p}")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "manifest.json", {
        "command": "fit",
        "version": __version__,
        "config": {
            "data_path": str(data_path), "sampler": sampler,
            "burn_in": burn_in, "draws": draws, "seed": seed,
            "r": r, "s": s, "standardize": standardize,
            "n": int(n), "p": int(p),
        },
    })

    S = scatter_matrix(ds.values)
    result = run_chain(S, n, cfg, RngStream(seed))
    save_matrix_csv(result.omega_mean, out / "posterior_mean.csv")
    save_matrix_csv(unit_diag_scale(result.omega_mean),
                    out / "posterior_mean_unit_diag.csv")
    _write_json(out / "audit.json", _audit_summary(result.audit))
    _write_json(out / "timing.json", {"total_seconds": result.elapsed_seconds})
    return 0


def cmd_audit(scenario, out_dir):
    scenario.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "manifest.json", {
        "command": "audit",
        "version": __version__,
        "config": asdict(scenario),
    })

    model = build_design(GraphDesign(kind=scenario.design, p=scenario.p))
    rng = RngStream(scenario.seed, stream_id=0)
    Y = simulate_data(model, scenario.n, rng)
    result = run_chain(scatter_matrix(Y), scenario.n, scenario.chain_config(), rng)
    _write_json(out / "audit.json", _audit_summary(result.audit))
    _write_json(out / "timing.json", {"total_seconds": result.elapsed_seconds})
    return 0


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(_sanitize(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bayesglasso",
        description="Block Gibbs samplers for the Bayesian adaptive graphical "
                    "LASSO with positive-definiteness auditing.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_scenario_flags(sp, burnin_default, draws_default):
        sp.add_argument("--design", required=True, choices=DESIGN_KINDS)
        sp.add_argument("--p", required=True, type=int, help="number of variables")
        sp.add_argument("--n", required=True, type=int, help="sample size")
        sp.add_argument("--sampler", required=True, choices=SAMPLER_KINDS)
        sp.add_argument("--burnin", type=int, default=burnin_default)
        sp.add_argument("--draws", type=int, default=draws_default)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--r", type=float, default=1e-2)
        sp.add_argument("--s", type=float, default=1e-6)
        sp.add_argument("--out", required=True, help="output directory")

    sim = sub.add_parser("simulate", help="replicated simulation campaign")
    common_scenario_flags(sim, 5000, 10000)
    sim.add_argument("--reps", type=int, default=50)
    sim.add_argument("--threshold", type=float, default=1e-3)
    sim.add_argument("--mcc-as-printed", action="store_true",
                     help="use the misprinted MCC denominator")
    sim.add_argument("--jobs", type=int, default=1,
                     help="replication worker processes")

    fit = sub.add_parser("fit", help="fit a user-supplied CSV data matrix")
    fit.add_argument("data", help="CSV file, rows = observations")
    fit.add_argument("--sampler", required=True, choices=SAMPLER_KINDS)
    fit.add_argument("--burnin", type=int, default=5000)
    fit.add_argument("--draws", type=int, default=10000)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--r", type=float, default=1e-2)
    fit.add_argument("--s", type=float, default=1e-6)
    fit.add_argument("--standardize", action="store_true",
                     help="center and scale each column before fitting")
    fit.add_argument("--out", required=True)

    aud = sub.add_parser("audit", help="violation counting only")
    common_scenario_flags(aud, 0, 1000)

    return parser


def _scenario_from_args(args, replications=1):
    return ScenarioConfig(
        design=args.design, p=args.p, n=args.n, sampler=args.sampler,
        burn_in=args.burnin, draws=args.draws,
        replications=getattr(args, "reps", replications),
        r=args.r, s=args.s,
        threshold=getattr(args, "threshold", 1e-3),
        seed=args.seed,
        mcc_as_printed=getattr(args, "mcc_as_printed", False),
        jobs=getattr(args, "jobs", 1),
    )


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(_scenario_from_args(args), args.out)
        if args.command == "audit":
            return cmd_audit(_scenario_from_args(args), args.out)
        return cmd_fit(
            args.data, args.sampler, args.out,
            burn_in=args.burnin, draws=args.draws, seed=args.seed,
            r=args.r, s=args.s, standardize=args.standardize)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
