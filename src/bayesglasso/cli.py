"""Command-line front end: simulation campaigns and real-data fits.

Two commands:

* ``simulate`` runs a replicated scenario (design, p, n, sampler) and
  writes per-replication scores, pooled aggregates and the violation
  audit, pooled and per replication.
* ``fit`` ingests a CSV data matrix, runs one chain and writes the
  posterior mean (raw and unit-diagonal scaled) plus the audit.

Each command's settings are one dataclass, :class:`ScenarioConfig` or
:class:`FitConfig`.  Both extend :class:`RunConfig`, which declares the
settings they share (sampler, burn_in, draws, r, s, seed) with
:class:`~bayesglasso.sampler.ChainConfig`'s defaults and checks them by
building its ChainConfig.  A config checks itself once, when it is made,
and raises :class:`ConfigError` for an invalid setting, so a bad setting
fails before any output is written.  Each flag's argparse ``dest`` is its
field name, and the parser states no defaults: a flag left out is absent
from the parsed namespace, so :func:`main` builds a config from the
parsed flags as they are and the config's own defaults fill in the rest.
Each output directory's manifest is that config as a dict (fit adds the
data's n and p), with each numpy scalar written as the Python number it
holds; replications.csv has the columns of its rows and audit.json the
fields of :class:`~bayesglasso.sampler.ViolationAudit`.
Wall-clock numbers go to a separate timing file so that everything else
is byte-identical across reruns with the same seed.

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
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .designs import DESIGN_KINDS, GraphDesign, build_design, scatter_matrix, simulate_data
from .distributions import RngStream
from .matrixcore import save_matrix_csv
from .metrics import (StructureScores, adjacency_from_estimate, frobenius_loss,
                      scores_from_counts, stein_loss, structure_scores, unit_diag_scale)
from .sampler import SAMPLER_KINDS, ChainConfig, ViolationAudit, check_integer, run_chain

REPLICATION_COLUMNS = [
    "design", "p", "n", "sampler", "replication", "stein", "frobenius",
    *(f.name for f in fields(StructureScores)),
]

# Stream id offset for the bootstrap resampler so it never collides with a
# replication stream.
_BOOTSTRAP_STREAM = 2 ** 32
_BOOTSTRAP_RESAMPLES = 1000


class ConfigError(ValueError):
    pass


@contextmanager
def _config_errors():
    """Raise a ValueError from a settings check as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


@dataclass(kw_only=True)
class RunConfig:
    """The settings both commands share: the chain's settings and its seed."""

    sampler: str
    burn_in: int = ChainConfig.burn_in
    draws: int = ChainConfig.draws
    r: float = ChainConfig.r
    s: float = ChainConfig.s
    seed: int = 0

    def __post_init__(self):
        with _config_errors():
            self.chain_config()
            # numpy's SeedSequence takes only non-negative integers, and
            # RngStream would run a float seed as its integer part.
            check_integer("seed", self.seed, 0)

    def chain_config(self):
        return ChainConfig(kind=self.sampler, burn_in=self.burn_in,
                           draws=self.draws, r=self.r, s=self.s)


@dataclass(kw_only=True)
class ScenarioConfig(RunConfig):
    design: str
    p: int
    n: int
    replications: int = 50
    threshold: float = 1e-3
    jobs: int = 1

    def __post_init__(self):
        with _config_errors():
            GraphDesign(kind=self.design, p=self.p)
        super().__post_init__()
        with _config_errors():
            for name in ("n", "replications", "jobs"):
                check_integer(name, getattr(self, name), 1)
        # Written so that NaN, which fails every comparison, is rejected.
        if not 0.0 < self.threshold < math.inf:
            raise ConfigError("threshold must be finite and positive")


@dataclass(kw_only=True)
class FitConfig(RunConfig):
    data_path: str
    standardize: bool = False

    def __post_init__(self):
        # The manifest records the path as given; JSON needs it as a str.
        self.data_path = str(self.data_path)
        super().__post_init__()


def ingest_csv(path, standardize=False):
    """Read an n x p numeric CSV into an array, skipping a single header row.

    A first row that is not all numeric is a header; it must have one label
    per column.  A first row with an empty cell has a missing label or a
    missing value, so it is read as data and rejected like any other row
    with a blank.  All values must be finite; standardization centers each
    column and scales it to unit sample standard deviation (n-1
    denominator).  A UTF-8 byte-order mark, as spreadsheet "CSV UTF-8"
    exports write, is dropped before the first cell is read.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        raw = [(lineno, row) for lineno, row in enumerate(csv.reader(fh), start=1)
               if len(row) > 0]
    if not raw:
        raise ValueError(f"{path}: empty file")

    first = raw[0][1]
    header = all(c.strip() for c in first) and not all(_is_number(c) for c in first)
    if header:
        raw = raw[1:]
        if not raw:
            raise ValueError(f"{path}: header row but no data")

    width = len(raw[0][1])
    if header and len(first) != width:
        raise ValueError(f"{path}: header has {len(first)} labels for {width} columns")
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

    if standardize:
        if values.shape[0] < 2:
            raise ValueError("standardization needs at least 2 rows")
        sd = values.std(axis=0, ddof=1)
        zero = np.nonzero(sd == 0.0)[0]
        if zero.size:
            raise ValueError(f"column {zero[0] + 1} has zero variance")
        values = (values - values.mean(axis=0)) / sd

    return values


def _is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def run_replication(scenario, rep):
    """One simulate replication: data, chain, losses, structure scores.

    The replication owns RngStream(seed, stream_id=rep): it simulates the
    data and then drives the chain, so results do not depend on execution
    order or worker count.
    """
    model = build_design(GraphDesign(kind=scenario.design, p=scenario.p))
    rng = RngStream(scenario.seed, stream_id=rep)
    Y = simulate_data(model, scenario.n, rng)
    out = run_chain(scatter_matrix(Y), scenario.n, scenario.chain_config(), rng)
    est = out.omega_mean
    adj = adjacency_from_estimate(est, scenario.threshold)
    sc = structure_scores(adj, model.adjacency_true)
    row = {
        "design": scenario.design,
        "p": scenario.p,
        "n": scenario.n,
        "sampler": scenario.sampler,
        "replication": rep,
        "stein": stein_loss(est, model.omega_true),
        "frobenius": frobenius_loss(est, model.omega_true),
        **asdict(sc),
    }
    return row, {"replication": rep, **_audit_summary(out.audit)}, out.elapsed_seconds


def _replication_task(scenario, rep):
    try:
        row, audit, elapsed = run_replication(scenario, rep)
        return rep, row, audit, elapsed, None
    except Exception as exc:  # recorded, campaign continues
        return rep, None, None, 0.0, f"{type(exc).__name__}: {exc}"


def _bootstrap_se_of_median(values, seed):
    """SE of the median via bootstrap over replications; NaN, written as
    null, for fewer than two, where resampling has no spread to measure."""
    vals = np.asarray(values, dtype=float)
    if vals.size < 2:
        return math.nan
    gen = RngStream(seed, _BOOTSTRAP_STREAM)
    idx = gen.integers(0, vals.size, size=(_BOOTSTRAP_RESAMPLES, vals.size))
    meds = np.median(vals[idx], axis=1)
    return float(np.std(meds, ddof=1))


def _open_run(out_dir, command, config):
    """Make the output directory and write its manifest; returns its Path.

    The manifest's text is made first, so a config that JSON cannot hold
    leaves no directory behind.
    """
    text = _json_text({"command": command, "version": __version__, "config": config})
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").write_text(text)
    return out


def cmd_simulate(scenario, out_dir):
    out = _open_run(out_dir, "simulate", asdict(scenario))

    t0 = time.perf_counter()
    reps = range(scenario.replications)
    # The pool starts every worker up front; extra ones would sit idle.
    workers = min(scenario.jobs, scenario.replications)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replication_task, [scenario] * scenario.replications, reps))
    else:
        results = [_replication_task(scenario, rep) for rep in reps]

    rows, audits, failures, rep_seconds = [], [], [], {}
    for rep, row, audit, elapsed, err in results:
        if err is None:
            rows.append(row)
            audits.append(audit)
            rep_seconds[str(rep)] = elapsed
        else:
            failures.append({"replication": rep, "seed": scenario.seed,
                             "stream_id": rep, "error": err})
            print(f"replication {rep} failed: {err}", file=sys.stderr)

    _write_replication_csv(out / "replications.csv", rows)
    _write_json(out / "aggregate.json", _aggregate(scenario, rows, failures))
    _write_json(out / "audit.json", _pool_audits(audits))
    _write_json(out / "timing.json", {
        "total_seconds": time.perf_counter() - t0,
        "replication_seconds": rep_seconds,
    })
    return 1 if failures else 0


def _write_replication_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, REPLICATION_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


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
            sum(r["fp"] for r in rows), sum(r["fn"] for r in rows))
        agg["structure"] = asdict(pooled)
    return agg


def _audit_summary(audit):
    """The audit.json form of a ViolationAudit: its fields and its ratio."""
    return {**asdict(audit), "violation_ratio_percent": audit.ratio_percent}


def _pool_audits(audits):
    pooled = ViolationAudit(
        updates_total=sum(a["updates_total"] for a in audits),
        violations=sum(a["violations"] for a in audits),
        sigma_drift_max=max([0.0, *(a["sigma_drift_max"] for a in audits)]))
    return {**_audit_summary(pooled), "per_replication": audits}


def cmd_fit(config, out_dir):
    """One chain on the data of the CSV file at config.data_path.

    The output directory is made once the chain has run, so data that the
    chain rejects, or a chain that fails, writes nothing.  timing.json's
    total_seconds times the whole command, ingest and writes included, as
    simulate's does; chain_seconds times the chain alone.
    """
    t0 = time.perf_counter()
    values = ingest_csv(config.data_path, standardize=config.standardize)
    n, p = values.shape
    if n < 2:
        raise ValueError(f"need at least 2 rows of data, found {n}")
    if p < 2:
        raise ValueError(f"need at least 2 columns of data, found {p}")

    result = run_chain(scatter_matrix(values), n, config.chain_config(), RngStream(config.seed))
    out = _open_run(out_dir, "fit", {**asdict(config), "n": n, "p": p})
    save_matrix_csv(result.omega_mean, out / "posterior_mean.csv")
    save_matrix_csv(unit_diag_scale(result.omega_mean),
                    out / "posterior_mean_unit_diag.csv")
    _write_json(out / "audit.json", _audit_summary(result.audit))
    _write_json(out / "timing.json", {
        "total_seconds": time.perf_counter() - t0,
        "chain_seconds": result.elapsed_seconds,
    })
    return 0


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_sanitize(v) for v in obj]
    # A config may hold numpy scalars: each is written as the Python number
    # it holds.
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _json_text(obj):
    return json.dumps(_sanitize(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_json(path, obj):
    # The text is made before the file is opened, so an object JSON cannot
    # hold leaves no file behind.
    Path(path).write_text(_json_text(obj))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bayesglasso",
        description="Block Gibbs samplers for the Bayesian adaptive graphical "
                    "LASSO with positive-definiteness auditing.")
    sub = parser.add_subparsers(dest="command", required=True)

    def chain_flags(sp):
        sp.add_argument("--sampler", required=True, choices=SAMPLER_KINDS)
        sp.add_argument("--burnin", dest="burn_in", metavar="BURNIN", type=int)
        sp.add_argument("--draws", type=int)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--r", type=float)
        sp.add_argument("--s", type=float)
        sp.add_argument("--out", required=True, help="output directory")

    # A flag left out stays out of the namespace, so the config's default
    # applies.
    sim = sub.add_parser("simulate", help="replicated simulation campaign",
                         argument_default=argparse.SUPPRESS)
    sim.add_argument("--design", required=True, choices=DESIGN_KINDS)
    sim.add_argument("--p", required=True, type=int, help="number of variables")
    sim.add_argument("--n", required=True, type=int, help="sample size")
    chain_flags(sim)
    sim.add_argument("--reps", dest="replications", metavar="REPS", type=int)
    sim.add_argument("--threshold", type=float)
    sim.add_argument("--jobs", type=int, help="replication worker processes")

    fit = sub.add_parser("fit", help="fit a user-supplied CSV data matrix",
                         argument_default=argparse.SUPPRESS)
    fit.add_argument("data_path", metavar="data", help="CSV file, rows = observations")
    chain_flags(fit)
    fit.add_argument("--standardize", action="store_true",
                     help="center and scale each column before fitting")

    return parser


def main(argv=None):
    args = vars(build_parser().parse_args(argv))
    command, out_dir = args.pop("command"), args.pop("out")
    try:
        if command == "fit":
            return cmd_fit(FitConfig(**args), out_dir)
        return cmd_simulate(ScenarioConfig(**args), out_dir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
