import csv
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from bayesglasso import cli
from bayesglasso.cli import (
    REPLICATION_COLUMNS,
    FitConfig,
    ScenarioConfig,
    build_parser,
    cmd_fit,
    cmd_simulate,
    ingest_csv,
    main,
)
from bayesglasso.matrixcore import pd_check
from bayesglasso.metrics import scores_from_counts
from bayesglasso.sampler import SAMPLER_KINDS, ViolationAudit


# ---------------------------------------------------------------- ingestion

def test_ingest_basic(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2\n3,4\n")
    assert np.array_equal(ingest_csv(path), [[1.0, 2.0], [3.0, 4.0]])
    # A UTF-8 byte-order mark, as spreadsheet "CSV UTF-8" exports write, once
    # made the first cell non-numeric, so the first observation was taken as
    # a header and dropped.
    path.write_bytes(b"\xef\xbb\xbf1.0,2.0\n3.0,4.5\n5.0,6.0\n")
    assert np.array_equal(ingest_csv(path), [[1.0, 2.0], [3.0, 4.5], [5.0, 6.0]])


def test_ingest_header_detected(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    assert np.array_equal(ingest_csv(path), [[1.0, 2.0], [3.0, 4.0]])
    path.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n3,4\n")
    assert np.array_equal(ingest_csv(path), [[1.0, 2.0], [3.0, 4.0]])
    path.write_text("a,b,c\n1,2\n3,4\n")
    with pytest.raises(ValueError, match="header has 3 labels for 2 columns"):
        ingest_csv(path)
    # The header is checked as soon as the data's width is known, before
    # any cell is read.
    path.write_text("a,b,c\n1,oops\n3,4\n")
    with pytest.raises(ValueError, match="header has 3 labels for 2 columns"):
        ingest_csv(path)


@pytest.mark.parametrize("text,standardize,match", [
    pytest.param("1,2\n3,4,5\n", False, "row 2", id="ragged-row"),
    pytest.param("1,2\n3,oops\n", False, "row 2, column 2", id="non-numeric"),
    # A blank cell in row 1 raises exactly as it does in row 2; it used to
    # make row 1 a header and drop it without a word.
    *(pytest.param(text, False, f"row {row}, column [12]: not numeric", id=f"blank-cell-{k}")
      for k, (text, row) in enumerate((("1.0,,3.0\n4,5,6\n7,8,9\n", 1),
                                       ("1,2,3\n4.0,,6.0\n7,8,9\n", 2),
                                       ("a,,c\n1,2,3\n", 1), (" ,2,3\n4,5,6\n", 1)))),
    pytest.param("1,2\nnan,4\n", False, "non-finite", id="nan"),
    pytest.param("1,inf\n2,4\n", False, "non-finite", id="inf"),
    pytest.param("", False, "empty", id="empty-file"),
    pytest.param("a,b\n", False, "no data", id="header-only"),
    pytest.param("1,2\n1,4\n", True, "zero variance", id="standardize-zero-variance"),
])
def test_ingest_rejects_bad_input(text, standardize, match, tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=match):
        ingest_csv(path, standardize)


def test_ingest_standardize_hand_oracle(tmp_path):
    # column (1, 3): mean 2, sample sd sqrt(2) -> (-0.7071..., +0.7071...)
    path = tmp_path / "d.csv"
    path.write_text("1,5\n3,9\n")
    values = ingest_csv(path, standardize=True)
    expect = 0.7071067811865475
    assert abs(values[0, 0] + expect) < 1e-12
    assert abs(values[1, 0] - expect) < 1e-12
    assert np.allclose(values.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(values.std(axis=0, ddof=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------- simulate

def small_scenario(**kw):
    base = dict(design="ar1", p=4, n=12, sampler="hrs", burn_in=3, draws=6,
                replications=2, seed=123)
    base.update(kw)
    return ScenarioConfig(**base)


def test_simulate_writes_artifacts_and_is_deterministic(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert cmd_simulate(small_scenario(), out1) == 0
    assert cmd_simulate(small_scenario(), out2) == 0
    for name in ("manifest.json", "replications.csv", "aggregate.json",
                 "audit.json", "timing.json"):
        assert (out1 / name).exists()
    for name in ("manifest.json", "replications.csv", "aggregate.json",
                 "audit.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_simulate_aggregate_recomputable_from_csv(tmp_path):
    for reps in (3, 1):
        out = tmp_path / f"run{reps}"
        cmd_simulate(small_scenario(replications=reps), out)
        with open(out / "replications.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == reps
        agg = json.loads((out / "aggregate.json").read_text())

        for key in ("stein", "frobenius"):
            med = float(np.median([float(r[key]) for r in rows]))
            assert med == agg[key]["median"]
            # One replication has no spread to resample: its SE is unknown.
            if reps == 1:
                assert agg[key]["se"] is None
            else:
                assert agg[key]["se"] > 0.0

        pooled = scores_from_counts(
            sum(int(r["tp"]) for r in rows), sum(int(r["tn"]) for r in rows),
            sum(int(r["fp"]) for r in rows), sum(int(r["fn"]) for r in rows))
        assert agg["structure"]["tp"] == pooled.tp
        assert agg["structure"]["specificity"] == pooled.specificity
        assert agg["structure"]["sensitivity"] == pooled.sensitivity
        assert agg["structure"]["mcc"] == pooled.mcc


def test_simulate_audit_pools_the_replications(tmp_path, monkeypatch):
    # bgs records violations in each of these replications, so the pooled
    # counts are checked on nonzero values.
    out = tmp_path / "run"
    assert cmd_simulate(small_scenario(sampler="bgs", design="circle", p=8,
                                       replications=3), out) == 0
    audit = json.loads((out / "audit.json").read_text())
    per_rep = audit.pop("per_replication")
    assert [a["replication"] for a in per_rep] == [0, 1, 2]
    assert all(a["violations"] > 0 for a in per_rep)
    assert all(0.0 < a["sigma_drift_max"] < 1e-9 for a in per_rep)
    updates = sum(a["updates_total"] for a in per_rep)
    violations = sum(a["violations"] for a in per_rep)
    assert audit == {"updates_total": updates, "violations": violations,
                     "sigma_drift_max": max(a["sigma_drift_max"] for a in per_rep),
                     "violation_ratio_percent": 100.0 * violations / updates}

    # A campaign in which every replication fails pools no audit.
    def fail(*args):
        raise RuntimeError("column 3 failed at stage beta")

    monkeypatch.setattr(cli, "run_chain", fail)
    assert cmd_simulate(small_scenario(), tmp_path / "failed") == 1
    assert json.loads((tmp_path / "failed" / "audit.json").read_text()) == {
        "updates_total": 0, "violations": 0, "sigma_drift_max": 0.0,
        "violation_ratio_percent": 0.0, "per_replication": []}


def test_simulate_csv_schema(tmp_path):
    out = tmp_path / "run"
    cmd_simulate(small_scenario(), out)
    with open(out / "replications.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["design", "p", "n", "sampler", "replication", "stein",
                      "frobenius", "tp", "tn", "fp", "fn", "specificity",
                      "sensitivity", "mcc"]


def test_replication_csv_rejects_a_key_outside_its_columns(tmp_path):
    # The rows are written as they are, so a score added to a row but not
    # to REPLICATION_COLUMNS must fail, not be dropped.
    row = dict.fromkeys(REPLICATION_COLUMNS, 0)
    cli._write_replication_csv(tmp_path / "ok.csv", [row])
    with pytest.raises(ValueError, match="not in fieldnames: 'auc'"):
        cli._write_replication_csv(tmp_path / "bad.csv", [{**row, "auc": 0.5}])


@pytest.mark.parametrize("kind", SAMPLER_KINDS)
def test_simulate_parallel_jobs_match_serial(tmp_path, kind):
    # Only timing.json and the manifest's jobs may differ between the two.
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    cmd_simulate(small_scenario(sampler=kind, replications=3), serial)
    cmd_simulate(small_scenario(sampler=kind, replications=3, jobs=2), parallel)
    for name in ("replications.csv", "aggregate.json", "audit.json"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes(), name


@pytest.fixture
def serial_pool(monkeypatch):
    """A stand-in pool that records its size and its workers' start method
    and maps serially, so no worker process is started; returns the
    (size, start method) pairs it was opened with."""
    opened = []

    class SerialPool:
        def __init__(self, max_workers, mp_context):
            opened.append((max_workers, mp_context.get_start_method()))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # cmd_simulate imports the pool class from concurrent.futures as it
    # opens a pool, so the stand-in replaces it there.
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    return opened


def test_simulate_pool_has_no_idle_workers(tmp_path, serial_pool):
    out = tmp_path / "run"
    cmd_simulate(small_scenario(replications=2, jobs=64), out)
    assert serial_pool == [(2, "spawn")]
    assert json.loads((out / "manifest.json").read_text())["config"]["jobs"] == 64


def test_simulate_records_a_failed_replication_and_scores_the_rest(tmp_path, monkeypatch,
                                                                    capsys):
    run_chain = cli.run_chain
    calls = []

    def fail_second_chain(*args):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("column 3 failed at stage beta")
        return run_chain(*args)

    monkeypatch.setattr(cli, "run_chain", fail_second_chain)
    out = tmp_path / "run"
    assert cmd_simulate(small_scenario(replications=3), out) == 1
    error = "RuntimeError: column 3 failed at stage beta"
    err = capsys.readouterr().err
    assert f"replication 1 failed: {error}" in err
    # The traceback goes before it, down to the frame that raised.
    assert err.startswith("Traceback") and "in fail_second_chain" in err
    agg = json.loads((out / "aggregate.json").read_text())
    assert agg["replications_completed"] == 2
    assert agg["failures"] == [{"replication": 1, "seed": 123, "stream_id": 1, "error": error}]
    with open(out / "replications.csv", newline="") as fh:
        assert [row["replication"] for row in csv.DictReader(fh)] == ["0", "2"]
    audit = json.loads((out / "audit.json").read_text())
    assert [a["replication"] for a in audit["per_replication"]] == [0, 2]
    timing = json.loads((out / "timing.json").read_text())
    assert set(timing["replication_seconds"]) == {"0", "2"}


def test_scenario_validation():
    # A config checks itself as it is made.
    with pytest.raises(ValueError):
        small_scenario(design="block", p=5)  # odd block
    with pytest.raises(ValueError):
        small_scenario(sampler="mh")
    with pytest.raises(ValueError):
        small_scenario(r=0.0)
    with pytest.raises(ValueError):
        small_scenario(replications=0)
    # 0 < True < inf, so a bool threshold once scored edges at 1.0.
    with pytest.raises(ValueError, match="threshold must be a finite and positive number, got True"):
        small_scenario(threshold=True)
    small_scenario()


@pytest.mark.parametrize("name,value", [("n", 2.5), ("replications", 2.0), ("jobs", 1.5),
                                        ("seed", 1.5), ("n", True), ("replications", True),
                                        ("jobs", True), ("seed", True)])
def test_scenario_integer_fields_reject_floats_and_bools(name, value, tmp_path):
    # These once passed: a float n or seed ran as its integer part, while the
    # manifest recorded the float; bool subclasses int.
    with pytest.raises(ValueError, match=f"{name} must be an integer >= [01], got {value!r}"):
        small_scenario(**{name: value})
    if name == "seed":
        data = tmp_path / "data.csv"
        write_synthetic(data)
        with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {value!r}"):
            FitConfig(data_path=data, sampler="bgs", seed=value)


def test_fit_config_standardize_must_be_a_bool(tmp_path):
    # A truthy string once standardized the data and went into the manifest
    # as given.
    data = tmp_path / "data.csv"
    write_synthetic(data)
    for value in ("no", 1):
        with pytest.raises(ValueError, match=f"standardize must be a bool, got {value!r}"):
            FitConfig(data_path=data, sampler="bgs", standardize=value)


def test_manifest_writes_numpy_scalars_as_python_numbers(tmp_path):
    # Every setting given as a numpy scalar writes the manifest that the
    # same setting in Python numbers writes, byte for byte.  A numpy integer
    # once failed the JSON dump after the output directory was made.
    ints = {"p": 6, "n": 10, "burn_in": 2, "draws": 3, "replications": 2, "jobs": 1,
            "seed": 4}
    floats = {"r": 0.5, "s": 0.25, "threshold": 0.05}
    as_numpy = {**{k: np.int64(v) for k, v in ints.items()},
                **{k: np.float64(v) for k, v in floats.items()}}
    for tag, values in (("python", {**ints, **floats}), ("numpy", as_numpy)):
        assert cmd_simulate(ScenarioConfig(design="circle", sampler="bgs", **values),
                            tmp_path / f"simulate-{tag}") == 0
    data = tmp_path / "data.csv"
    write_synthetic(data, n=8, p=3)
    chain = ("burn_in", "draws", "seed", "r", "s")
    for tag, values, standardize in (("python", {**ints, **floats}, True),
                                     ("numpy", as_numpy, np.True_)):
        assert cmd_fit(FitConfig(data_path=data, sampler="hrs", standardize=standardize,
                                 **{k: values[k] for k in chain}),
                       tmp_path / f"fit-{tag}") == 0
    for command in ("simulate", "fit"):
        python, numpy = ((tmp_path / f"{command}-{tag}" / "manifest.json").read_bytes()
                         for tag in ("python", "numpy"))
        assert python == numpy, command
    assert json.loads(python)["config"]["standardize"] is True


def test_json_that_cannot_be_written_leaves_no_file(tmp_path):
    # The text is made before the file is opened: a failing dump used to
    # leave a truncated file behind.
    path = tmp_path / "x.json"
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._write_json(path, {"bad": {1, 2}})
    assert not path.exists()
    out = tmp_path / "run"
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._open_run(out, "fit", {"bad": {1, 2}})
    assert not out.exists()


# ---------------------------------------------------------------- fit

def write_synthetic(path, n=50, p=3, seed=5):
    rng = np.random.default_rng(seed)
    np.savetxt(path, rng.standard_normal((n, p)), delimiter=",", fmt="%.17g")


@pytest.mark.parametrize("n,p,burn_in,draws,seed", [(50, 3, 10, 30, 1), (5, 10, 5, 15, 2)],
                         ids=["n50-p3", "n5-p10"])
def test_fit_completes_clean(n, p, burn_in, draws, seed, tmp_path):
    data = tmp_path / "data.csv"
    write_synthetic(data, n=n, p=p)
    out = tmp_path / "fit"
    rc = cmd_fit(FitConfig(data_path=data, sampler="hrs", burn_in=burn_in, draws=draws,
                           seed=seed), out)
    assert rc == 0
    mean = np.loadtxt(out / "posterior_mean.csv", delimiter=",", ndmin=2)
    assert mean.shape == (p, p)
    pd_check(mean)
    scaled = np.loadtxt(out / "posterior_mean_unit_diag.csv", delimiter=",", ndmin=2)
    assert np.allclose(np.diagonal(scaled), 1.0)
    audit = json.loads((out / "audit.json").read_text())
    assert audit["violations"] == 0
    assert 0.0 <= audit["sigma_drift_max"] < 1e-8


def test_fit_deterministic(tmp_path):
    data = tmp_path / "data.csv"
    write_synthetic(data, n=20, p=4)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg = FitConfig(data_path=data, sampler="bgs", burn_in=4, draws=10, seed=9)
    cmd_fit(cfg, out1)
    cmd_fit(cfg, out2)
    assert (out1 / "posterior_mean.csv").read_bytes() == \
        (out2 / "posterior_mean.csv").read_bytes()


def test_fit_timing_covers_the_command_and_the_chain(tmp_path, monkeypatch):
    # total_seconds times the whole command, as simulate's does, so a slow
    # ingest shows there and not in chain_seconds.
    data = tmp_path / "data.csv"
    write_synthetic(data, n=20, p=4)
    ingest = cli.ingest_csv

    def slow_ingest(*args, **kwargs):
        time.sleep(0.05)
        return ingest(*args, **kwargs)

    monkeypatch.setattr(cli, "ingest_csv", slow_ingest)
    out = tmp_path / "fit"
    cmd_fit(FitConfig(data_path=data, sampler="bgs", burn_in=2, draws=5, seed=3), out)
    timing = json.loads((out / "timing.json").read_text())
    assert set(timing) == {"total_seconds", "chain_seconds"}
    assert 0.0 < timing["chain_seconds"] <= timing["total_seconds"]
    assert timing["total_seconds"] >= timing["chain_seconds"] + 0.05


def test_module_route_exits_2_on_a_config_error(tmp_path):
    # README's no-install route, `PYTHONPATH=src python -m bayesglasso.cli`,
    # runs the module's __main__ block, which must pass main's status on.
    src = Path(cli.__file__).resolve().parents[1]
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "bayesglasso.cli", "simulate", "--design", "circle", "--p", "6",
         "--n", "20", "--sampler", "bgs", "--threshold", "nan", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "configuration error: threshold" in proc.stderr
    assert not out.exists()


# ---------------------------------------------------------------- audit.json

@pytest.mark.parametrize("kind", SAMPLER_KINDS)
def test_one_replication_audit_is_that_replications_audit(kind, tmp_path):
    # The README's recipe for one chain's violation counts: simulate --reps 1
    # --burnin 0, read at the top level of audit.json.
    out = tmp_path / "run"
    rc = main(["simulate", "--design", "star", "--p", "6", "--n", "5", "--sampler", kind,
               "--reps", "1", "--burnin", "0", "--draws", "40", "--seed", "4",
               "--out", str(out)])
    assert rc == 0
    audit = json.loads((out / "audit.json").read_text())
    (rep0,) = audit.pop("per_replication")
    assert rep0.pop("replication") == 0
    assert audit == rep0
    assert set(audit) == {"updates_total", "violations", "violation_ratio_percent",
                          "sigma_drift_max"}
    assert audit["updates_total"] == 6 * 40


def test_audit_json_holds_every_violation_audit_field(tmp_path):
    keys = {f.name for f in fields(ViolationAudit)} | {"violation_ratio_percent"}
    data = tmp_path / "data.csv"
    write_synthetic(data, n=6, p=3)
    cmd_fit(FitConfig(data_path=data, sampler="bgs", burn_in=1, draws=2), tmp_path / "fit")
    assert set(json.loads((tmp_path / "fit" / "audit.json").read_text())) == keys
    cmd_simulate(small_scenario(replications=1), tmp_path / "simulate")
    audit = json.loads((tmp_path / "simulate" / "audit.json").read_text())
    assert set(audit) == keys | {"per_replication"}


# ---------------------------------------------------------------- manifests

def test_main_manifest_config_echoes_every_flag(tmp_path, serial_pool):
    # Every flag at a value other than its default, read back from the
    # manifest under its config name.  --jobs 2 maps on the serial stand-in
    # pool, so no worker process starts.
    chain = {"burn_in": 2, "draws": 3, "r": 0.5, "s": 0.25, "seed": 7}
    chain_argv = ["--burnin", "2", "--draws", "3", "--r", "0.5", "--s", "0.25", "--seed", "7"]
    out = tmp_path / "simulate"
    rc = main(["simulate", "--design", "circle", "--p", "5", "--n", "9", "--sampler", "hrs",
               *chain_argv, "--reps", "2", "--threshold", "0.05", "--jobs", "2",
               "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["config"] == {"design": "circle", "p": 5, "n": 9, "sampler": "hrs",
                                  **chain, "replications": 2, "threshold": 0.05, "jobs": 2}
    assert serial_pool == [(2, "spawn")]

    data = tmp_path / "data.csv"
    write_synthetic(data, n=6, p=4)
    out = tmp_path / "fit"
    rc = main(["fit", str(data), "--sampler", "bgs", *chain_argv, "--standardize",
               "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "fit"
    assert manifest["config"] == {"data_path": str(data), "sampler": "bgs", **chain,
                                  "standardize": True, "n": 6, "p": 4}


# ---------------------------------------------------------------- main/exits

def test_parser_leaves_every_default_to_the_config():
    # Only the flags given reach the namespace; every other setting takes
    # its config's default.
    parser = build_parser()
    args = vars(parser.parse_args(["simulate", "--design", "ar1", "--p", "4", "--n", "10",
                                   "--sampler", "bgs", "--out", "o"]))
    assert args == {"command": "simulate", "out": "o", "design": "ar1", "p": 4, "n": 10,
                    "sampler": "bgs"}
    del args["command"], args["out"]
    assert ScenarioConfig(**args) == ScenarioConfig(design="ar1", p=4, n=10, sampler="bgs")

    args = vars(parser.parse_args(["fit", "data.csv", "--sampler", "hrs", "--out", "o"]))
    assert args == {"command": "fit", "out": "o", "data_path": "data.csv", "sampler": "hrs"}
    del args["command"], args["out"]
    assert FitConfig(**args) == FitConfig(data_path="data.csv", sampler="hrs")


def test_main_config_error_exit_2(tmp_path):
    small = ["--design", "ar1", "--p", "4", "--n", "10", "--sampler", "bgs",
             "--burnin", "1", "--draws", "3", "--reps", "1"]
    # A NaN threshold passed a "<= 0" test and scored an empty graph, and an
    # infinite one did the same; both must stop before any output.  Star at
    # p = 101, where its precision matrix is singular, once failed every
    # replication and exited 1 after writing all five files.
    for k, args in enumerate([["--design", "block", "--p", "5", "--n", "10", "--sampler", "hrs"],
                              ["--design", "star", "--p", "101", "--n", "20", "--sampler", "bgs",
                               "--reps", "2"],
                              small + ["--threshold", "nan"],
                              small + ["--threshold", "inf"]]):
        out = tmp_path / f"x{k}"
        rc = main(["simulate"] + args + ["--out", str(out)])
        assert rc == 2, args
        assert not out.exists(), args


@pytest.mark.parametrize("flag,value", [("--r", "inf"), ("--s", "inf"), ("--r", "nan"),
                                        ("--s", "nan"), ("--seed", "-1"), ("--s", "1e-300")])
@pytest.mark.parametrize("command", ["simulate", "fit"])
def test_main_bad_chain_flag_is_config_error_before_output(command, flag, value, tmp_path):
    # A non-finite r or s used to run with every draw clamped or fail
    # mid-chain, and a negative seed failed every replication with exit 1
    # after the manifest was written.  An s below S_FLOOR overflowed in the
    # beta draw, with only a warning.
    out = tmp_path / "out"
    if command == "fit":
        data = tmp_path / "data.csv"
        write_synthetic(data)
        args = ["fit", str(data)]
    else:
        args = [command, "--design", "ar1", "--p", "4", "--n", "10"]
    rc = main(args + ["--sampler", "bgs", "--burnin", "1", "--draws", "2",
                      flag, value, "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def all_zero_column_csv():
    """8 x 4 standard normal data whose column 3 is all zero, as CSV text."""
    values = np.random.default_rng(1).standard_normal((8, 4))
    values[:, 3] = 0.0
    text = io.StringIO()
    np.savetxt(text, values, delimiter=",")
    return text.getvalue()


SHORT_CHAIN = ["--burnin", "1", "--draws", "2"]


@pytest.mark.parametrize("text,flags,message", [
    pytest.param("1,2\n3,oops\n", ["--sampler", "hrs", *SHORT_CHAIN],
                 "row 2, column 2: not numeric", id="non-numeric"),
    pytest.param(None, ["--sampler", "hrs"], "No such file or directory", id="missing-file"),
    pytest.param("1,2,3\n", ["--standardize", "--sampler", "bgs", *SHORT_CHAIN],
                 "need at least 2 rows of data, found 1", id="standardize-single-row"),
    pytest.param("1\n2\n3\n", ["--sampler", "bgs", *SHORT_CHAIN],
                 "need at least two variables", id="single-column"),
    # Its S_jj = 0 makes the posterior improper: the chain must refuse it
    # before drawing.
    *(pytest.param(all_zero_column_csv(),
                   ["--sampler", kind, "--burnin", "10", "--draws", "50", "--seed", "2"],
                   "variable 3 (0-based) has S_jj = 0.0", id=f"all-zero-column-{kind}")
      for kind in SAMPLER_KINDS),
])
def test_main_fit_data_error_exit_1(text, flags, message, tmp_path, capsys):
    # A data error ends fit with exit 1, naming it, and leaves no output
    # directory behind.
    data = tmp_path / "data.csv"
    if text is not None:
        data.write_text(text)
    out = tmp_path / "out"
    rc = main(["fit", str(data), *flags, "--out", str(out)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["simulate", "--design", "hexagon", "--p", "4", "--n", "10", "--sampler", "hrs"],
                 id="bad-design"),
    # simulate --reps 1 --burnin 0 writes the counts audit used to.
    pytest.param(["audit", "--design", "circle", "--p", "6", "--n", "12", "--sampler", "hrs",
                  "--draws", "20", "--seed", "4"], id="audit-is-not-a-command"),
])
def test_main_usage_error_exit_2(argv, tmp_path):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
