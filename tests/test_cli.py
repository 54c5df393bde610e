"""CLI runner: determinism, idempotence, error handling, aggregation."""

import contextlib
import csv
import dataclasses
import json
import os
import resource
import signal
import subprocess
import sys

import numpy as np
import pytest

import cumlab
from cumlab import cli, datagen
from cumlab.rng import generator, spawn_seed
from oracles import UNIF, run_config, write_config


SEARCH_CFG = {
    "experiment": "search-curve",
    "seed": 21,
    "d": 7,
    "theta": [0.5, 1.25],
    "beta": 10.0,
    "g": "rademacher",
    "runs": 6,
}
LR_CFG = {"experiment": "lr-curve", "seed": 1, "d": [8], "theta": [1.0], "beta": [1.0]}
LDLR_CFG = {"experiment": "ldlr-bounds", "seed": 1, "d": [8], "n": [20], "beta": [1.0]}
CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
# JSON that the decoder refuses for nesting deeper than the interpreter's stack
TOO_DEEP = "[" * 100_000 + "]" * 100_000


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_search_curve_deterministic_across_jobs(tmp_path):
    code, out1 = run_config(tmp_path / "a", SEARCH_CFG, "--jobs", "1")
    assert code == 0
    code, out2 = run_config(tmp_path / "b", SEARCH_CFG, "--jobs", "3")
    assert code == 0
    for name in ("success.csv", "success_rate.csv"):
        assert read_bytes(os.path.join(out1, name)) == read_bytes(os.path.join(out2, name))
    # idempotent overwrite
    assert run_config(out1, SEARCH_CFG, "--jobs", "2")[0] == 0
    assert read_bytes(os.path.join(out1, "success.csv")) == read_bytes(
        os.path.join(out2, "success.csv")
    )
    with open(os.path.join(out1, "success_rate.csv")) as fh:
        header = fh.readline().strip()
    assert header == "theta,success_rate,runs,d,beta,seed"


def test_manifest_contents(tmp_path):
    _, out = run_config(tmp_path / "m", SEARCH_CFG, "--jobs", "1")
    manifest = json.loads(read_bytes(os.path.join(out, "manifest.json")))
    assert manifest["experiment"] == "search-curve"
    assert manifest["seed"] == 21
    assert manifest["config"]["theta"] == [0.5, 1.25]
    assert manifest["metrics"] == ["success"]
    assert manifest["version"].startswith("cumlab-")
    assert len(manifest["point_seeds"]) == 2 * 6
    assert manifest["failed_points"] == 0


def child_env(env=None):
    """`env` (os.environ by default) with this process's cumlab package
    first on PYTHONPATH, for a child interpreter."""
    env = dict(os.environ if env is None else env)
    root = os.path.dirname(os.path.dirname(cumlab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


# Runs a command and prints its ru_maxrss from wait4 (KB), as the benchmark
# reads it.  A process starts with the max-RSS of the process it is forked
# from, so the command is started from this small interpreter, not from pytest.
MAXRSS_LAUNCHER = ("import os, sys; pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ); "
                   "_, status, usage = os.wait4(pid, 0); "
                   "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")


def launch_train_sweep(cfg, out, ballast_mb=0):
    """Run `train-sweep --jobs 2` from a launcher holding `ballast_mb` MB of
    written memory; returns the run's manifest and its wait4 max-RSS in MB."""
    launcher = f"ballast = b'x' * ({ballast_mb} << 20); " + MAXRSS_LAUNCHER
    proc = subprocess.run(
        [sys.executable, "-c", launcher, sys.executable, "-m", "cumlab.cli",
         "train-sweep", "--config", cfg, "--out", out, "--jobs", "2"],
        env=child_env(), capture_output=True, text=True, check=True)
    code, maxrss = map(int, proc.stdout.split())
    assert code == 0
    return json.loads(read_bytes(os.path.join(out, "manifest.json"))), maxrss * 1024 / 1e6


def test_manifest_records_the_peak_rss_of_the_run(tmp_path):
    # peak_rss_mb is the larger peak of the process and of its reaped pool
    # workers, the figure wait4 gives for the whole run.  Two points at
    # --jobs 2: with 100,000 test rows per class a worker holds a 32 MB test
    # set the parent never holds, and the peak grows by about that much.
    # The manifest's VmHWM and wait4's ru_maxrss are separate reads of the
    # kernel's RSS counters; VmHWM has read up to 0.1 MB above
    peaks = []
    for n_test in (50, 100_000):
        out = str(tmp_path / f"rss{n_test}")
        cfg = write_config(out, {**TINY_TRAIN_CFG, "n_test_per_class": n_test, "rf": False,
                                 "train": {"epochs": 1, "batch_size": 40}})
        manifest, whole_run = launch_train_sweep(cfg, out)
        assert 0.95 * whole_run <= manifest["peak_rss_mb"] <= whole_run + 1.0
        assert not any("peak_rss" in read_bytes(os.path.join(out, name)).decode()
                       for name in manifest["outputs"])
        peaks.append(manifest["peak_rss_mb"])
    assert peaks[1] - peaks[0] > 25.0, peaks


def test_manifest_peak_rss_leaves_out_the_launching_process(tmp_path):
    # ru_maxrss survives exec, so wait4 reports the 200 MB the launcher
    # holds; the manifest takes the run's own peak, which starts afresh at exec
    out = str(tmp_path / "big")
    cfg = write_config(out, {**TINY_TRAIN_CFG, "n_test_per_class": 50, "rf": False,
                             "train": {"epochs": 1, "batch_size": 40}})
    manifest, whole_run = launch_train_sweep(cfg, out, ballast_mb=200)
    assert whole_run > 200.0, whole_run
    assert manifest["peak_rss_mb"] < 100.0, manifest["peak_rss_mb"]


def test_seed_env_override(tmp_path, monkeypatch):
    _, out1 = run_config(tmp_path / "s1", SEARCH_CFG, "--jobs", "1")
    monkeypatch.setenv("CUMLAB_SEED", "999")
    _, out2 = run_config(tmp_path / "s2", SEARCH_CFG, "--jobs", "1")
    monkeypatch.delenv("CUMLAB_SEED")
    m2 = json.loads(read_bytes(os.path.join(out2, "manifest.json")))
    assert m2["seed"] == 999
    assert read_bytes(os.path.join(out1, "success.csv")) != read_bytes(
        os.path.join(out2, "success.csv")
    )


def test_config_error_exit_code(tmp_path):
    assert run_config(tmp_path / "x", {"experiment": "lr-curve", "seed": 1, "d": [8]})[0] == 2
    assert run_config(tmp_path / "y", SEARCH_CFG, experiment="lr-curve")[0] == 2
    missing = str(tmp_path / "nope.json")
    assert cli.main(["lr-curve", "--config", missing, "--out", str(tmp_path / "z")]) == 2


@pytest.mark.parametrize("content", [b'{"experiment": "lr-curve", "d": [8], "\xff": 1}',
                                     TOO_DEEP.encode()], ids=["not-utf8", "too-deep"])
def test_undecodable_config_exits_2(tmp_path, capsys, content):
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    out = str(tmp_path / "out")
    assert cli.main(["lr-curve", "--config", str(path), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1
    assert not os.path.exists(out)


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys, out):
    (tmp_path / "afile").write_text("not a directory\n")
    # the config goes beside afile: beside afile/sub is inside the file
    code, path = run_config(tmp_path / out, LR_CFG, config=tmp_path / "cfg.json")
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and repr(path) in err
    assert (tmp_path / "afile").read_text() == "not a directory\n"


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_jobs_below_one_is_refused(tmp_path, capsys, jobs):
    out = str(tmp_path / "out")
    with pytest.raises(SystemExit) as exc:
        run_config(out, LR_CFG, "--jobs", jobs)
    assert exc.value.code == 2
    assert f"argument --jobs: expected a worker count >= 1, got '{jobs}'" in capsys.readouterr().err
    assert not os.path.exists(out)


# ldlr-bounds points at d 3 and 16, the second made to fail by fail_ldlr_points_at_d16
FAILING_LDLR_CFG = {"experiment": "ldlr-bounds", "seed": 2, "d": [3, 16], "n": [40], "D": [8],
                    "beta": [10.0]}


def fail_ldlr_points_at_d16(monkeypatch):
    """Make every ldlr-bounds point at d = 16 raise, as a point of a real
    run fails."""
    norm = cli.ldlr.ldlr_norm_log

    def broken(n, d, D, beta, g_dist):
        if d == 16:
            raise ValueError("norm refused at d = 16")
        return norm(n, d, D, beta, g_dist)

    monkeypatch.setattr(cli.ldlr, "ldlr_norm_log", broken)


def test_partial_failure_exit_code(tmp_path, monkeypatch):
    # one failing grid point: error row + exit 1
    fail_ldlr_points_at_d16(monkeypatch)
    code, out = run_config(tmp_path / "pf", FAILING_LDLR_CFG, "--jobs", "1")
    assert code == 1
    with open(os.path.join(out, "errors.csv")) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "d,n,D,beta,run,error"
    assert len(lines) == 2 and lines[1].startswith("16,40,8,10.0,0")
    # the healthy point still produced records
    assert os.path.exists(os.path.join(out, "log_lower.csv"))


def test_clean_rerun_removes_stale_errors_csv(tmp_path, monkeypatch):
    # a failed point writes errors.csv; a clean rerun into the same
    # directory must not leave it behind
    fail_ldlr_points_at_d16(monkeypatch)
    code, out = run_config(tmp_path / "rerun", FAILING_LDLR_CFG)
    assert code == 1
    assert os.path.exists(os.path.join(out, "errors.csv"))
    assert run_config(out, dict(FAILING_LDLR_CFG, d=[3]))[0] == 0
    assert not os.path.exists(os.path.join(out, "errors.csv"))
    assert json.loads(read_bytes(os.path.join(out, "manifest.json")))["failed_points"] == 0


def test_rerun_removes_metric_csv_it_does_not_write(tmp_path):
    # the first run writes rf_acc.csv; a rerun without random features into
    # the same directory must not leave it behind
    cfg = dict(TINY_TRAIN_CFG, n_per_class=[40])
    code, out = run_config(tmp_path / "rf", cfg)
    assert code == 0
    assert os.path.exists(os.path.join(out, "rf_acc.csv"))
    assert run_config(out, dict(cfg, rf=False))[0] == 0
    assert not os.path.exists(os.path.join(out, "rf_acc.csv"))
    manifest = json.loads(read_bytes(os.path.join(out, "manifest.json")))
    assert sorted(f for f in os.listdir(out) if f.endswith(".csv")) == sorted(
        f"{m}.csv" for m in manifest["metrics"])


def test_failed_rerun_removes_every_earlier_output(tmp_path, monkeypatch):
    # a clean run, then one whose only point fails: no metric CSV and no
    # aggregate of the first run survives beside the new errors.csv
    fail_ldlr_points_at_d16(monkeypatch)
    code, out = run_config(tmp_path / "failed", dict(FAILING_LDLR_CFG, d=[3]))
    assert code == 0
    first = set(os.listdir(out))
    assert {"ldlr_bounds.csv", "log_lower.csv", "log_exact.csv"} <= first
    assert run_config(out, dict(FAILING_LDLR_CFG, d=[16]))[0] == 1
    assert sorted(os.listdir(out)) == ["errors.csv", "manifest.json"]


def test_unreadable_manifest_removes_nothing(tmp_path):
    cfg = {"experiment": "ldlr-bounds", "seed": 2, "d": [3], "n": [4], "D": [2], "beta": [1.0]}
    for i, text in enumerate(("{not json", TOO_DEEP)):
        out = tmp_path / f"keep{i}"
        out.mkdir()
        (out / "manifest.json").write_text(text)
        (out / "kept.csv").write_text("x\n")
        assert run_config(out, cfg)[0] == 0
        assert (out / "kept.csv").read_text() == "x\n"
        assert json.loads(read_bytes(out / "manifest.json"))["outputs"]  # replaced


def listing_is_outputs(out):
    """Whether the manifest's outputs name every other file in `out`."""
    manifest = json.loads(read_bytes(os.path.join(out, "manifest.json")))
    return manifest["outputs"] == sorted(set(os.listdir(out)) - {"manifest.json"})


def test_rerun_removes_plot_files(tmp_path):
    # plot files of the D = 4 run would sit beside metric CSVs of the new
    # one, which has no asymptotic forms at D = 3
    cfg = {"experiment": "ldlr-bounds", "seed": 2, "d": [3], "n": [2], "D": [4],
           "beta": [1.0]}
    code, out = run_config(tmp_path / "plots", cfg)
    assert code == 0
    assert cli.main(["emit-plotdata", "--out", out]) == 0
    assert "plot_asym_upper.csv" in os.listdir(out)
    assert run_config(out, dict(cfg, D=[3]))[0] == 0
    assert not [name for name in os.listdir(out) if name.startswith("plot_")]
    assert listing_is_outputs(out)


def test_generate_rerun_removes_dataset_of_another_name(tmp_path):
    out = str(tmp_path / "names")
    for name in ("a", "b"):
        assert run_config(out, dict(GENERATE_CFG, name=name))[0] == 0
    assert sorted(os.listdir(out)) == ["b.bin", "b.csv", "manifest.json", "rows_written.csv"]
    assert listing_is_outputs(out)


def test_failed_generate_rerun_keeps_no_dataset(tmp_path, monkeypatch):
    # the files of a failed point are not written by this run: the old
    # dataset is removed, not adopted
    code, out = run_config(tmp_path / "gen", GENERATE_CFG, "--jobs", "1")
    assert code == 0

    def broken(*args, **kwargs):
        raise RuntimeError("injected sampler failure")

    monkeypatch.setattr(cli.datagen, "make_dataset", broken)
    assert run_config(out, GENERATE_CFG, "--jobs", "1")[0] == 1
    assert sorted(os.listdir(out)) == ["errors.csv", "manifest.json"]
    assert listing_is_outputs(out)


def test_failed_generate_point_leaves_no_dataset(tmp_path, monkeypatch):
    # the point writes a.csv, then its binary write fails: the CSV is
    # removed, not left in --out with no manifest naming it
    def broken(*args, **kwargs):
        raise OSError("injected write failure")

    monkeypatch.setattr(cli.datagen, "write_binary", broken)
    code, out = run_config(tmp_path / "gen", dict(GENERATE_CFG, name="a", format="both"),
                           "--jobs", "1")
    assert code == 1
    assert sorted(os.listdir(out)) == ["errors.csv", "manifest.json"]
    assert listing_is_outputs(out)


def test_errors_csv_quotes_the_message(tmp_path, monkeypatch):
    # an OSError reprs a path holding ' in double quotes; errors.csv doubles
    # every embedded quote, so the row still parses as CSV (RFC 4180)
    def broken(*args, **kwargs):
        raise OSError(2, "No such file or directory", "it's, a.csv")

    monkeypatch.setattr(cli.datagen, "make_dataset", broken)
    code, out = run_config(tmp_path / "gen", GENERATE_CFG, "--jobs", "1")
    assert code == 1
    with open(os.path.join(out, "errors.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["name", "run", "error"], ["dataset", "0", "FileNotFoundError: [Errno 2] "
                                               "No such file or directory: \"it's, a.csv\""]]


def test_generate_round_trip(tmp_path):
    code, out = run_config(
        tmp_path / "gen",
        {
            "experiment": "generate",
            "seed": 4,
            "name": "toy",
            "n_per_class": 30,
            "model": {"kind": "spiked_cumulant", "d": 5, "beta": 10.0, "g": "rademacher"},
            "format": "both",
        },
    )
    assert code == 0
    a = datagen.read_csv(os.path.join(out, "toy.csv"))
    b = datagen.read_binary(os.path.join(out, "toy.bin"))
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.labels, b.labels)
    assert a.n == 60 and a.d == 5
    # both files were renamed into place; no temp file is left over
    assert sorted(os.listdir(out)) == ["manifest.json", "rows_written.csv", "toy.bin", "toy.csv"]


def test_generate_matches_the_datagen_api(tmp_path):
    # the seed contract of a generated dataset: the positive spike comes from the
    # point seed's "spike" stream, the negative model from the point seed spawned
    # with "negmodel", and the rows from make_dataset at the point seed
    payload = {"experiment": "generate", "seed": 8, "name": "pair", "n_per_class": 40,
               "format": "binary",
               "model": {"kind": "spiked_wishart", "d": 6, "beta": 3.0},
               "negative_model": {"kind": "nlgp", "d": 6, "gain": 2.0, "xi": 1.5,
                                  "periodic": True}}
    code, out = run_config(tmp_path / "gen", payload)
    assert code == 0
    point_seed = spawn_seed(8, "generate", "pair", 0)
    with open(os.path.join(out, "manifest.json")) as fh:
        assert json.load(fh)["point_seeds"] == {"pair#0": point_seed}
    pos = datagen.ModelSpec(kind=datagen.SPIKED_WISHART, d=6, beta=3.0,
                            spike=datagen.draw_spike(6, generator(point_seed, "spike")))
    neg = datagen.ModelSpec(kind=datagen.NLGP, d=6, gain=2.0, xi=1.5, periodic=True)
    expected = datagen.make_dataset(pos, 40, point_seed, neg=neg)
    got = datagen.read_binary(os.path.join(out, "pair.bin"))
    assert np.array_equal(got.values, expected.values)
    assert np.array_equal(got.labels, expected.labels)
    # a spiked negative model draws its spike from the "negmodel" seed's stream
    payload["negative_model"] = {"kind": "spiked_cumulant", "d": 6, "beta": 5.0, "g": "uniform"}
    assert run_config(out, payload)[0] == 0
    neg_spike = datagen.draw_spike(6, generator(spawn_seed(point_seed, "negmodel"), "spike"))
    neg = datagen.ModelSpec(kind=datagen.SPIKED_CUMULANT, d=6, beta=5.0, spike=neg_spike,
                            g_dist=UNIF)
    expected = datagen.make_dataset(pos, 40, point_seed, neg=neg)
    assert np.array_equal(datagen.read_binary(os.path.join(out, "pair.bin")).values,
                          expected.values)


@pytest.mark.parametrize("n, D, g", [
    (2**64, "auto", "rademacher"), (10**30, [12], "rademacher"), (10**19, [303], "rademacher"),
    (10**19, [303], "uniform"), (10**19, [304], "standard_gaussian"),
], ids=["2^64-auto", "1e30", "D303", "D303-uniform", "D304-gaussian"])
def test_ldlr_bounds_past_the_uint64_range(tmp_path, n, D, g):
    # numpy's log refuses a Python int past 2^64; the run takes any n.  It
    # takes D up to 303 for every g, and past it for a Gaussian g
    code, out = run_config(tmp_path / "big", {"experiment": "ldlr-bounds", "seed": 1, "d": [16],
                                              "n": [n], "D": D, "beta": [10.0], "g": g})
    assert code == 0
    with open(os.path.join(out, "ldlr_bounds.csv")) as fh:
        (row,) = csv.DictReader(fh)
    assert int(row["n"]) == n
    assert float(row["log_lower"]) <= float(row["log_exact"])
    if row["log_upper"]:
        assert float(row["log_exact"]) <= float(row["log_upper"])


def test_ldlr_bounds_csv_and_plotdata(tmp_path):
    code, out = run_config(
        tmp_path / "lb",
        {
            "experiment": "ldlr-bounds",
            "seed": 3,
            "d": [3],
            "n": [2],
            "D": [3, 4, 8],
            "beta": [1.0, 10.0],
        },
    )
    assert code == 0
    with open(os.path.join(out, "log_exact.csv")) as fh:
        rows = fh.read().strip().splitlines()
    assert rows[0] == "d,n,D,beta,run,value"
    assert len(rows) == 7
    # the convenience CSV holds, cell for cell, the value of each metric CSV
    # at its point, and an empty cell where that CSV has no row (the
    # asymptotic forms at D < 4, the upper bound at d < floor(D/2))
    metrics = ("log_lower", "log_upper", "log_exact", "asym_lower", "asym_upper")
    values = {}
    for metric in metrics:
        with open(os.path.join(out, f"{metric}.csv")) as fh:
            values[metric] = {(r["d"], r["n"], r["D"], r["beta"]): r["value"]
                              for r in csv.DictReader(fh)}
    with open(os.path.join(out, "ldlr_bounds.csv")) as fh:
        table = list(csv.DictReader(fh))
    assert list(table[0]) == ["n", "d", "D", "beta", "g", *metrics]
    assert [(r["D"], r["beta"], r["g"]) for r in table] == [
        (D, beta, "rademacher") for D in ("3", "4", "8") for beta in ("1.0", "10.0")]
    empty = 0
    for r in table:
        point = (r["d"], r["n"], r["D"], r["beta"])
        for metric in metrics:
            assert r[metric] == values[metric].get(point, ""), (point, metric)
            empty += r[metric] == ""
    # asym_lower and asym_upper at the two D = 3 points, log_upper at the
    # two D = 8 points
    assert empty == 6
    assert cli.main(["emit-plotdata", "--out", out]) == 0
    with open(os.path.join(out, "plot_log_exact.csv")) as fh:
        agg = fh.read().strip().splitlines()
    assert agg[0] == "d,n,D,beta,mean,sd,count"
    assert all(line.endswith(",0.0,1") for line in agg[1:])  # single runs: sd = 0


def test_ldlr_bounds_takes_auto_as_a_grid_entry(tmp_path):
    outs = []
    for D in ("auto", ["auto"]):
        code, out = run_config(tmp_path / str(len(outs)), dict(LDLR_CFG, n=[2, 20, 50], D=D))
        assert code == 0
        outs.append(out)
    csvs = sorted(n for n in os.listdir(outs[0]) if n.endswith(".csv"))
    assert "log_exact.csv" in csvs
    assert csvs == sorted(n for n in os.listdir(outs[1]) if n.endswith(".csv"))
    for name in csvs:
        assert read_bytes(os.path.join(outs[0], name)) == read_bytes(
            os.path.join(outs[1], name)), name


def test_emit_plotdata_errors(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli.main(["emit-plotdata", "--out", str(empty)]) == 2
    # a malformed manifest is refused, never a traceback
    for text in ("{", "[1,2]", '{"metrics": "abc"}', TOO_DEEP):
        (empty / "manifest.json").write_text(text)
        assert cli.main(["emit-plotdata", "--out", str(empty)]) == 2, text
    # manifest present but a metric CSV deleted -> exit 1, missing listed
    _, out = run_config(tmp_path / "pd", SEARCH_CFG, "--jobs", "1")
    os.unlink(os.path.join(out, "success.csv"))
    assert cli.main(["emit-plotdata", "--out", out]) == 1


@pytest.mark.parametrize("metric, tail, message", [
    ("gamma_beta", b"x,y\n", "line 3: 2 fields, the header has 5"),
    ("gamma_beta", b"8,1.0,1.0,1,y\n", "line 3: could not convert string to float: 'y'"),
    ("gamma_beta", b"16,1.0\n", "line 3: 2 fields, the header has 5"),
    ("gamma_beta", b"8,1.0,1.0,1,\xff\n",
     "line 3: 'utf-8' codec can't decode byte 0xff in position 12: invalid start byte"),
    # the CSV checked second: the first one's plot file is not written either
    ("log_lr_norm_sq", b"\n8,1.0,1.0,1,0.5,0.5\n", "line 4: 6 fields, the header has 5"),
    # a (text, replacement) pair edits the CSV in place of a tail
    ("gamma_beta", (b",run,value\n", b",run,val\n"),
     "line 1: the header does not end in run,value"),
], ids=["not-a-row", "not-a-number", "short-row", "not-utf8", "second-csv", "bad-header"])
def test_emit_plotdata_refuses_a_bad_metric_csv(tmp_path, capsys, metric, tail, message):
    code, out = run_config(tmp_path / "out", LR_CFG)
    assert code == 0
    manifest = read_bytes(os.path.join(out, "manifest.json"))
    path = os.path.join(out, f"{metric}.csv")
    data = read_bytes(path)
    with open(path, "wb") as fh:
        fh.write(data.replace(*tail, 1) if isinstance(tail, tuple) else data + tail)
    capsys.readouterr()
    assert cli.main(["emit-plotdata", "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {os.path.join(out, metric + '.csv')}, {message}"]
    assert not [name for name in os.listdir(out) if name.startswith("plot_")]
    assert read_bytes(os.path.join(out, "manifest.json")) == manifest


def test_emit_plotdata_takes_nan_values(tmp_path):
    # a degenerate CP factor records cp_ipr as nan
    code, out = run_config(tmp_path / "out", dict(LR_CFG, theta=[1.0, 2.0]))
    assert code == 0
    with open(os.path.join(out, "gamma_beta.csv"), "a") as fh:
        fh.write("8,1.0,1.0,1,nan\n")
    assert cli.main(["emit-plotdata", "--out", out]) == 0
    with open(os.path.join(out, "plot_gamma_beta.csv")) as fh:
        rows = fh.read().splitlines()
    assert rows[1] == "8,1.0,1.0,nan,nan,2" and rows[2].startswith("8,2.0,1.0,") and len(rows) == 3


def test_cli_entry_point_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "cumlab.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for sub in ("generate", "lr-curve", "search-curve", "emit-plotdata"):
        assert sub in proc.stdout


def test_train_sweep_smoke(tmp_path):
    code, out = run_config(
        tmp_path / "ts",
        {
            "experiment": "train-sweep",
            "seed": 6,
            "task": "spiked_wishart",
            "beta": 20.0,
            "d": [8],
            "n_per_class": [120],
            "alpha_lazy": [1.0],
            "runs": 1,
            "n_test_per_class": 200,
            "train": {"batch_size": 32},
            "rf": True,
        },
        "--jobs", "1",
    )
    assert code == 0
    for metric in ("nn_early_stop_acc", "nn_final_max_overlap", "rf_acc"):
        assert os.path.exists(os.path.join(out, f"{metric}.csv")), metric


def test_train_sweep_nlgp_lazy_grid(tmp_path):
    # NLGP task trains against the matched Gaussian class; no spike, so no
    # overlap metric; alpha > 1 exercises the centred lazy path
    code, out = run_config(
        tmp_path / "nlt",
        {
            "experiment": "train-sweep",
            "seed": 9,
            "task": "nlgp",
            "gain": 3.0,
            "xi": 1.0,
            "d": [8],
            "n_per_class": [80],
            "alpha_lazy": [1.0, 100.0],
            "runs": 1,
            "n_test_per_class": 100,
            "train": {"epochs": 5, "batch_size": 32},
            "rf": False,
        },
    )
    assert code == 0
    assert not os.path.exists(os.path.join(out, "nn_final_max_overlap.csv"))
    with open(os.path.join(out, "nn_early_stop_acc.csv")) as fh:
        rows = fh.read().strip().splitlines()
    alphas = {r.split(",")[2] for r in rows[1:]}
    assert alphas == {"1.0", "100.0"}


def test_nlgp_localisation_smoke(tmp_path):
    code, out = run_config(
        tmp_path / "nl",
        {
            "experiment": "nlgp-localisation",
            "seed": 7,
            "d": 10,
            "gain": 3.0,
            "xi": 1.0,
            "n_per_d": [20],
            "runs": 1,
        },
    )
    assert code == 0
    with open(os.path.join(out, "cp_ipr.csv")) as fh:
        rows = fh.read().strip().splitlines()
    assert rows[0] == "d,n,data_class,run,value"
    classes = {r.split(",")[2] for r in rows[1:]}
    assert classes == {"nlgp", "gp_match"}


def test_nlgp_localisation_degenerate_fit(tmp_path, monkeypatch):
    # a fit of weight 0.0 has a zero factor, whose IPR is recorded as nan
    monkeypatch.setattr(cli.cumtensor, "rank1_cp", lambda tensor, rng: (0.0, np.zeros(tensor.d)))
    code, out = run_config(tmp_path / "nl", NLGP_CFG)
    assert code == 0
    for metric, value in (("cp_ipr", "nan"), ("cp_weight", "0.0")):
        with open(os.path.join(out, f"{metric}.csv")) as fh:
            rows = fh.read().strip().splitlines()
        assert [r.split(",")[2:] for r in rows[1:]] == [["nlgp", "0", value],
                                                       ["gp_match", "0", value]]


# d = 20 gives 100 hidden neurons and 100 random features.  OpenBLAS 0.3.31
# rounds a 100-wide Gram product differently with one thread and with two.
TINY_TRAIN_CFG = {
    "experiment": "train-sweep",
    "seed": 11,
    "task": "spiked_wishart",
    "beta": 5.0,
    "d": [20],
    "n_per_class": [40, 60],
    "alpha_lazy": [1.0],
    "runs": 1,
    "n_test_per_class": 100,
    "train": {"epochs": 2, "batch_size": 8},
    "rf": True,
}


def test_train_sweep_deterministic_across_jobs(tmp_path):
    code, out1 = run_config(tmp_path / "j1", TINY_TRAIN_CFG, "--jobs", "1")
    assert code == 0
    code, out2 = run_config(tmp_path / "j2", TINY_TRAIN_CFG, "--jobs", "2")
    assert code == 0
    csvs = sorted(n for n in os.listdir(out1) if n.endswith(".csv"))
    assert "rf_acc.csv" in csvs and "nn_final_max_ipr.csv" in csvs
    assert csvs == sorted(n for n in os.listdir(out2) if n.endswith(".csv"))
    for name in csvs:
        assert read_bytes(os.path.join(out1, name)) == read_bytes(os.path.join(out2, name)), name
    # the BLAS settings are recorded at every --jobs
    m1, m2 = (json.loads(read_bytes(os.path.join(out, "manifest.json"))) for out in (out1, out2))
    assert m1["blas_settings"] == m2["blas_settings"] == cumlab.BLAS_SETTINGS


BLAS_DEFAULTS = {"OPENBLAS_NUM_THREADS": "1", "OPENBLAS_THREAD_TIMEOUT": "4",
                 "OMP_WAIT_POLICY": "PASSIVE"}


def env_without_blas_settings(**values):
    """os.environ without BLAS wait or thread-count variables, plus `values`."""
    env = {var: val for var, val in os.environ.items()
           if var not in BLAS_DEFAULTS and not var.endswith("_NUM_THREADS")}
    return {**env, **values}


def test_import_sets_blas_settings_before_numpy():
    # the hook sees os.environ as it is when numpy starts to load, which is
    # when numpy's OpenBLAS reads it; `import cumlab` loads no numpy itself
    code = (
        "import importlib.abc, json, os, sys\n"
        "seen = []\n"
        "class Hook(importlib.abc.MetaPathFinder):\n"
        "    def find_spec(self, name, path, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        f"            seen.append({{var: os.environ.get(var) for var in {tuple(BLAS_DEFAULTS)!r}}})\n"
        "sys.meta_path.insert(0, Hook())\n"
        "import cumlab\n"
        "loaded = 'numpy' in sys.modules\n"
        "import numpy\n"
        "print(json.dumps([loaded, seen, cumlab.BLAS_SETTINGS]))\n"
    )
    loaded, seen, recorded = json.loads(run_fresh_python(code, env_without_blas_settings()))
    assert not loaded
    assert seen == [BLAS_DEFAULTS]
    assert recorded == BLAS_DEFAULTS
    # numpy loaded first has read its settings already: nothing is recorded
    code = "import numpy, cumlab; print(cumlab.BLAS_SETTINGS)"
    assert run_fresh_python(code, env_without_blas_settings()) == "None"


def test_tests_run_at_the_command_blas_settings():
    # tests/conftest.py imports cumlab before anything loads numpy
    assert cumlab.BLAS_SETTINGS == {var: os.environ[var] for var in BLAS_DEFAULTS}


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_blas_starts_no_thread():
    # OpenBLAS starts its helper threads at load; a product large enough to
    # be split would use them
    code = (
        "import cumlab, numpy as np\n"
        "a = np.ones((1000, 1000)); a @ a\n"
        "print(next(line for line in open('/proc/self/status') if line.startswith('Threads:')))\n"
    )
    assert run_fresh_python(code, env_without_blas_settings()).split() == ["Threads:", "1"]


@pytest.mark.parametrize("jobs, user", [("1", {"OPENBLAS_THREAD_TIMEOUT": "30"}),
                                        ("2", {"OMP_WAIT_POLICY": "ACTIVE"})], ids=["1", "2"])
def test_blas_settings_keep_user_values(tmp_path, jobs, user):
    # the user set a thread count and one wait setting, not the other
    out = str(tmp_path / "out")
    cfg = write_config(out, TINY_TRAIN_CFG)
    code = (
        "import json, os, sys\n"
        "from cumlab import cli\n"
        "before = dict(os.environ)\n"
        f"code = cli.main(['train-sweep', '--config', {cfg!r}, '--out', {out!r},"
        f" '--jobs', {jobs!r}])\n"
        "print(json.dumps([code, dict(os.environ) == before, dict(os.environ)]))\n"
    )
    env = env_without_blas_settings(OPENBLAS_NUM_THREADS="2", **user)
    code, unchanged, environ = json.loads(run_fresh_python(code, env))
    assert code == 0 and unchanged  # the run itself changes no variable
    expected = {**BLAS_DEFAULTS, "OPENBLAS_NUM_THREADS": "2", **user}
    assert {var: environ.get(var) for var in BLAS_DEFAULTS} == expected
    # no other thread count is set
    assert {var: val for var, val in environ.items() if var.endswith("_NUM_THREADS")} == {
        "OPENBLAS_NUM_THREADS": "2",
    }
    manifest = json.loads(read_bytes(os.path.join(out, "manifest.json")))
    assert manifest["blas_settings"] == expected


AFFINITY = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []


@pytest.mark.skipif(len(AFFINITY) < 2, reason="needs sched_setaffinity and two CPUs")
def test_metric_csvs_do_not_depend_on_the_cpu_count(tmp_path):
    # BLAS starts one thread per CPU unless told otherwise, and splits the
    # NLGP pair Gram between them, which moves the last bits of cp_ipr
    # and cp_weight
    cfg = os.path.join(CONFIGS, "nlgp_localisation.json")
    outs = []
    for cpus in ({AFFINITY[0]}, set(AFFINITY)):
        out = str(tmp_path / str(len(cpus)))
        code = (
            "import os, sys\n"
            f"os.sched_setaffinity(0, {cpus!r})\n"
            "from cumlab import cli\n"
            f"sys.exit(cli.main(['nlgp-localisation', '--config', {cfg!r}, '--out', {out!r}]))\n"
        )
        run_fresh_python(code, env_without_blas_settings())
        outs.append(out)
    csvs = sorted(n for n in os.listdir(outs[0]) if n.endswith(".csv"))
    assert "cp_ipr.csv" in csvs and "cp_weight.csv" in csvs
    assert csvs == sorted(n for n in os.listdir(outs[1]) if n.endswith(".csv"))
    for name in csvs:
        assert read_bytes(os.path.join(outs[0], name)) == read_bytes(os.path.join(outs[1], name)), name


@pytest.mark.filterwarnings("error::DeprecationWarning")
def test_pool_workers_are_forked(tmp_path, monkeypatch):
    # Only a forked worker runs a runner patched in this process.  Python
    # 3.12 and later warn when a process forks while it has other threads,
    # so this test also fails when the pool forks a live thread.
    def worker_pid(params, point_seed, out):
        return {"worker_pid": float(os.getpid())}

    monkeypatch.setitem(cli.EXPERIMENTS, "search-curve", dataclasses.replace(
        cli.EXPERIMENTS["search-curve"], run=worker_pid, aggregate=None))
    code, out = run_config(tmp_path / "out", SEARCH_CFG, "--jobs", "2")
    assert code == 0
    with open(os.path.join(out, "worker_pid.csv")) as fh:
        pids = {float(row["value"]) for row in csv.DictReader(fh)}
    assert pids and float(os.getpid()) not in pids and len(pids) <= 2


def run_fresh_python(code, env=None):
    """Run `code` in a fresh interpreter, so modules imported by other tests
    do not count; it imports the same cumlab package as this process.  `env`
    replaces os.environ as the interpreter's environment."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(env))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("experiment, payload, point", [
    ("search-curve", dict(SEARCH_CFG, d=[6, 6]), "d=6, theta=0.5 (run 0)"),
    ("train-sweep", dict(TINY_TRAIN_CFG, n_per_class=[40, 40]),
     "d=20, n_per_class=40, alpha_lazy=1.0 (run 0)"),
    # the degree schedule gives D = 8 at n = 50
    ("ldlr-bounds", dict(LDLR_CFG, n=[50], D=[8, "auto"]), "d=8, n=50, D=8, beta=1.0 (run 0)"),
])
def test_duplicate_grid_point_is_refused(tmp_path, capsys, experiment, payload, point):
    # duplicate tasks share a point seed: their runs would be copies
    code, out = run_config(tmp_path / "dup", payload, experiment=experiment)
    assert code == 2
    assert f"grid point {point} appears twice" in capsys.readouterr().err
    assert not os.path.exists(out)


GENERATE_CFG = {
    "experiment": "generate",
    "seed": 4,
    "n_per_class": 5,
    "model": {"kind": "spiked_cumulant", "d": 5, "beta": 10.0},
}


@pytest.mark.parametrize("experiment, payload, message", [
    ("search-curve", dict(SEARCH_CFG, d=[8.5]), "'d' has value 8.5"),
    ("train-sweep", dict(TINY_TRAIN_CFG, n_per_class=[10.7]), "'n_per_class' has value 10.7"),
    ("search-curve", dict(SEARCH_CFG, d=[8, "x"]), "'d' has value 'x'"),
    ("search-curve", dict(SEARCH_CFG, d=True), "'d' has type bool"),
    ("train-sweep", dict(TINY_TRAIN_CFG, d=[True]), "'d' has value True"),
    ("search-curve", dict(SEARCH_CFG, theta=[0.5, True]), "'theta' has value True"),
    ("generate", dict(GENERATE_CFG, negative_model=5), "'negative_model' has type int"),
    ("search-curve", dict(SEARCH_CFG, theta=[float("nan")]),
     "'theta' has value nan, expected a finite number"),
    ("lr-curve", dict(LR_CFG, beta=[float("inf")]),
     "'beta' has value inf, expected a finite number"),
    ("lr-curve", dict(LR_CFG, theta=[1.0, -float("inf")]),
     "'theta' has value -inf, expected a finite number"),
    ("ldlr-bounds", dict(LDLR_CFG, n=[0], D=[4]),
     "grid point d=8, n=0, D=4, beta=1.0 has floor(D/4) = 1 > n"),
    ("ldlr-bounds", dict(LDLR_CFG, n=[1], D=[8]),
     "grid point d=8, n=1, D=8, beta=1.0 has floor(D/4) = 2 > n"),
    ("lr-curve", dict(LR_CFG, theta=[1.0, 400.0]),
     "grid point d=8, theta=400.0 has n = ceil(d^theta) over the float range"),
    ("search-curve", dict(SEARCH_CFG, d=[8], theta=[400.0]),
     "grid point d=8, theta=400.0 has n = ceil(d^theta) over the float range"),
    ("search-curve", dict(SEARCH_CFG, d=[2], theta=[-1100.0]),
     "grid point d=2, theta=-1100.0 has n = ceil(d^theta) = 0; the experiment needs n >= 1"),
    ("lr-curve", dict(LR_CFG, theta=[1.0, 10**400]),
     "'theta' has an integer value of 401 digits, expected a finite number"),
    ("ldlr-bounds", dict(LDLR_CFG, n=[10**48]),
     f"grid point d=8, n={10**48}, D=1162, beta=1.0 has D > 303; E[h_m(g)] of g = rademacher "
     "overflows a float from m = 304"),
    ("ldlr-bounds", dict(LDLR_CFG, n=[100], D=[304]),
     "grid point d=8, n=100, D=304, beta=1.0 has D > 303"),
    ("ldlr-bounds", dict(LDLR_CFG, n=[100], D=[304], g="uniform"),
     "grid point d=8, n=100, D=304, beta=1.0 has D > 303; E[h_m(g)] of g = uniform"),
    ("ldlr-bounds", {"experiment": "ldlr-bounds", "d": [8], "n": [100], "D": [8],
                     "beta": [1e154]},
     "'beta' has value 1e+154, expected >= 0 and <= 1e+100"),
    ("lr-curve", dict(LR_CFG, beta=[1.0, 1e101]),
     "'beta' has value 1e+101, expected >= 0 and <= 1e+100"),
    ("ldlr-bounds", dict(LDLR_CFG, D=[8, "x"]), "'D' has value 'x', expected int"),
    ("search-curve", dict(SEARCH_CFG, d=[]), "grid list 'd' must be non-empty"),
])
def test_bad_grid_value_is_refused(tmp_path, capsys, experiment, payload, message):
    # a value of the wrong type is refused, never truncated or cast
    code, out = run_config(tmp_path / "bad", payload, experiment=experiment)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


def test_lr_curve_takes_no_samples(tmp_path):
    # d^theta underflows to n = 0, a norm of 1; only search-curve needs n >= 1
    code, out = run_config(tmp_path / "zero", dict(LR_CFG, d=[2], theta=[-1100.0]))
    assert code == 0
    with open(os.path.join(out, "log_lr_norm_sq.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["theta"], float(r["value"])) for r in rows] == [("-1100.0", 0.0)]


@pytest.mark.parametrize("name", sorted(os.listdir(CONFIGS)))
def test_shipped_config_validates(name):
    # every shipped config still passes the checks of its subcommand
    with open(os.path.join(CONFIGS, name)) as fh:
        raw = json.load(fh)
    assert cli._validate(raw).tasks


class WithEnv(dict):
    """A config payload that runs with extra environment variables."""

    def __init__(self, payload, **env):
        super().__init__(payload)
        self.env = env


NLGP_CFG = {"experiment": "nlgp-localisation", "seed": 2, "d": 8, "n_per_d": [10]}

# the largest array of each point below holds more float64 values than
# numpy allows: n d rows, 2 n_per_class d or 2 n_test_per_class d rows, or
# d + 1 overlap weights
@pytest.mark.parametrize("experiment, payload, point", [
    ("train-sweep", dict(TINY_TRAIN_CFG, n_per_class=[10**30]),
     f"d=20, n_per_class={10**30}, alpha_lazy=1.0"),
    ("train-sweep", dict(TINY_TRAIN_CFG, n_test_per_class=10**30),
     "d=20, n_per_class=40, alpha_lazy=1.0"),
    # format csv: a binary format refuses such an n_per_class first, by its header bound
    ("generate", dict(GENERATE_CFG, n_per_class=10**30, format="csv"), "name=dataset"),
    ("nlgp-localisation", dict(NLGP_CFG, n_per_d=[1e300]),
     f"d=8, n={int(round(1e300 * 8))}, data_class=nlgp"),
    ("search-curve", dict(SEARCH_CFG, d=[8], theta=[30.0]), "d=8, theta=30.0"),
    ("lr-curve", dict(LR_CFG, d=[10**19]), f"d={10**19}, theta=1.0, beta=1.0"),
    ("ldlr-bounds", dict(LDLR_CFG, d=[10**19]), f"d={10**19}, n=20, D=6, beta=1.0"),
], ids=["train", "train-test", "generate", "nlgp", "search", "lr", "ldlr"])
def test_array_numpy_cannot_hold_is_refused(tmp_path, capsys, experiment, payload, point):
    code, out = run_config(tmp_path / "big", payload, experiment=experiment)
    assert code == 2
    assert capsys.readouterr().err == (
        f"config error: grid point {point} needs an array larger than numpy can hold\n")
    assert not os.path.exists(out)


def test_array_bound_is_numpys():
    # the bound is numpy's: one float64 value more is its own "array is too
    # big", raised before any allocation.  At d 8, n_per_class 10^15 and
    # 2^56 - 1 (2^60 - 16 values) are under it, and 2^56 (2^60 values) is past it
    bound = np.iinfo(np.intp).max // 8
    with pytest.raises(ValueError, match="array is too big"):
        np.empty(bound + 1)
    for n, ok in ((10**15, True), (bound // 16, True), (bound // 16 + 1, False)):
        raw = dict(TINY_TRAIN_CFG, d=[8], n_per_class=[n], n_test_per_class=1)
        if ok:
            assert cli._validate(raw).tasks
        else:
            with pytest.raises(cli.ConfigError, match="larger than numpy can hold"):
                cli._validate(raw)


@pytest.mark.parametrize("g", ["rademacher", "uniform"])
def test_lr_curve_refuses_a_beta_past_float_precision(tmp_path, capsys, g):
    # from beta ~ 1e16, (1+beta)^2 - beta^2 cancels to 0 and f(beta, 1) is nan;
    # the run wrote nan and gamma_beta 0.0, which claims no divergence
    code, out = run_config(tmp_path / "beta", dict(LR_CFG, beta=[1.0, 1e16], g=g))
    assert code == 2
    assert capsys.readouterr().err == (
        f"config error: f(beta, 1) of g = {g} is nan in floats at beta = 1e+16\n")
    assert not os.path.exists(out)


# One small config per subcommand, with the NLGP sampler wherever it can run.
TINY_CONFIGS = {
    "generate": dict(GENERATE_CFG, model={"kind": "nlgp", "d": 5, "gain": 3.0}),
    "lr-curve": LR_CFG,
    "ldlr-bounds": LDLR_CFG,
    "search-curve": SEARCH_CFG,
    "train-sweep": dict(TINY_TRAIN_CFG, task="nlgp"),
    "nlgp-localisation": NLGP_CFG,
}


# Run first in a fresh interpreter: a finder that records in `tried` every
# scipy module an import asks for and refuses it, as if scipy were not
# installed.  scipy is a test extra only (cumlab's special functions are
# `cumlab._special`), and it would load a second OpenBLAS and an array-API
# shim.
SCIPY_FINDER = (
    "import sys\n"
    "tried = []\n"
    "class RefuseScipy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name.split('.')[0] == 'scipy':\n"
    "            tried.append(name)\n"
    "            raise ImportError('scipy is not installed')\n"
    "sys.meta_path.insert(0, RefuseScipy())\n"
)
# The run probe's training runs beside the tiny configs: the network and
# random features on both spiked tasks
PROBE_TRAIN_RUNS = {
    "train-sweep spiked_wishart": TINY_TRAIN_CFG,
    "train-sweep spiked_cumulant": dict(TINY_TRAIN_CFG, task="spiked_cumulant", beta=10.0),
}


def probe_cli_import():
    """Import `cumlab.cli` in a fresh interpreter under SCIPY_FINDER; return
    the scipy modules the import tried and every module it loaded.  The
    session fixture `cli_import_probe` runs it once."""
    code = SCIPY_FINDER + "import json, cumlab.cli\nprint(json.dumps([tried, sorted(sys.modules)]))\n"
    return json.loads(run_fresh_python(code))


def probe_cli_runs(tmp_path):
    """In one fresh interpreter under SCIPY_FINDER, check that the finder
    refuses `import scipy.special`, then run at --jobs 1, so every point runs
    there and its imports count, the tiny config of every subcommand and
    PROBE_TRAIN_RUNS.  Return whether the finder refused and, for each run,
    its exit code and the scipy modules it tried.  The session fixture
    `cli_run_probe` runs it once."""
    payloads = {experiment: TINY_CONFIGS[experiment] for experiment in sorted(cli.EXPERIMENTS)}
    payloads.update(PROBE_TRAIN_RUNS)
    argvs = {}
    for i, (name, payload) in enumerate(payloads.items()):
        out = str(tmp_path / str(i))
        argvs[name] = [payload["experiment"], "--config", write_config(out, payload), "--out", out,
                       "--jobs", "1"]
    code = SCIPY_FINDER + (
        "import json\n"
        "try:\n"
        "    import scipy.special\n"
        "except ImportError:\n"
        "    refused = tried == ['scipy']\n"
        "else:\n"
        "    refused = False\n"
        "tried.clear()\n"
        "from cumlab import cli\n"
        "runs = {}\n"
        f"for name, argv in {argvs!r}.items():\n"
        "    runs[name] = [cli.main(argv), tried[:]]\n"
        "    tried.clear()\n"
        "print(json.dumps([refused, runs]))\n"
    )
    return json.loads(run_fresh_python(code))


def test_import_leaves_scipy_integrate_unloaded(cli_import_probe):
    # the import tries no scipy module at all, scipy.integrate among them
    tried, _ = cli_import_probe
    assert tried == []


@pytest.mark.parametrize("module", [
    "orjson",  # only the dataset CSV writer needs it, and imports it itself
    "multiprocessing",  # only a run at --jobs above 1 needs it
    "numpy.random",  # numpy loads it at the first np.random access, which no import makes
])
def test_import_leaves_module_unloaded(cli_import_probe, module):
    # each is left to first use to keep the CLI's start-up short: numpy.random
    # alone takes about 17 ms to import
    _, loaded = cli_import_probe
    assert module not in loaded


def test_import_leaves_numpy_polynomial_unloaded(cli_import_probe):
    # only the Uniform Gauss-Legendre rule needs it, built on first use
    _, loaded = cli_import_probe
    assert "numpy.polynomial" not in loaded


@pytest.mark.parametrize("experiment", sorted(cli.EXPERIMENTS))
def test_no_subcommand_loads_scipy(cli_run_probe, experiment):
    # cumlab's special functions are its own (`cumlab._special`); scipy is a
    # test oracle only
    _, runs = cli_run_probe
    assert runs[experiment][1] == []


@pytest.mark.parametrize("experiment", sorted(cli.EXPERIMENTS))
def test_every_subcommand_runs_without_scipy(cli_run_probe, experiment):
    # scipy is a test extra, not a runtime dependency
    refused, runs = cli_run_probe
    assert refused
    assert runs[experiment][0] == 0


def test_wishart_and_cumulant_points_load_no_scipy(cli_run_probe):
    # the network and random-features path of a spiked point must not need it
    _, runs = cli_run_probe
    assert {name: runs[name] for name in PROBE_TRAIN_RUNS} == {
        name: [0, []] for name in PROBE_TRAIN_RUNS}


@pytest.mark.parametrize("fmt", ["binary", "both"])
@pytest.mark.parametrize("change, message", [
    ({"n_per_class": 2**31}, "config key 'n_per_class' has value 2147483648, too large for format"),
    ({"model": {"kind": "null", "d": 2**32}},
     "config key 'model.d' has value 4294967296, too large for format"),
], ids=["n_per_class", "d"])
def test_binary_header_bound_is_refused(tmp_path, capsys, fmt, change, message):
    # the .bin header holds 2 * n_per_class and d as uint32: past 2^32 - 1 the
    # config is refused before any array is made, not in the writer after
    # allocating 32 GiB or more.  These configs are only ever validated
    code, out = run_config(tmp_path / "big", {**GENERATE_CFG, **change, "format": fmt})
    assert code == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


def test_binary_header_bound_is_the_uint32_range():
    # validation only, no run: 2 * n_per_class and d at 2^32 - 1 pass in a
    # binary format, and a CSV has no such bound
    def valid(**change):
        return cli._validate({**GENERATE_CFG, **change}).tasks == [(("dataset",), 0)]

    assert valid(n_per_class=2**31 - 1, format="binary")
    assert valid(model={"kind": "null", "d": 2**32 - 1}, format="both")
    assert valid(n_per_class=2**31, format="csv")
    assert valid(model={"kind": "null", "d": 2**32}, format="csv")


@pytest.mark.parametrize("experiment, payload, message", [
    ("train-sweep", dict(TINY_TRAIN_CFG, runs=2.5), "'runs' has value 2.5"),
    ("train-sweep", dict(TINY_TRAIN_CFG, rf="false"), "'rf' has value 'false'"),
    ("train-sweep", dict(TINY_TRAIN_CFG, rf_ridge=True), "'rf_ridge' has value True"),
    ("train-sweep", dict(TINY_TRAIN_CFG, n_test_per_class="x"),
     "'n_test_per_class' has value 'x'"),
    ("train-sweep", dict(TINY_TRAIN_CFG, beta="x"), "'beta' has value 'x'"),
    ("train-sweep", dict(TINY_TRAIN_CFG, gain=[2.0]), "'gain' has value [2.0]"),
    ("search-curve", dict(SEARCH_CFG, beta=True), "'beta' has value True"),
    ("search-curve", {k: v for k, v in SEARCH_CFG.items() if k != "beta"},
     "missing config key 'beta'"),
    ("nlgp-localisation", dict(NLGP_CFG, xi="1"), "'xi' has value '1'"),
    ("nlgp-localisation", dict(NLGP_CFG, periodic=1), "'periodic' has value 1"),
    ("lr-curve", dict(LR_CFG, log10="yes"), "unknown config key 'log10'"),
    ("ldlr-bounds", dict(LDLR_CFG, exact=True), "unknown config key 'exact'"),
    ("train-sweep", dict(TINY_TRAIN_CFG, rf_ridge=0), "'rf_ridge' has value 0.0, expected > 0"),
    ("train-sweep", dict(TINY_TRAIN_CFG, rf_ridge=-1.0),
     "'rf_ridge' has value -1.0, expected > 0"),
    ("train-sweep", dict(TINY_TRAIN_CFG, n_test_per_class=0),
     "'n_test_per_class' has value 0, expected >= 1"),
    ("train-sweep", dict(TINY_TRAIN_CFG, task="nlgp", gain=0.0),
     "'gain' has value 0.0, expected > 0"),
    ("train-sweep", dict(TINY_TRAIN_CFG, task="nlgp", xi=0), "'xi' has value 0.0, expected > 0"),
    ("search-curve", dict(SEARCH_CFG, runs=0), "'runs' has value 0, expected >= 1"),
    ("nlgp-localisation", dict(NLGP_CFG, gain=0), "'gain' has value 0.0, expected > 0"),
    ("nlgp-localisation", dict(NLGP_CFG, xi=-1), "'xi' has value -1.0, expected > 0"),
    ("nlgp-localisation", dict(NLGP_CFG, d=65), "'d' has value 65, expected >= 1 and <= 64"),
    ("nlgp-localisation", dict(NLGP_CFG, d=0), "'d' has value 0, expected >= 1 and <= 64"),
    ("nlgp-localisation", dict(NLGP_CFG, n_per_d=[0.1]),
     "'n_per_d' has value 0.1, which gives n = 1 at d = 8"),
    ("train-sweep", dict(TINY_TRAIN_CFG, train={"epochz": 3}), "unknown train key 'epochz'"),
    ("train-sweep", dict(TINY_TRAIN_CFG, train={"alpha_lazy": 2.0}),
     "unknown train key 'alpha_lazy'; expected one of epochs, batch_size, width_factor, "
     "learning_rate, weight_decay"),
    ("train-sweep", dict(TINY_TRAIN_CFG, train={"seed": 3}), "unknown train key 'seed'"),
    ("train-sweep", dict(TINY_TRAIN_CFG, train={"epochs": 2.5}),
     "'train.epochs' has value 2.5, expected int"),
    ("train-sweep", dict(TINY_TRAIN_CFG, train={"batch_size": "8"}),
     "'train.batch_size' has value '8', expected int"),
    ("train-sweep", dict(TINY_TRAIN_CFG, train={"width_factor": True}),
     "'train.width_factor' has value True, expected int"),
    ("train-sweep", dict(TINY_TRAIN_CFG, train={"learning_rate": "0.1"}),
     "'train.learning_rate' has value '0.1', expected float"),
    ("train-sweep", dict(TINY_TRAIN_CFG, train={"weight_decay": None}),
     "'train.weight_decay' has value None, expected float"),
    ("train-sweep", dict(TINY_TRAIN_CFG, train={"loss": 5}), "unknown train key 'loss'"),
    ("train-sweep", dict(TINY_TRAIN_CFG, train={"loss": "squared"}), "unknown train key 'loss'"),
    ("generate", dict(GENERATE_CFG, name="sub/x"),
     "'name' has value 'sub/x', expected a file name with no path separator"),
    ("generate", dict(GENERATE_CFG, name=5), "'name' has value 5, expected str"),
    ("generate", dict(GENERATE_CFG, name=""), "'name' has value '', expected a file name"),
    ("generate", dict(GENERATE_CFG, name="."), "'name' has value '.', expected a file name"),
    ("generate", dict(GENERATE_CFG, name=".."), "'name' has value '..', expected a file name"),
    ("generate", dict(GENERATE_CFG, model={"kind": "foo", "d": 2}),
     "'model.kind' has value 'foo', expected one of null, spiked_wishart"),
    ("generate", dict(GENERATE_CFG, model={"kind": "null", "d": "5"}),
     "'model.d' has value '5', expected int"),
    ("generate", dict(GENERATE_CFG, model={"kind": "null", "d": 2, "bta": 3}),
     "unknown model key 'bta'"),
    ("generate", dict(GENERATE_CFG, model={"kind": "null", "d": 0}),
     "'model.d' has value 0, expected >= 1"),
    ("search-curve", dict(SEARCH_CFG, seed=2.7), "'seed' has value 2.7, expected int"),
    ("search-curve", dict(SEARCH_CFG, seed=True), "'seed' has value True, expected int"),
    ("search-curve", dict(SEARCH_CFG, seed="x"), "'seed' has value 'x', expected int"),
    ("search-curve", WithEnv(SEARCH_CFG, CUMLAB_SEED="abc"),
     "CUMLAB_SEED has value 'abc', expected int"),
    ("search-curve", dict(SEARCH_CFG, runz=5), "unknown config key 'runz'"),
    ("lr-curve", dict(LR_CFG, runs=2), "unknown config key 'runs'"),
    ("generate", dict(GENERATE_CFG, negative_model={"kind": "null", "d": 5, "dd": 5}),
     "unknown negative_model key 'dd'"),
    ("train-sweep", dict(TINY_TRAIN_CFG, alpha_lazy=[1.0, 0.5]),
     "'alpha_lazy' has value 0.5, expected >= 1"),
    ("train-sweep", dict(TINY_TRAIN_CFG, train={"epochs": 0}),
     "'train.epochs' has value 0, expected >= 1"),
    ("lr-curve", dict(LR_CFG, beta=-1), "'beta' has value -1.0, expected >= 0"),
    ("ldlr-bounds", dict(LDLR_CFG, D=[4, -2]), "'D' has value -2, expected >= 0"),
    ("search-curve", dict(SEARCH_CFG, d=0), "'d' has value 0, expected >= 1 and <= 30"),
    ("search-curve", [SEARCH_CFG], "the config is a JSON list, not an object"),
    ("train-sweep", dict(TINY_TRAIN_CFG, train={"learning_rate": -1}),
     "'train.learning_rate' has value -1.0, expected > 0"),
    ("train-sweep", dict(TINY_TRAIN_CFG, train={"learning_rate": 0}),
     "'train.learning_rate' has value 0.0, expected > 0"),
    ("train-sweep", dict(TINY_TRAIN_CFG, train={"weight_decay": -0.5}),
     "'train.weight_decay' has value -0.5, expected >= 0"),
    ("generate", dict(GENERATE_CFG, name="a,b"),
     "'name' has value 'a,b', expected a file name with no path separator, comma, double quote"),
    ("generate", dict(GENERATE_CFG, name='a"b'), "'name' has value 'a\"b', expected a file name"),
    ("generate", dict(GENERATE_CFG, name="a\nb"), "'name' has value 'a\\nb', expected a file name"),
    ("generate", dict(GENERATE_CFG, name="a\rb"), "'name' has value 'a\\rb', expected a file name"),
    ("search-curve", dict(SEARCH_CFG, beta=float("nan")),
     "'beta' has value nan, expected a finite number"),
    ("nlgp-localisation", dict(NLGP_CFG, gain=float("inf")),
     "'gain' has value inf, expected a finite number"),
    ("train-sweep", dict(TINY_TRAIN_CFG, train={"weight_decay": float("inf")}),
     "'train.weight_decay' has value inf, expected a finite number"),
    ("generate", dict(GENERATE_CFG, model={"kind": "null", "d": 2, "beta": float("nan")}),
     "'model.beta' has value nan, expected a finite number"),
    ("generate", dict(GENERATE_CFG, name="rows_written", format="csv"),
     "'name' has value 'rows_written', expected a file name"),
    ("generate", dict(GENERATE_CFG, name="errors"), "'name' has value 'errors', expected"),
    ("generate", dict(GENERATE_CFG, name="plot_rows_written"),
     "'name' has value 'plot_rows_written', expected"),
    ("search-curve", dict(SEARCH_CFG, beta=-10**400),
     "'beta' has an integer value of 401 digits, expected a finite number"),
    # a model object is checked by the key table alone, for every kind
    ("generate", dict(GENERATE_CFG, model={"kind": "null", "d": 2, "beta": -1}),
     "'model.beta' has value -1.0, expected >= 0 and <= 1e+100"),
    ("generate", dict(GENERATE_CFG, negative_model={"kind": "nlgp", "d": 5, "xi": 0}),
     "'negative_model.xi' has value 0.0, expected > 0"),
    ("generate", dict(GENERATE_CFG, model={"kind": "spiked_wishart", "d": 3, "gain": 0}),
     "'model.gain' has value 0.0, expected > 0 and <= 1e+100"),
    # past 1e100 a beta or gain overflows the samplers, the search and the bounds
    ("search-curve", dict(SEARCH_CFG, d=[8], theta=[1.5], beta=1e200, runs=2),
     "'beta' has value 1e+200, expected >= 0 and <= 1e+100"),
    ("generate", {"experiment": "generate", "model": {"kind": "nlgp", "d": 3, "gain": 1e160},
                  "n_per_class": 2},
     "'model.gain' has value 1e+160, expected > 0 and <= 1e+100"),
    ("generate", dict(GENERATE_CFG, model={"kind": "spiked_wishart", "d": 3, "beta": 1e101}),
     "'model.beta' has value 1e+101, expected >= 0 and <= 1e+100"),
    ("nlgp-localisation", dict(NLGP_CFG, gain=1e154),
     "'gain' has value 1e+154, expected > 0 and <= 1e+100"),
    ("train-sweep", dict(TINY_TRAIN_CFG, beta=1e101),
     "'beta' has value 1e+101, expected >= 0 and <= 1e+100"),
    ("train-sweep", dict(TINY_TRAIN_CFG, task="nlgp", gain=1e101),
     "'gain' has value 1e+101, expected > 0 and <= 1e+100"),
    ("generate", dict(GENERATE_CFG, negative_model={"kind": "null", "d": 4}),
     "negative_model dimension differs from model dimension"),
])
def test_bad_scalar_value_is_refused(tmp_path, capsys, monkeypatch, experiment, payload, message):
    # scalar keys are checked like grid values: never truncated, cast or
    # read as a truth value, and out-of-range values are refused before
    # any point runs
    for var, val in getattr(payload, "env", {}).items():
        monkeypatch.setenv(var, val)
    code, out = run_config(tmp_path / "bad", payload, experiment=experiment)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


def test_success_rate_leaves_out_failed_runs(tmp_path, monkeypatch):
    real_search = cli.detect.exhaustive_search
    calls = []

    def flaky_search(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:  # point (7, 0.5), run 1
            raise RuntimeError("injected search failure")
        return real_search(*args, **kwargs)

    monkeypatch.setattr(cli.detect, "exhaustive_search", flaky_search)
    code, out = run_config(tmp_path / "f", SEARCH_CFG, "--jobs", "1")
    assert code == 1
    with open(os.path.join(out, "success.csv")) as fh:
        rows = [r.split(",") for r in fh.read().strip().splitlines()[1:]]
    hits = {theta: sum(float(r[3]) for r in rows if r[1] == theta) for theta in ("0.5", "1.25")}
    assert [r[2] for r in rows if r[1] == "0.5"] == ["0", "2", "3", "4", "5"]
    with open(os.path.join(out, "success_rate.csv")) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[1:] == [
        f"0.5,{hits['0.5'] / 5},5,7,10.0,21",
        f"1.25,{hits['1.25'] / 6},6,7,10.0,21",
    ]


def test_search_success_is_recovery_up_to_sign(tmp_path, monkeypatch):
    # the search returns the spike with first coordinate +1, so a drawn spike
    # that starts with -1 is recovered as its negative, which is a success
    monkeypatch.setattr(cli.datagen, "draw_spike",
                        lambda d, rng: np.array([-1.0, 1.0, 1.0, -1.0, 1.0, -1.0]))
    code, out = run_config(tmp_path / "s", dict(SEARCH_CFG, d=6, theta=[2.0], runs=3),
                           "--jobs", "1")
    assert code == 0
    with open(os.path.join(out, "success_rate.csv")) as fh:
        assert fh.read().splitlines()[1] == "2.0,1.0,3,6,10.0,21"


# Fixed values: rng.derive_key renders each coordinate with str(), so a
# coordinate read as 1 instead of 1.0 would move every seed.  The ldlr-bounds
# config sends "D": "auto", which gives D = 1 at n = 2 and D = 6 at n = 20.
PINNED_SEEDS = [
    ({"experiment": "generate", "seed": 3, "n_per_class": 2,
      "model": {"kind": "null", "d": 2}, "format": "csv"},
     {"dataset#0": 4988806115026997936}),
    ({"experiment": "lr-curve", "seed": 1, "d": 8, "theta": [1, 1.5], "beta": 2},
     {"8,1.0,2.0#0": 17201372366182443092, "8,1.5,2.0#0": 16341161950635149572}),
    ({"experiment": "ldlr-bounds", "seed": 1, "d": 3, "n": [2, 20], "D": "auto", "beta": 1},
     {"3,2,1,1.0#0": 1957275678044806748, "3,20,6,1.0#0": 11692785613645657184}),
    ({"experiment": "search-curve", "seed": 21, "d": 4, "theta": 1, "beta": 10, "runs": 2},
     {"4,1.0#0": 11529923857033211459, "4,1.0#1": 3339359314873694545}),
    ({"experiment": "train-sweep", "seed": 6, "task": "nlgp", "d": 4, "n_per_class": 8,
      "alpha_lazy": [1, 10], "n_test_per_class": 4, "train": {"epochs": 1}, "rf": False},
     {"4,8,1.0#0": 2505864309745939901, "4,8,10.0#0": 15814498051973090716}),
    ({"experiment": "nlgp-localisation", "seed": 7, "d": 4, "n_per_d": [1, 2.5], "runs": 2},
     {"4,4,nlgp#0": 514460247355037930, "4,4,nlgp#1": 14150707050999293990,
      "4,4,gp_match#0": 5585671326017380919, "4,4,gp_match#1": 4571038558550077936,
      "4,10,nlgp#0": 5919477147589199855, "4,10,nlgp#1": 191750432496125631,
      "4,10,gp_match#0": 2833860317993880910, "4,10,gp_match#1": 9493547002783410989}),
]


@pytest.mark.parametrize("payload, seeds", PINNED_SEEDS,
                         ids=[payload["experiment"] for payload, _ in PINNED_SEEDS])
def test_point_seeds_are_pinned(tmp_path, payload, seeds):
    code, out = run_config(tmp_path / "out", payload)
    assert code == 0
    assert json.loads(read_bytes(os.path.join(out, "manifest.json")))["point_seeds"] == seeds


@pytest.mark.parametrize("payload, jobs", [(payload, "1") for payload, _ in PINNED_SEEDS]
                         + [(TINY_TRAIN_CFG, "2")],
                         ids=[payload["experiment"] for payload, _ in PINNED_SEEDS]
                         + ["train-sweep-jobs2"])
def test_manifest_outputs_list_every_file(tmp_path, payload, jobs):
    code, out = run_config(tmp_path / "out", payload, "--jobs", jobs)
    assert code == 0
    assert listing_is_outputs(out)


def test_dead_worker_fails_its_point(tmp_path):
    # Under a 3 s CPU limit, inherited by the forked workers, the worker
    # on the large point dies of SIGXCPU.  The sweep must record that point
    # as failed, write the small one and exit, not hang.  The run has its
    # own process group, killed at the end, so no worker outlives the test.
    out = str(tmp_path / "dead")
    cfg = write_config(out, {
        "experiment": "train-sweep", "seed": 1, "task": "spiked_wishart", "beta": 5.0,
        "d": [32], "n_per_class": [20, 20000], "n_test_per_class": 50, "rf": False,
        "train": {"epochs": 400, "batch_size": 8}})

    def limit_cpu():
        resource.setrlimit(resource.RLIMIT_CPU, (3, 3))
        resource.setrlimit(resource.RLIMIT_CORE, (0, 0))

    proc = subprocess.Popen(
        [sys.executable, "-m", "cumlab.cli", "train-sweep", "--config", cfg, "--out", out,
         "--jobs", "2"], env=child_env(), preexec_fn=limit_cpu, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        assert proc.wait(timeout=60) == 1
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    with open(os.path.join(out, "errors.csv")) as fh:
        errors = fh.read().strip().splitlines()
    assert len(errors) == 2 and errors[1].startswith("32,20000,1.0,0,")
    assert "BrokenProcessPool" in errors[1]
    with open(os.path.join(out, "nn_early_stop_acc.csv")) as fh:
        rows = fh.read().strip().splitlines()
    assert [row.split(",")[:4] for row in rows[1:]] == [["32", "20", "1.0", "0"]]
    assert listing_is_outputs(out)


def describe(name, key):
    """Key `name` as the README's config schema lists it."""
    if key.kind is None:
        kind = "one of `" + "|".join(map(str, key.choices)) + "`"
    else:
        kind = "object" if key.kind is dict else key.kind.__name__
        kind += "".join(f" or `{json.dumps(choice)}`" for choice in key.choices)
        kind += " grid" * key.grid
    parts = [kind] + ([key.check[1]] if key.check else [])
    if key.default is cli.REQUIRED or key.default is cli.OPTIONAL:
        parts.append("required" if key.default is cli.REQUIRED else "optional")
    else:
        parts.append(f"default `{json.dumps(key.default)}`")
    return f"`{name}` ({', '.join(parts)})"


def schema_lines():
    """The lines of the README's config schema that list the keys."""
    yield "Keys of every experiment: " + ", ".join(
        describe(n, k) for n, k in cli.COMMON_KEYS.items()) + "."
    objects = {}
    for name, exp in cli.EXPERIMENTS.items():
        yield f"* `{name}`: " + ", ".join(describe(n, k) for n, k in exp.keys.items()) + "."
        for n, k in exp.keys.items():
            if k.keys is not None:
                objects.setdefault(id(k.keys), (k.keys, set()))[1].add(n)
    for keys, names in objects.values():
        yield (" and ".join(f"`{n}`" for n in sorted(names)) + " object keys: "
               + ", ".join(describe(n, k) for n, k in keys.items()) + ".")


def test_model_parameters_have_one_rule():
    # beta, gain, xi and g take the same values wherever a key of that name
    # appears, in every experiment and in the model objects; defaults may differ
    tables = [exp.keys for exp in cli.EXPERIMENTS.values()] + [cli._MODEL.keys]
    for name in ("beta", "gain", "xi", "g"):
        rules = {(key.kind, key.choices, key.check and key.check[1])
                 for keys in tables for key_name, key in keys.items() if key_name == name}
        assert len(rules) == 1, (name, rules)


def test_readme_schema_lists_every_key():
    # the schema section is generated from the experiment table: print the
    # lines of schema_lines() and paste them over the stale ones
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme) as fh:
        text = fh.read()
    section = text[text.index("### Config schema"):]
    section = section[:section.index("\n### ", 1)]
    for line in schema_lines():
        assert f"\n{line}\n" in section, line
