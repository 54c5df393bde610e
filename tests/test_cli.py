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
from cumlab import cli, datagen, ldlr
from cumlab.hermite import GDistribution


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(args):
    return cli.main(args)


SEARCH_CFG = {
    "experiment": "search-curve",
    "seed": 21,
    "d": 7,
    "theta": [0.5, 1.25],
    "beta": 10.0,
    "g": "rademacher",
    "runs": 6,
}


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_search_curve_deterministic_across_jobs(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", SEARCH_CFG)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run_cli(["search-curve", "--config", cfg, "--out", out1, "--jobs", "1"]) == 0
    assert run_cli(["search-curve", "--config", cfg, "--out", out2, "--jobs", "3"]) == 0
    for name in ("success.csv", "success_rate.csv"):
        assert read_bytes(os.path.join(out1, name)) == read_bytes(os.path.join(out2, name))
    # idempotent overwrite
    assert run_cli(["search-curve", "--config", cfg, "--out", out1, "--jobs", "2"]) == 0
    assert read_bytes(os.path.join(out1, "success.csv")) == read_bytes(
        os.path.join(out2, "success.csv")
    )
    with open(os.path.join(out1, "success_rate.csv")) as fh:
        header = fh.readline().strip()
    assert header == "theta,success_rate,runs,d,beta,seed"


def test_manifest_contents(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", SEARCH_CFG)
    out = str(tmp_path / "m")
    run_cli(["search-curve", "--config", cfg, "--out", out, "--jobs", "1"])
    manifest = json.loads(read_bytes(os.path.join(out, "manifest.json")))
    assert manifest["experiment"] == "search-curve"
    assert manifest["seed"] == 21
    assert manifest["config"]["theta"] == [0.5, 1.25]
    assert manifest["metrics"] == ["success"]
    assert manifest["version"].startswith("cumlab-")
    assert len(manifest["point_seeds"]) == 2 * 6
    assert manifest["failed_points"] == 0


def test_seed_env_override(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, "cfg.json", SEARCH_CFG)
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    run_cli(["search-curve", "--config", cfg, "--out", out1, "--jobs", "1"])
    monkeypatch.setenv("CUMLAB_SEED", "999")
    run_cli(["search-curve", "--config", cfg, "--out", out2, "--jobs", "1"])
    monkeypatch.delenv("CUMLAB_SEED")
    m2 = json.loads(read_bytes(os.path.join(out2, "manifest.json")))
    assert m2["seed"] == 999
    assert read_bytes(os.path.join(out1, "success.csv")) != read_bytes(
        os.path.join(out2, "success.csv")
    )


def test_config_error_exit_code(tmp_path):
    cfg = write_config(tmp_path, "bad.json", {"experiment": "lr-curve", "seed": 1, "d": [8]})
    assert run_cli(["lr-curve", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    mismatched = write_config(tmp_path, "mm.json", SEARCH_CFG)
    assert run_cli(["lr-curve", "--config", mismatched, "--out", str(tmp_path / "y")]) == 2
    missing = str(tmp_path / "nope.json")
    assert run_cli(["lr-curve", "--config", missing, "--out", str(tmp_path / "z")]) == 2


def test_partial_failure_exit_code(tmp_path):
    # an exact-norm budget blowup on one grid point: error row + exit 1
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {
            "experiment": "ldlr-bounds",
            "seed": 2,
            "d": [3, 16],
            "n": [40],
            "D": [8],
            "beta": [10.0],
            "exact": True,
        },
    )
    out = str(tmp_path / "pf")
    assert run_cli(["ldlr-bounds", "--config", cfg, "--out", out, "--jobs", "1"]) == 1
    with open(os.path.join(out, "errors.csv")) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "d,n,D,beta,run,error"
    assert len(lines) == 2 and lines[1].startswith("16,40,8,10.0,0")
    # the healthy point still produced records
    assert os.path.exists(os.path.join(out, "log_lower.csv"))


def test_clean_rerun_removes_stale_errors_csv(tmp_path):
    # a failed point writes errors.csv; a clean rerun into the same
    # directory must not leave it behind
    cfg = {"experiment": "ldlr-bounds", "seed": 2, "d": [3, 16], "n": [40], "D": [8],
           "beta": [10.0], "exact": True}
    out = str(tmp_path / "rerun")
    failing = write_config(tmp_path, "failing.json", cfg)
    assert run_cli(["ldlr-bounds", "--config", failing, "--out", out]) == 1
    assert os.path.exists(os.path.join(out, "errors.csv"))
    clean = write_config(tmp_path, "clean.json", dict(cfg, d=[3]))
    assert run_cli(["ldlr-bounds", "--config", clean, "--out", out]) == 0
    assert not os.path.exists(os.path.join(out, "errors.csv"))
    assert json.loads(read_bytes(os.path.join(out, "manifest.json")))["failed_points"] == 0


def test_rerun_removes_metric_csv_it_does_not_write(tmp_path):
    # the first run writes rf_acc.csv; a rerun without random features into
    # the same directory must not leave it behind
    cfg = dict(TINY_TRAIN_CFG, n_per_class=[40])
    out = str(tmp_path / "rf")
    with_rf = write_config(tmp_path, "rf.json", cfg)
    assert run_cli(["train-sweep", "--config", with_rf, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "rf_acc.csv"))
    without_rf = write_config(tmp_path, "norf.json", dict(cfg, rf=False))
    assert run_cli(["train-sweep", "--config", without_rf, "--out", out]) == 0
    assert not os.path.exists(os.path.join(out, "rf_acc.csv"))
    manifest = json.loads(read_bytes(os.path.join(out, "manifest.json")))
    assert sorted(f for f in os.listdir(out) if f.endswith(".csv")) == sorted(
        f"{m}.csv" for m in manifest["metrics"])


def test_failed_rerun_removes_every_earlier_output(tmp_path):
    # a clean run, then one whose only point fails: no metric CSV and no
    # aggregate of the first run survives beside the new errors.csv
    cfg = {"experiment": "ldlr-bounds", "seed": 2, "d": [3], "n": [40], "D": [8],
           "beta": [10.0], "exact": True}
    out = str(tmp_path / "failed")
    clean = write_config(tmp_path, "clean.json", cfg)
    assert run_cli(["ldlr-bounds", "--config", clean, "--out", out]) == 0
    first = set(os.listdir(out))
    assert {"ldlr_bounds.csv", "log_lower.csv", "log_exact.csv"} <= first
    failing = write_config(tmp_path, "failing.json", dict(cfg, d=[16]))
    assert run_cli(["ldlr-bounds", "--config", failing, "--out", out]) == 1
    assert sorted(os.listdir(out)) == ["errors.csv", "manifest.json"]


def test_unreadable_manifest_removes_nothing(tmp_path):
    out = tmp_path / "keep"
    out.mkdir()
    (out / "manifest.json").write_text("{not json")
    (out / "kept.csv").write_text("x\n")
    cfg = write_config(tmp_path, "cfg.json", {"experiment": "ldlr-bounds", "seed": 2, "d": [3],
                                              "n": [4], "D": [2], "beta": [1.0]})
    assert run_cli(["ldlr-bounds", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "kept.csv").read_text() == "x\n"


def listing_is_outputs(out):
    """Whether the manifest's outputs name every other file in `out`."""
    manifest = json.loads(read_bytes(os.path.join(out, "manifest.json")))
    return manifest["outputs"] == sorted(set(os.listdir(out)) - {"manifest.json"})


def test_rerun_removes_plot_files(tmp_path):
    # plot files of the exact run would sit beside metric CSVs of the new one
    cfg = {"experiment": "ldlr-bounds", "seed": 2, "d": [3], "n": [2], "D": [4],
           "beta": [1.0], "exact": True}
    out = str(tmp_path / "plots")
    exact = write_config(tmp_path, "exact.json", cfg)
    assert run_cli(["ldlr-bounds", "--config", exact, "--out", out]) == 0
    assert run_cli(["emit-plotdata", "--out", out]) == 0
    assert "plot_log_exact.csv" in os.listdir(out)
    plain = write_config(tmp_path, "plain.json", dict(cfg, exact=False))
    assert run_cli(["ldlr-bounds", "--config", plain, "--out", out]) == 0
    assert not [name for name in os.listdir(out) if name.startswith("plot_")]
    assert listing_is_outputs(out)


def test_generate_rerun_removes_dataset_of_another_name(tmp_path):
    out = str(tmp_path / "names")
    for name in ("a", "b"):
        cfg = write_config(tmp_path, f"{name}.json", dict(GENERATE_CFG, name=name))
        assert run_cli(["generate", "--config", cfg, "--out", out]) == 0
    assert sorted(os.listdir(out)) == ["b.bin", "b.csv", "manifest.json", "rows_written.csv"]
    assert listing_is_outputs(out)


def test_failed_generate_rerun_keeps_no_dataset(tmp_path, monkeypatch):
    # the files of a failed point are not written by this run: the old
    # dataset is removed, not adopted
    cfg = write_config(tmp_path, "gen.json", GENERATE_CFG)
    out = str(tmp_path / "gen")
    assert run_cli(["generate", "--config", cfg, "--out", out, "--jobs", "1"]) == 0

    def broken(*args, **kwargs):
        raise RuntimeError("injected sampler failure")

    monkeypatch.setattr(cli.datagen, "make_dataset", broken)
    assert run_cli(["generate", "--config", cfg, "--out", out, "--jobs", "1"]) == 1
    assert sorted(os.listdir(out)) == ["errors.csv", "manifest.json"]
    assert listing_is_outputs(out)


def test_failed_generate_point_leaves_no_dataset(tmp_path, monkeypatch):
    # the point writes a.csv, then its binary write fails: the CSV is
    # removed, not left in --out with no manifest naming it
    cfg = write_config(tmp_path, "gen.json", dict(GENERATE_CFG, name="a", format="both"))
    out = str(tmp_path / "gen")

    def broken(*args, **kwargs):
        raise OSError("injected write failure")

    monkeypatch.setattr(cli.datagen, "write_binary", broken)
    assert run_cli(["generate", "--config", cfg, "--out", out, "--jobs", "1"]) == 1
    assert sorted(os.listdir(out)) == ["errors.csv", "manifest.json"]
    assert listing_is_outputs(out)


def test_errors_csv_quotes_the_message(tmp_path, monkeypatch):
    # an OSError reprs a path holding ' in double quotes; errors.csv doubles
    # every embedded quote, so the row still parses as CSV (RFC 4180)
    def broken(*args, **kwargs):
        raise OSError(2, "No such file or directory", "it's, a.csv")

    monkeypatch.setattr(cli.datagen, "make_dataset", broken)
    cfg = write_config(tmp_path, "gen.json", GENERATE_CFG)
    out = str(tmp_path / "gen")
    assert run_cli(["generate", "--config", cfg, "--out", out, "--jobs", "1"]) == 1
    with open(os.path.join(out, "errors.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["name", "run", "error"], ["dataset", "0", "FileNotFoundError: [Errno 2] "
                                               "No such file or directory: \"it's, a.csv\""]]


def test_generate_round_trip(tmp_path):
    cfg = write_config(
        tmp_path,
        "gen.json",
        {
            "experiment": "generate",
            "seed": 4,
            "name": "toy",
            "n_per_class": 30,
            "model": {"kind": "spiked_cumulant", "d": 5, "beta": 10.0, "g": "rademacher"},
            "format": "both",
        },
    )
    out = str(tmp_path / "gen")
    assert run_cli(["generate", "--config", cfg, "--out", out]) == 0
    a = datagen.read_csv(os.path.join(out, "toy.csv"))
    b = datagen.read_binary(os.path.join(out, "toy.bin"))
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.labels, b.labels)
    assert a.n == 60 and a.d == 5
    # both files were renamed into place; no temp file is left over
    assert sorted(os.listdir(out)) == ["manifest.json", "rows_written.csv", "toy.bin", "toy.csv"]


def test_ldlr_bounds_csv_and_plotdata(tmp_path):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {
            "experiment": "ldlr-bounds",
            "seed": 3,
            "d": [3],
            "n": [2],
            "D": [4, 8],
            "beta": [1.0, 10.0],
            "exact": True,
        },
    )
    out = str(tmp_path / "lb")
    assert run_cli(["ldlr-bounds", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "log_exact.csv")) as fh:
        rows = fh.read().strip().splitlines()
    assert rows[0] == "d,n,D,beta,run,value"
    assert len(rows) == 5
    # the convenience CSV is BoundReport's own dialect, row for row
    rademacher = GDistribution.rademacher()
    with open(os.path.join(out, "ldlr_bounds.csv")) as fh:
        assert fh.read().splitlines() == [ldlr.BoundReport.CSV_HEADER] + [
            ldlr.bound_report(2, 3, D, beta, rademacher,
                              exact_budget=ldlr.EXACT_ENUMERATION_BUDGET).csv_row()
            for D in (4, 8) for beta in (1.0, 10.0)
        ]
    assert run_cli(["emit-plotdata", "--out", out]) == 0
    with open(os.path.join(out, "plot_log_exact.csv")) as fh:
        agg = fh.read().strip().splitlines()
    assert agg[0] == "d,n,D,beta,mean,sd,count"
    assert all(line.endswith(",0.0,1") for line in agg[1:])  # single runs: sd = 0


def test_emit_plotdata_errors(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli(["emit-plotdata", "--out", str(empty)]) == 2
    # a malformed manifest is refused, never a traceback
    for text in ("{", "[1,2]", '{"metrics": "abc"}'):
        (empty / "manifest.json").write_text(text)
        assert run_cli(["emit-plotdata", "--out", str(empty)]) == 2, text
    # manifest present but a metric CSV deleted -> exit 1, missing listed
    cfg = write_config(tmp_path, "cfg.json", SEARCH_CFG)
    out = str(tmp_path / "pd")
    run_cli(["search-curve", "--config", cfg, "--out", out, "--jobs", "1"])
    os.unlink(os.path.join(out, "success.csv"))
    assert run_cli(["emit-plotdata", "--out", out]) == 1


def test_cli_entry_point_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "cumlab.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for sub in ("generate", "lr-curve", "search-curve", "emit-plotdata"):
        assert sub in proc.stdout


def test_train_sweep_smoke(tmp_path):
    cfg = write_config(
        tmp_path,
        "cfg.json",
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
    )
    out = str(tmp_path / "ts")
    assert run_cli(["train-sweep", "--config", cfg, "--out", out, "--jobs", "1"]) == 0
    for metric in ("nn_early_stop_acc", "nn_final_max_overlap", "rf_acc"):
        assert os.path.exists(os.path.join(out, f"{metric}.csv")), metric


def test_train_sweep_nlgp_lazy_grid(tmp_path):
    # NLGP task trains against the matched Gaussian class; no spike, so no
    # overlap metric; alpha > 1 exercises the centred lazy path
    cfg = write_config(
        tmp_path,
        "cfg.json",
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
    out = str(tmp_path / "nlt")
    assert run_cli(["train-sweep", "--config", cfg, "--out", out]) == 0
    assert not os.path.exists(os.path.join(out, "nn_final_max_overlap.csv"))
    with open(os.path.join(out, "nn_early_stop_acc.csv")) as fh:
        rows = fh.read().strip().splitlines()
    alphas = {r.split(",")[2] for r in rows[1:]}
    assert alphas == {"1.0", "100.0"}


def test_nlgp_localisation_smoke(tmp_path):
    cfg = write_config(
        tmp_path,
        "cfg.json",
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
    out = str(tmp_path / "nl")
    assert run_cli(["nlgp-localisation", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "cp_ipr.csv")) as fh:
        rows = fh.read().strip().splitlines()
    assert rows[0] == "d,n,data_class,run,value"
    classes = {r.split(",")[2] for r in rows[1:]}
    assert classes == {"nlgp", "gp_match"}


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
    cfg = write_config(tmp_path, "cfg.json", TINY_TRAIN_CFG)
    out1, out2 = str(tmp_path / "j1"), str(tmp_path / "j2")
    assert run_cli(["train-sweep", "--config", cfg, "--out", out1, "--jobs", "1"]) == 0
    assert run_cli(["train-sweep", "--config", cfg, "--out", out2, "--jobs", "2"]) == 0
    csvs = sorted(n for n in os.listdir(out1) if n.endswith(".csv"))
    assert "rf_acc.csv" in csvs and "nn_final_max_ipr.csv" in csvs
    assert csvs == sorted(n for n in os.listdir(out2) if n.endswith(".csv"))
    for name in csvs:
        assert read_bytes(os.path.join(out1, name)) == read_bytes(os.path.join(out2, name)), name
    # the BLAS idle-wait settings are recorded at every --jobs
    m1, m2 = (json.loads(read_bytes(os.path.join(out, "manifest.json"))) for out in (out1, out2))
    assert m1["blas_idle_wait"] == m2["blas_idle_wait"] == cumlab.BLAS_IDLE_WAIT


BLAS_IDLE_WAIT_DEFAULTS = {"OPENBLAS_THREAD_TIMEOUT": "4", "OMP_WAIT_POLICY": "PASSIVE"}


def env_without_blas_settings(**values):
    """os.environ without BLAS wait or thread-count variables, plus `values`."""
    env = {var: val for var, val in os.environ.items()
           if var not in BLAS_IDLE_WAIT_DEFAULTS and not var.endswith("_NUM_THREADS")}
    return {**env, **values}


def test_import_sets_blas_idle_wait_before_numpy():
    # the hook sees os.environ as it is when numpy starts to load, which is
    # when numpy's OpenBLAS reads it
    code = (
        "import importlib.abc, json, os, sys\n"
        "seen = []\n"
        "class Hook(importlib.abc.MetaPathFinder):\n"
        "    def find_spec(self, name, path, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        "            seen.append({var: os.environ.get(var) for var in\n"
        "                         ('OPENBLAS_THREAD_TIMEOUT', 'OMP_WAIT_POLICY')})\n"
        "sys.meta_path.insert(0, Hook())\n"
        "import cumlab\n"
        "print(json.dumps([seen, cumlab.BLAS_IDLE_WAIT]))\n"
    )
    seen, recorded = json.loads(run_fresh_python(code, env_without_blas_settings()))
    assert seen == [BLAS_IDLE_WAIT_DEFAULTS]
    assert recorded == BLAS_IDLE_WAIT_DEFAULTS
    # numpy loaded first has read its settings already: nothing is recorded
    code = "import numpy, cumlab; print(cumlab.BLAS_IDLE_WAIT)"
    assert run_fresh_python(code, env_without_blas_settings()) == "None"


@pytest.mark.parametrize("jobs, user", [("1", {"OPENBLAS_THREAD_TIMEOUT": "30"}),
                                        ("2", {"OMP_WAIT_POLICY": "ACTIVE"})], ids=["1", "2"])
def test_blas_idle_wait_keeps_user_values(tmp_path, jobs, user):
    # the user set a thread count and one wait setting, not the other
    cfg = write_config(tmp_path, "cfg.json", TINY_TRAIN_CFG)
    out = str(tmp_path / "out")
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
    expected = {**BLAS_IDLE_WAIT_DEFAULTS, **user}
    assert {var: environ.get(var) for var in BLAS_IDLE_WAIT_DEFAULTS} == expected
    # the thread count, user-set or default, is left as it is
    assert {var: val for var, val in environ.items() if var.endswith("_NUM_THREADS")} == {
        "OPENBLAS_NUM_THREADS": "2",
    }
    manifest = json.loads(read_bytes(os.path.join(out, "manifest.json")))
    assert manifest["blas_idle_wait"] == expected


@pytest.mark.filterwarnings("error::DeprecationWarning")
def test_pool_workers_are_forked(tmp_path, monkeypatch):
    # Only a forked worker runs a runner patched in this process.  Python
    # 3.12 and later warn when a process forks while it has other threads,
    # so this test also fails when the pool forks a live thread.
    def worker_pid(params, point_seed, out):
        return {"worker_pid": float(os.getpid())}

    monkeypatch.setitem(cli.EXPERIMENTS, "search-curve", dataclasses.replace(
        cli.EXPERIMENTS["search-curve"], run=worker_pid, aggregate=None))
    cfg = write_config(tmp_path, "cfg.json", SEARCH_CFG)
    out = str(tmp_path / "out")
    assert run_cli(["search-curve", "--config", cfg, "--out", out, "--jobs", "2"]) == 0
    with open(os.path.join(out, "worker_pid.csv")) as fh:
        pids = {float(row["value"]) for row in csv.DictReader(fh)}
    assert pids and float(os.getpid()) not in pids and len(pids) <= 2


def run_fresh_python(code, env=None):
    """Run `code` in a fresh interpreter, so modules imported by other tests
    do not count; it imports the same cumlab package as this process.  `env`
    replaces os.environ as the interpreter's environment."""
    env = dict(os.environ if env is None else env)
    root = os.path.dirname(os.path.dirname(cumlab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_wishart_and_cumulant_points_load_no_scipy():
    # scipy loads a second OpenBLAS and an array-API shim: the CLI import and
    # the network and random-features path of a spiked point must not need it
    code = (
        "import sys, cumlab.cli\n"
        "from cumlab import datagen, learn, rng\n"
        "from cumlab.hermite import GDistribution\n"
        "u = datagen.draw_spike(8, rng.generator(1, 'spike'))\n"
        "for spec in (datagen.ModelSpec(kind=datagen.SPIKED_WISHART, d=8, beta=5.0, spike=u),\n"
        "             datagen.ModelSpec(kind=datagen.SPIKED_CUMULANT, d=8, beta=5.0, spike=u,\n"
        "                               g_dist=GDistribution.rademacher())):\n"
        "    train = datagen.make_dataset(spec, 40, 2)\n"
        "    test = datagen.make_dataset(spec, 40, 3)\n"
        "    learn.train_2lnn(train, test, u, learn.TrainConfig(epochs=2, batch_size=8))\n"
        "    learn.fit_random_features(train, test, learn.RFConfig(width=40))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert run_fresh_python(code) == "[]"


def test_import_leaves_scipy_integrate_unloaded():
    code = "import sys, cumlab.cli; print('scipy.integrate' in sys.modules)"
    assert run_fresh_python(code) == "False"


def test_import_leaves_orjson_unloaded():
    # only the dataset CSV writer needs orjson, and it imports it itself
    code = "import sys, cumlab.cli; print('orjson' in sys.modules)"
    assert run_fresh_python(code) == "False"


@pytest.mark.parametrize("experiment, payload, point", [
    ("search-curve", dict(SEARCH_CFG, d=[6, 6]), "d=6, theta=0.5 (run 0)"),
    ("train-sweep", dict(TINY_TRAIN_CFG, n_per_class=[40, 40]),
     "d=20, n_per_class=40, alpha_lazy=1.0 (run 0)"),
])
def test_duplicate_grid_point_is_refused(tmp_path, capsys, experiment, payload, point):
    # duplicate tasks share a point seed: their runs would be copies
    cfg = write_config(tmp_path, "dup.json", payload)
    out = str(tmp_path / "dup")
    assert run_cli([experiment, "--config", cfg, "--out", out]) == 2
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
])
def test_bad_grid_value_is_refused(tmp_path, capsys, experiment, payload, message):
    # a value of the wrong type is refused, never truncated or cast
    cfg = write_config(tmp_path, "bad.json", payload)
    out = str(tmp_path / "bad")
    assert run_cli([experiment, "--config", cfg, "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


class WithEnv(dict):
    """A config payload that runs with extra environment variables."""

    def __init__(self, payload, **env):
        super().__init__(payload)
        self.env = env


NLGP_CFG = {"experiment": "nlgp-localisation", "seed": 2, "d": 8, "n_per_d": [10]}
LR_CFG = {"experiment": "lr-curve", "seed": 1, "d": [8], "theta": [1.0], "beta": [1.0]}
LDLR_CFG = {"experiment": "ldlr-bounds", "seed": 1, "d": [8], "n": [20], "beta": [1.0]}


# One small config per subcommand, with the NLGP sampler wherever it can run.
# Only the LR norms and the LDLR bounds use scipy; a subcommand that stops
# needing it leaves SCIPY_USERS.
SCIPY_USERS = {"lr-curve", "ldlr-bounds"}
TINY_CONFIGS = {
    "generate": dict(GENERATE_CFG, model={"kind": "nlgp", "d": 5, "gain": 3.0}),
    "lr-curve": LR_CFG,
    "ldlr-bounds": LDLR_CFG,
    "search-curve": SEARCH_CFG,
    "train-sweep": dict(TINY_TRAIN_CFG, task="nlgp"),
    "nlgp-localisation": NLGP_CFG,
}


@pytest.mark.parametrize("experiment", sorted(cli.EXPERIMENTS))
def test_only_lr_and_ldlr_subcommands_load_scipy(tmp_path, experiment):
    # --jobs 1 runs every point in this interpreter, so its modules count
    cfg = write_config(tmp_path, "cfg.json", TINY_CONFIGS[experiment])
    argv = [experiment, "--config", cfg, "--out", str(tmp_path / "out"), "--jobs", "1"]
    code = (
        "import sys\n"
        "from cumlab import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
    )
    assert run_fresh_python(code) == str(experiment in SCIPY_USERS)


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
    ("lr-curve", dict(LR_CFG, log10="yes"), "'log10' has value 'yes'"),
    ("ldlr-bounds", dict(LDLR_CFG, exact=0), "'exact' has value 0"),
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
     "train key 'alpha_lazy' is set for each point"),
    ("train-sweep", dict(TINY_TRAIN_CFG, train={"seed": 3}), "train key 'seed' is set"),
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
     "model object: dimension d must be >= 1"),
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
])
def test_bad_scalar_value_is_refused(tmp_path, capsys, monkeypatch, experiment, payload, message):
    # scalar keys are checked like grid values: never truncated, cast or
    # read as a truth value, and out-of-range values are refused before
    # any point runs
    for var, val in getattr(payload, "env", {}).items():
        monkeypatch.setenv(var, val)
    cfg = write_config(tmp_path, "bad.json", payload)
    out = str(tmp_path / "bad")
    assert run_cli([experiment, "--config", cfg, "--out", out]) == 2
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
    cfg = write_config(tmp_path, "cfg.json", SEARCH_CFG)
    out = str(tmp_path / "f")
    assert run_cli(["search-curve", "--config", cfg, "--out", out, "--jobs", "1"]) == 1
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
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = str(tmp_path / "out")
    assert run_cli([payload["experiment"], "--config", cfg, "--out", out]) == 0
    assert json.loads(read_bytes(os.path.join(out, "manifest.json")))["point_seeds"] == seeds


@pytest.mark.parametrize("payload, jobs", [(payload, "1") for payload, _ in PINNED_SEEDS]
                         + [(TINY_TRAIN_CFG, "2")],
                         ids=[payload["experiment"] for payload, _ in PINNED_SEEDS]
                         + ["train-sweep-jobs2"])
def test_manifest_outputs_list_every_file(tmp_path, payload, jobs):
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = str(tmp_path / "out")
    assert run_cli([payload["experiment"], "--config", cfg, "--out", out, "--jobs", jobs]) == 0
    assert listing_is_outputs(out)


def test_dead_worker_fails_its_point(tmp_path):
    # Under a 3 s CPU limit, inherited by the forked workers, the worker
    # on the large point dies of SIGXCPU.  The sweep must record that point
    # as failed, write the small one and exit, not hang.  The run has its
    # own process group, killed at the end, so no worker outlives the test.
    cfg = write_config(tmp_path, "cfg.json", {
        "experiment": "train-sweep", "seed": 1, "task": "spiked_wishart", "beta": 5.0,
        "d": [32], "n_per_class": [20, 20000], "n_test_per_class": 50, "rf": False,
        "train": {"epochs": 400, "batch_size": 8}})
    out = str(tmp_path / "dead")
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(cumlab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))

    def limit_cpu():
        resource.setrlimit(resource.RLIMIT_CPU, (3, 3))
        resource.setrlimit(resource.RLIMIT_CORE, (0, 0))

    proc = subprocess.Popen(
        [sys.executable, "-m", "cumlab.cli", "train-sweep", "--config", cfg, "--out", out,
         "--jobs", "2"], env=env, preexec_fn=limit_cpu, start_new_session=True,
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
    if key is cli.PER_POINT:
        return f"`{name}` (set for each point, refused)"
    if key.kind is None:
        kind = "one of `" + "|".join(map(str, key.choices)) + "`"
    else:
        kind = ("object" if key.kind is dict else key.kind.__name__) + " grid" * key.grid
        kind += "".join(f" or `{json.dumps(choice)}`" for choice in key.choices)
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
