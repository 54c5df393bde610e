"""Config-driven experiment runner and figure-data emitter.

Usage:
    cumlab <experiment> --config cfg.json --out DIR [--jobs N]
    cumlab emit-plotdata --out DIR

Subcommands: generate, lr-curve, ldlr-bounds, search-curve, train-sweep,
nlgp-localisation, emit-plotdata.  The config is a single JSON document
(schema in the README); `CUMLAB_SEED` overrides its seed.  Exit codes:
0 success, 1 partial failure (error rows recorded), 2 config error.

Every grid point derives its random stream from
SHA-256(seed : experiment : point-coordinates : run) feeding a Philox
generator, so results are independent of execution order and of the
worker count: rerunning a config with any --jobs overwrites the metric
CSVs byte-identically.  Wall-clock times and other non-reproducible
metadata go to the manifest, never to the metric CSVs.  The manifest's
`outputs` names every file cumlab wrote into --out, and a rerun removes
those it does not write again.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import os
import sys
import time
import traceback
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import BLAS_IDLE_WAIT, __version__, cumtensor, datagen, detect, ldlr, learn, likelihood
from .hermite import G_KINDS, GDistribution
from .rng import generator, spawn_seed


class ConfigError(ValueError):
    pass


REQUIRED = object()  # Key default: the key must be given
OPTIONAL = object()  # Key default: an absent key stays absent


@dataclass(frozen=True)
class Key:
    """One config key: the values it takes and its value when absent.

    `kind` is int, float, bool, str or dict.  A dict key takes a JSON
    object, checked against the key table `keys` and handed to the runner
    as `build(checked object)`.  A key of kind None takes only `choices`;
    a value in `choices` is taken as it is by any key.  A grid key takes a
    value or a non-empty list of values.  `check` is a test every value
    must pass and the words for it in the refusal.  An absent key takes
    `default`, checked like a given value.
    """

    kind: type | None
    default: object = REQUIRED
    grid: bool = False
    choices: tuple = ()
    check: tuple[Callable, str] | None = None
    keys: dict[str, Key] | None = None
    build: Callable[[dict], object] | None = None


PER_POINT = Key(None, OPTIONAL)  # a key the runner sets for each point


def _above(low):
    return (lambda v: v > low), f"> {low}"


def _at_least(low, high=None):
    return ((lambda v: low <= v and (high is None or v <= high)),
            f">= {low}" + ("" if high is None else f" and <= {high}"))


_FILE_NAME = ((lambda name: name not in ("", ".", "..") and os.path.basename(name) == name),
              "a file name with no path separator")
# a dataset name is also a coordinate in the metric CSVs
_DATASET_NAME = ((lambda name: _FILE_NAME[0](name) and not set(name) & set(',"\n\r')),
                 _FILE_NAME[1] + ", comma, double quote or line break")


def _scalar(name: str, val, key: Key):
    """`val` as `key.kind`, type-checked and never cast: a bool (JSON
    true/false is a Python int) is no number, and an int key takes no float."""
    if key.kind in (bool, str):
        ok = isinstance(val, key.kind)
    else:
        ok = not isinstance(val, bool) and isinstance(val, int if key.kind is int else (int, float))
    if not ok:
        raise ConfigError(f"config key {name!r} has value {val!r}, expected {key.kind.__name__}")
    val = key.kind(val)
    if key.check and not key.check[0](val):
        raise ConfigError(f"config key {name!r} has value {val!r}, expected {key.check[1]}")
    return val


def _value(name: str, val, key: Key):
    """The checked value of key `key`, named `name` in messages."""
    if val in key.choices:
        return val
    if key.kind is None:
        raise ConfigError(f"config key {name!r} has value {val!r}, expected one of "
                          f"{', '.join(map(str, key.choices))}")
    if key.kind is dict:
        if not isinstance(val, dict):
            raise ConfigError(f"config key {name!r} has type {type(val).__name__}, "
                              "expected an object")
        checked = _check(val, key.keys, name)
        try:
            return key.build(checked)
        except ValueError as exc:
            raise ConfigError(f"{name} object: {exc}") from None
    if not key.grid:
        return _scalar(name, val, key)
    if isinstance(val, bool) or not isinstance(val, (int, float, list)):
        raise ConfigError(f"config key {name!r} has type {type(val).__name__}, "
                          "expected a number or a list")
    if val == []:
        raise ConfigError(f"grid list {name!r} must be non-empty")
    return [_scalar(name, v, key) for v in (val if isinstance(val, list) else [val])]


def _check(obj: dict, keys: dict[str, Key], where: str) -> dict:
    """The checked values of `obj` under key table `keys`; `where` names
    the object ("config" at the top level)."""
    for name in obj:
        if keys.get(name) is PER_POINT:
            raise ConfigError(f"{where} key {name!r} is set for each point; "
                              f"it may not appear in the {where} object")
        if name not in keys:
            raise ConfigError(f"unknown {where} key {name!r}; expected one of "
                              f"{', '.join(n for n, k in keys.items() if k is not PER_POINT)}")
    out = {}
    for name, key in keys.items():
        path = name if where == "config" else f"{where}.{name}"
        if name in obj:
            out[name] = _value(path, obj[name], key)
        elif key.default is REQUIRED:
            raise ConfigError(f"missing config key {path!r}")
        elif key.default is not OPTIONAL:
            out[name] = _value(path, key.default, key)
    return out


def _model_spec(model: dict) -> datagen.ModelSpec:
    """The ModelSpec of model keys, with no spike; each point draws its own."""
    g = GDistribution.from_kind(model["g"]) if model["kind"] == datagen.SPIKED_CUMULANT else None
    return datagen.ModelSpec(**{k: v for k, v in model.items() if k != "g"}, g_dist=g)


def _with_spike(spec: datagen.ModelSpec, seed: int) -> datagen.ModelSpec:
    """`spec` with a spike drawn from the stream of `seed`, if its kind has one."""
    if spec.kind not in (datagen.SPIKED_WISHART, datagen.SPIKED_CUMULANT):
        return spec
    return dataclasses.replace(spec, spike=datagen.draw_spike(spec.d, generator(seed, "spike")))


_G = Key(None, "rademacher", choices=G_KINDS)
_RUNS = Key(int, 1, check=_at_least(1))
_MODEL = Key(dict, keys={
    "kind": Key(None, choices=datagen.KINDS),
    "d": Key(int),
    "beta": Key(float, 0.0),
    "g": _G,
    "gain": Key(float, 1.0),
    "xi": Key(float, 1.0),
    "periodic": Key(bool, False),
}, build=_model_spec)
# forwarded to learn.TrainConfig, whose defaults hold for an absent key
_TRAIN = Key(dict, {}, keys={
    "epochs": Key(int, OPTIONAL, check=_at_least(1)),
    "batch_size": Key(int, OPTIONAL, check=_at_least(1)),
    "width_factor": Key(int, OPTIONAL, check=_at_least(1)),
    "learning_rate": Key(float, OPTIONAL, check=_above(0)),
    "weight_decay": Key(float, OPTIONAL, check=_at_least(0)),
    "alpha_lazy": PER_POINT,
    "seed": PER_POINT,
}, build=dict)
COMMON_KEYS = {"experiment": Key(str, OPTIONAL), "seed": Key(int, 0)}


# ---------------------------------------------------------------------------
# grid points and runners.  A runner takes the checked config with the
# point's coordinates in place of their grids, the point seed and `out`,
# which gives the path in --out of each file it writes; it returns {metric: value}.
# ---------------------------------------------------------------------------


def _generate_points(v: dict) -> list[tuple]:
    if v["negative_model"] is not None and v["negative_model"].d != v["model"].d:
        raise ConfigError("negative_model dimension differs from model dimension")
    return [(v["name"],)]


def _run_generate(p: dict, point_seed: int, out: Callable[[str], str]) -> dict:
    pos = _with_spike(p["model"], point_seed)
    neg = p["negative_model"] and _with_spike(p["negative_model"],
                                              spawn_seed(point_seed, "negmodel"))
    data = datagen.make_dataset(pos, p["n_per_class"], point_seed, neg=neg)
    if p["format"] in ("csv", "both"):
        datagen.write_csv(data, out(f"{p['name']}.csv"))
    if p["format"] in ("binary", "both"):
        datagen.write_binary(data, out(f"{p['name']}.bin"))
    return {"rows_written": float(2 * p["n_per_class"])}


def _run_lr_point(p: dict, point_seed: int, out: Callable[[str], str]) -> dict:
    g = GDistribution.from_kind(p["g"])
    log_norm = likelihood.lr_norm_sq_log(int(np.ceil(p["d"] ** p["theta"])), p["d"], p["beta"], g)
    if p["log10"]:  # display option; internals stay in natural log
        log_norm /= np.log(10.0)
    return {"log_lr_norm_sq": log_norm, "gamma_beta": likelihood.gamma_beta(p["beta"], g).gamma}


def _ldlr_points(v: dict) -> list[tuple]:
    # "auto" is the degree schedule D(n) = ceil(log^1.5 n), the sweep default
    return [(d, n, D, beta) for d in v["d"] for n in v["n"]
            for D in ([int(np.ceil(np.log(max(n, 2)) ** 1.5))] if v["D"] == "auto" else v["D"])
            for beta in v["beta"]]


def _run_ldlr_point(p: dict, point_seed: int, out: Callable[[str], str]) -> dict:
    budget = ldlr.EXACT_ENUMERATION_BUDGET if p["exact"] else None
    rep = ldlr.bound_report(p["n"], p["d"], p["D"], p["beta"], GDistribution.from_kind(p["g"]),
                            exact_budget=budget)
    return {metric: value for metric, value in vars(rep).items()
            if metric.startswith(("log_", "asym_")) and value is not None}


def _bound_rows(cfg: ExperimentConfig, done: list[tuple]) -> str:
    """One row per finished grid point in the BoundReport CSV dialect."""
    return "\n".join([ldlr.BoundReport.CSV_HEADER] + [
        ldlr.BoundReport(n=n, d=d, D=D, beta=beta, g_kind=cfg.values["g"], **metrics).csv_row()
        for (d, n, D, beta), _, metrics in done]) + "\n"


def _run_search(p: dict, point_seed: int, out: Callable[[str], str]) -> dict:
    spec = _with_spike(_model_spec({"kind": datagen.SPIKED_CUMULANT, "d": p["d"],
                                    "beta": p["beta"], "g": p["g"]}), point_seed)
    rows = datagen.sample_class(spec, int(np.ceil(p["d"] ** p["theta"])),
                                spawn_seed(point_seed, "data"))
    res = detect.exhaustive_search(rows, p["beta"], spec.g_dist, true_spike=spec.spike)
    return {"success": 1.0 if res.success else 0.0}


def _success_rate(cfg: ExperimentConfig, done: list[tuple]) -> str:
    """The aggregated curve in the detector's native CSV dialect.

    A point's rate is over its runs that finished; a failed run is left
    out, not counted as a miss, and `runs` holds the number that finished.
    """
    hits, runs = Counter(), Counter()
    for point, _, metrics in done:
        hits[point] += int(metrics["success"])
        runs[point] += 1
    return "\n".join(["theta,success_rate,runs,d,beta,seed"] + [
        f"{theta},{hits[d, theta] / runs[d, theta]},{runs[d, theta]},{d},{cfg.values['beta']},"
        f"{cfg.seed}" for d, theta in sorted(runs)]) + "\n"


def _run_train(p: dict, point_seed: int, out: Callable[[str], str]) -> dict:
    model = {key: p[key] for key in ("d", "beta", "g", "gain", "xi")}
    pos = _with_spike(_model_spec(dict(model, kind=p["task"])), point_seed)
    # the NLGP class is told from the Gaussian class of the same covariance
    neg = dataclasses.replace(pos, kind=datagen.GP_MATCH) if p["task"] == datagen.NLGP else None
    train_data = datagen.make_dataset(pos, p["n_per_class"], spawn_seed(point_seed, "train"),
                                      neg=neg)
    test_data = datagen.make_dataset(pos, p["n_test_per_class"], spawn_seed(point_seed, "test"),
                                     neg=neg)
    overrides = dict(p["train"])
    epochs = overrides.pop("epochs", 50 if p["task"] == datagen.SPIKED_WISHART else 200)
    cfg = learn.TrainConfig(alpha_lazy=p["alpha_lazy"], epochs=epochs,
                            seed=spawn_seed(point_seed, "net"), **overrides)
    report, _net = learn.train_2lnn(train_data, test_data, pos.spike, cfg)
    metrics = {
        "nn_early_stop_acc": report.early_stop_accuracy,
        "nn_final_test_acc": report.test_accuracy[-1],
        "nn_final_max_ipr": report.ipr_trajectory[-1],
    }
    if pos.spike is not None:
        metrics["nn_final_max_overlap"] = report.overlap_trajectory[-1]
    if p["rf"]:
        rf_cfg = learn.RFConfig(width=cfg.width_factor * p["d"], ridge=p["rf_ridge"],
                                seed=spawn_seed(point_seed, "rf"))
        metrics["rf_acc"] = learn.fit_random_features(train_data, test_data, rf_cfg)
    return metrics


def _cp_points(v: dict) -> list[tuple]:
    d, points = v["d"], []
    for n_per_d in v["n_per_d"]:
        n = int(round(n_per_d * d))
        if n < 2:
            raise ConfigError(f"config key 'n_per_d' has value {n_per_d!r}, which gives "
                              f"n = {n} at d = {d}; the cumulant needs n >= 2")
        points += [(d, n, data_class) for data_class in (datagen.NLGP, datagen.GP_MATCH)]
    return points


def _run_cp(p: dict, point_seed: int, out: Callable[[str], str]) -> dict:
    spec = datagen.ModelSpec(kind=p["data_class"], d=p["d"], gain=p["gain"], xi=p["xi"],
                             periodic=p["periodic"])
    rows = datagen.sample_class(spec, p["n"], spawn_seed(point_seed, "data"))
    tensor = cumtensor.empirical_fourth_cumulant(rows)
    res = cumtensor.rank1_cp(tensor, rng=generator(point_seed, "cp"))
    return {"cp_ipr": float("nan") if res.degenerate else learn.ipr(res.factor),
            "cp_weight": res.weight}


@dataclass(frozen=True)
class Experiment:
    """One subcommand: its config keys (besides COMMON_KEYS), the
    coordinate columns of its metric CSVs, its grid and its runner.

    `points` maps the checked config to the coordinate tuples of the grid;
    None takes the product of the coordinate keys.  `aggregate` names a
    convenience CSV and makes its text from the config and the finished
    tasks, each a (coordinates, run, metrics) tuple.
    """

    keys: dict[str, Key]
    coords: tuple[str, ...]
    run: Callable[[dict, int, Callable[[str], str]], dict]
    points: Callable[[dict], list[tuple]] | None = None
    aggregate: tuple[str, Callable[[ExperimentConfig, list[tuple]], str]] | None = None


EXPERIMENTS = {
    "generate": Experiment(
        keys={
            "model": _MODEL,
            "n_per_class": Key(int, check=_at_least(1)),
            "name": Key(str, "dataset", check=_DATASET_NAME),
            "format": Key(None, "both", choices=("csv", "binary", "both")),
            "negative_model": dataclasses.replace(_MODEL, default=None, choices=(None,)),
        },
        coords=("name",), run=_run_generate, points=_generate_points),
    "lr-curve": Experiment(
        keys={
            "d": Key(int, grid=True, check=_at_least(1)),
            "theta": Key(float, grid=True),
            "beta": Key(float, grid=True, check=_at_least(0)),
            "g": _G,
            "log10": Key(bool, False),
        },
        coords=("d", "theta", "beta"), run=_run_lr_point),
    "ldlr-bounds": Experiment(
        keys={
            "d": Key(int, grid=True, check=_at_least(1)),
            "n": Key(int, grid=True, check=_at_least(0)),
            "D": Key(int, "auto", grid=True, choices=("auto",), check=_at_least(0)),
            "beta": Key(float, grid=True, check=_at_least(0)),
            "g": _G,
            "exact": Key(bool, False),
        },
        coords=("d", "n", "D", "beta"), run=_run_ldlr_point, points=_ldlr_points,
        aggregate=("ldlr_bounds.csv", _bound_rows)),
    "search-curve": Experiment(
        keys={
            "d": Key(int, grid=True, check=_at_least(1, detect.MAX_SEARCH_DIM)),
            "theta": Key(float, grid=True),
            "beta": Key(float, check=_at_least(0)),
            "g": _G,
            "runs": _RUNS,
        },
        coords=("d", "theta"), run=_run_search,
        aggregate=("success_rate.csv", _success_rate)),
    "train-sweep": Experiment(
        keys={
            "task": Key(None, choices=(datagen.SPIKED_WISHART, datagen.SPIKED_CUMULANT,
                                       datagen.NLGP)),
            "d": Key(int, grid=True, check=_at_least(1)),
            "n_per_class": Key(int, grid=True, check=_at_least(1)),
            "alpha_lazy": Key(float, 1.0, grid=True, check=_at_least(1)),
            "beta": Key(float, 0.0, check=_at_least(0)),
            "g": _G,
            "gain": Key(float, 1.0, check=_above(0)),
            "xi": Key(float, 1.0, check=_above(0)),
            "n_test_per_class": Key(int, 2000, check=_at_least(1)),
            "rf": Key(bool, True),
            "rf_ridge": Key(float, 0.1, check=_above(0)),
            "train": _TRAIN,
            "runs": _RUNS,
        },
        coords=("d", "n_per_class", "alpha_lazy"), run=_run_train),
    "nlgp-localisation": Experiment(
        keys={
            "d": Key(int, check=_at_least(1, cumtensor.MAX_CUMULANT_DIM)),
            "n_per_d": Key(float, grid=True),
            "gain": Key(float, 3.0, check=_above(0)),
            "xi": Key(float, 1.0, check=_above(0)),
            "periodic": Key(bool, False),
            "runs": _RUNS,
        },
        coords=("d", "n", "data_class"), run=_run_cp, points=_cp_points),
}


@dataclass
class TaskResult:
    index: int
    metrics: dict[str, float] = field(default_factory=dict)
    error: str | None = None
    wall_time_s: float = 0.0
    files: list[str] = field(default_factory=list)  # names the runner wrote in --out


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int
    raw: dict  # echoed into the manifest
    values: dict  # the checked config
    tasks: list[tuple]  # (coordinates, run)


def _validate(raw: dict) -> ExperimentConfig:
    experiment = raw["experiment"]
    exp = EXPERIMENTS[experiment]
    values = _check(raw, {**COMMON_KEYS, **exp.keys}, "config")
    seed = values["seed"]
    env_seed = os.environ.get("CUMLAB_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"CUMLAB_SEED has value {env_seed!r}, expected int") from None
    if exp.points is None:
        points = list(itertools.product(*(values[c] if exp.keys[c].grid else [values[c]]
                                          for c in exp.coords)))
    else:
        points = exp.points(values)
    tasks = [(point, run) for point in points for run in range(values.get("runs", 1))]
    # a repeated grid value would give tasks with the same point seed, so
    # the "independent" runs of that point would be copies of each other
    seen = set()
    for point, run in tasks:
        if (point, run) in seen:
            coords = ", ".join(f"{c}={v}" for c, v in zip(exp.coords, point))
            raise ConfigError(f"grid point {coords} (run {run}) appears twice; "
                              "grid values must be distinct")
        seen.add((point, run))
    return ExperimentConfig(experiment=experiment, seed=seed, raw=raw, values=values, tasks=tasks)


def _run_task(args: tuple) -> TaskResult:
    index, experiment, values, point, run, seed, out_dir = args
    exp = EXPERIMENTS[experiment]
    result = TaskResult(index=index)

    def out(name: str) -> str:
        result.files.append(name)
        return os.path.join(out_dir, name)

    start = time.perf_counter()
    try:
        point_seed = spawn_seed(seed, experiment, *point, run)
        result.metrics = exp.run({**values, **dict(zip(exp.coords, point))}, point_seed, out)
    except Exception:
        result.error = traceback.format_exc(limit=8)
    result.wall_time_s = time.perf_counter() - start
    return result


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _atomic_write(path: str, text: str) -> None:
    with datagen.atomic_open(path) as fh:
        fh.write(text)


def _fmt(value: float) -> str:
    return repr(float(value))


def _read_manifest(out_dir: str) -> dict | None:
    """The manifest in `out_dir`, None when missing or no JSON object.  `outputs`,
    the files cumlab wrote there, keeps only the file names of a list, else is []."""
    try:
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(manifest, dict):
        return None
    outputs = manifest.get("outputs")
    manifest["outputs"] = [name for name in outputs if isinstance(name, str)
                           and _FILE_NAME[0](name)] if isinstance(outputs, list) else []
    return manifest


def _write_outputs(cfg: ExperimentConfig, results: list[TaskResult], out_dir: str) -> int:
    exp = EXPERIMENTS[cfg.experiment]
    written: set[str] = set()

    def write(name: str, text: str) -> None:
        _atomic_write(os.path.join(out_dir, name), text)
        written.add(name)

    by_metric: dict[str, list[str]] = {}
    errors: list[str] = []
    done: list[tuple] = []
    failed: set[str] = set()
    for res in results:
        point, run = cfg.tasks[res.index]
        prefix = ",".join(map(str, point)) + f",{run},"
        if res.error is not None:
            failed.update(res.files)  # a failed point owns no file, so leaves none
            message = res.error.strip().splitlines()[-1].replace('"', '""')
            errors.append(prefix + f'"{message}"')
            continue
        done.append((point, run, res.metrics))
        written.update(res.files)
        for metric, value in res.metrics.items():
            by_metric.setdefault(metric, []).append(prefix + _fmt(value))
    header_coords = ",".join(exp.coords)
    for metric, rows in by_metric.items():
        write(f"{metric}.csv", f"{header_coords},run,value\n" + "\n".join(rows) + "\n")
    if exp.aggregate and done:
        name, make_text = exp.aggregate
        write(name, make_text(cfg, done))
    if errors:
        write("errors.csv", f"{header_coords},run,error\n" + "\n".join(errors) + "\n")
    previous = _read_manifest(out_dir) or {"outputs": []}
    for name in (set(previous["outputs"]) | failed) - written:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(os.path.join(out_dir, name))
    manifest = {
        "version": f"cumlab-{__version__}",
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "config": cfg.raw,
        "metrics": sorted(by_metric),
        "outputs": sorted(written),
        "point_seeds": {
            ",".join(map(str, point)) + f"#{run}": spawn_seed(cfg.seed, cfg.experiment, *point, run)
            for point, run in cfg.tasks
        },
        "wall_time_s": {str(r.index): round(r.wall_time_s, 6) for r in results},
        "failed_points": len(errors),
        "blas_idle_wait": BLAS_IDLE_WAIT,
    }
    _atomic_write(os.path.join(out_dir, "manifest.json"),
                  json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return 1 if errors else 0


def run(cfg: ExperimentConfig, out_dir: str, jobs: int = 1) -> int:
    """Execute all grid points; returns the process exit code."""
    os.makedirs(out_dir, exist_ok=True)
    args = [(i, cfg.experiment, cfg.values, point, r, cfg.seed, out_dir)
            for i, (point, r) in enumerate(cfg.tasks)]
    if jobs > 1 and len(args) > 1:
        import multiprocessing  # lazy, with the next line: they take 18 ms to import
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
        # Forked workers start with the parent's modules and BLAS settings
        # loaded (POSIX only).  With fork the executor starts every worker at
        # the first submit, before its manager thread, so no thread is forked.
        pool = ProcessPoolExecutor(min(jobs, len(args)),
                                   mp_context=multiprocessing.get_context("fork"))
        try:
            futures = [pool.submit(_run_task, a) for a in args]
            results = []
            for i, future in enumerate(futures):
                try:
                    results.append(future.result())
                except BrokenProcessPool:  # a worker died: every unfinished point fails
                    results.append(TaskResult(index=i, error=traceback.format_exc(limit=8)))
        finally:
            pool.shutdown(cancel_futures=True)  # an interrupt waits for running points only
    else:
        results = [_run_task(a) for a in args]
    return _write_outputs(cfg, results, out_dir)


# ---------------------------------------------------------------------------
# plot-data aggregation
# ---------------------------------------------------------------------------


def emit_plotdata(results_dir: str) -> int:
    """Aggregate per-run metric CSVs into mean/sd/count per grid point."""
    manifest = _read_manifest(results_dir)
    if manifest is None:
        print(f"error: no readable manifest.json in {results_dir} (no results to aggregate)",
              file=sys.stderr)
        return 2
    metrics = manifest.get("metrics")
    if not (isinstance(metrics, list) and metrics and all(
            isinstance(m, str) and _FILE_NAME[0](f"plot_{m}.csv") for m in metrics)):
        print("error: manifest.json's metrics is not a list of metric names", file=sys.stderr)
        return 2
    missing, written = [], set()
    for metric in metrics:
        path = os.path.join(results_dir, f"{metric}.csv")
        if not os.path.exists(path):
            missing.append(metric)
            continue
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            rows = [line.strip().split(",") for line in fh if line.strip()]
        ncoord = len(header) - 2
        groups: dict[tuple, list[float]] = {}  # in order of first appearance
        for row in rows:
            groups.setdefault(tuple(row[:ncoord]), []).append(float(row[-1]))
        lines = [",".join(header[:ncoord]) + ",mean,sd,count"]
        for key in groups:
            vals = np.array(groups[key])
            lines.append(
                ",".join(key)
                + f",{_fmt(vals.mean())},{_fmt(vals.std(ddof=0))},{len(vals)}"
            )
        _atomic_write(os.path.join(results_dir, f"plot_{metric}.csv"), "\n".join(lines) + "\n")
        written.add(f"plot_{metric}.csv")
    manifest["outputs"] = sorted(set(manifest["outputs"]) | written)  # a rerun removes them
    _atomic_write(os.path.join(results_dir, "manifest.json"),
                  json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    if missing:
        print(f"error: metric CSVs missing: {', '.join(missing)}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cumlab", description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON experiment config")
        sp.add_argument("--jobs", type=int, default=1, help="worker processes")
        sp.add_argument("--out", required=True, help="output directory")
    sp = sub.add_parser("emit-plotdata")
    sp.add_argument("--out", required=True, help="results directory to aggregate")
    return p


def main(argv=None) -> int:
    ns = _parser().parse_args(argv)
    if ns.command == "emit-plotdata":
        return emit_plotdata(ns.out)
    try:
        with open(ns.config) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigError(f"the config is a JSON {type(raw).__name__}, not an object")
        if raw.setdefault("experiment", ns.command) != ns.command:
            raise ConfigError(f"config is for {raw['experiment']!r}, not {ns.command!r}")
        cfg = _validate(raw)
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    code = run(cfg, ns.out, jobs=ns.jobs)
    if code:
        print("partial failure: see errors.csv", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
