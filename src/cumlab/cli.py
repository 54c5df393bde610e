"""Config-driven experiment runner and figure-data emitter.

Usage:
    cumlab <subcommand> --config cfg.json [--jobs N] [--out DIR]

Subcommands: generate, lr-curve, ldlr-bounds, search-curve, train-sweep,
nlgp-localisation, emit-plotdata.  The config is a single JSON document
(schema in the README); `CUMLAB_SEED` overrides its seed.  Exit codes:
0 success, 1 partial failure (error rows recorded), 2 config error.

Every grid point derives its random stream from
SHA-256(seed : experiment : point-coordinates : run) feeding a Philox
generator, so results are independent of execution order and of the
worker count: rerunning a config with any --jobs overwrites the metric
CSVs byte-identically.  Wall-clock times and other non-reproducible
metadata go to the manifest, never to the metric CSVs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import os
import sys
import time
import traceback
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import __version__, cumtensor, datagen, detect, ldlr, learn, likelihood
from .hermite import GDistribution
from .rng import generator, spawn_seed

_EXPERIMENTS = (
    "generate",
    "lr-curve",
    "ldlr-bounds",
    "search-curve",
    "train-sweep",
    "nlgp-localisation",
)


class ConfigError(ValueError):
    pass


@dataclass
class Record:
    coords: tuple
    run: int
    metric: str
    value: float


@dataclass
class TaskResult:
    index: int
    records: list[Record] = field(default_factory=list)
    error: str | None = None
    wall_time_s: float = 0.0


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int
    raw: dict
    coord_columns: tuple[str, ...]
    tasks: list[dict]


def _require(cfg: dict, key: str, types, what: str = ""):
    if key not in cfg:
        raise ConfigError(f"missing config key {key!r} {what}")
    val = cfg[key]
    # JSON true/false are Python ints too; no config key takes a boolean here
    if isinstance(val, bool) or not isinstance(val, types):
        raise ConfigError(f"config key {key!r} has type {type(val).__name__}, expected {types}")
    return val


def _checked(key: str, val, kind: type):
    """`val` as `kind`, type-checked and never cast.

    A bool key takes only true or false and a str key only a string.  An
    int key takes integers only, a float key integers and floats; a bool
    (JSON true/false is a Python int), a string or (for an int key) a float
    is refused.
    """
    if kind in (bool, str):
        ok = isinstance(val, kind)
    else:
        allowed = int if kind is int else (int, float)
        ok = not isinstance(val, bool) and isinstance(val, allowed)
    if not ok:
        raise ConfigError(f"config key {key!r} has value {val!r}, expected {kind.__name__}")
    return kind(val)


def _grid(cfg: dict, key: str, kind: type, default=None) -> list:
    """The values of grid key `key`: a number or a non-empty list of numbers."""
    if default is None or key in cfg:
        val = _require(cfg, key, (int, float, list))
    else:
        val = default
    vals = val if isinstance(val, list) else [val]
    if not vals:
        raise ConfigError(f"grid list {key!r} must be non-empty")
    return [_checked(key, v, kind) for v in vals]


def _scalar(cfg: dict, key: str, kind: type, default=None):
    """The value of scalar key `key`, checked like a grid value; `default`
    when absent, and required when there is no default."""
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing config key {key!r}")
        return default
    return _checked(key, cfg[key], kind)


def _in_range(key: str, val, low, high=None, strict: bool = False):
    """`val` when low <= val <= high (low < val when `strict`); no `high`
    means no upper bound."""
    if (val <= low if strict else val < low) or (high is not None and val > high):
        bound = f"{'>' if strict else '>='} {low}" + ("" if high is None else f" and <= {high}")
        raise ConfigError(f"config key {key!r} has value {val!r}, expected {bound}")
    return val


# keys of the train-sweep `train` object, forwarded to learn.TrainConfig;
# its other fields, alpha_lazy and seed, are set for each point
_TRAIN_KEYS = {"epochs": int, "batch_size": int, "width_factor": int,
               "learning_rate": float, "weight_decay": float, "loss": str}


def _train_overrides(raw: dict) -> dict:
    """The checked `train` object of a train-sweep config."""
    checked = {}
    for key, val in (_require(raw, "train", dict) if "train" in raw else {}).items():
        if key in ("alpha_lazy", "seed"):
            raise ConfigError(f"train key {key!r} is set for each point; "
                              "it may not appear in the train object")
        if key not in _TRAIN_KEYS:
            raise ConfigError(f"unknown train key {key!r}; expected one of "
                              f"{', '.join(_TRAIN_KEYS)}")
        checked[key] = _checked(f"train.{key}", val, _TRAIN_KEYS[key])
    try:
        learn.TrainConfig(**checked)
    except ValueError as exc:
        raise ConfigError(f"train object: {exc}") from None
    return checked


def _dataset_name(raw: dict) -> str:
    """`generate`'s `name`: a file name stem, with no directory part."""
    name = _scalar(raw, "name", str, "dataset")
    if name in ("", ".", "..") or os.path.basename(name) != name:
        raise ConfigError(f"config key 'name' has value {name!r}, expected a file name "
                          "with no path separator")
    return name


def _g_dist(cfg: dict, default: str = "rademacher") -> GDistribution:
    try:
        return GDistribution.from_kind(cfg.get("g", default))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _model_spec(mcfg: dict, seed: int) -> datagen.ModelSpec:
    kind = _require(mcfg, "kind", str)
    d = int(_require(mcfg, "d", int))
    beta = _scalar(mcfg, "beta", float, 0.0)
    g = _g_dist(mcfg) if kind == datagen.SPIKED_CUMULANT else None
    spike = None
    if kind in (datagen.SPIKED_WISHART, datagen.SPIKED_CUMULANT):
        spike = datagen.draw_spike(d, generator(seed, "spike"))
    try:
        return datagen.ModelSpec(
            kind=kind,
            d=d,
            beta=beta,
            g_dist=g,
            spike=spike,
            gain=_scalar(mcfg, "gain", float, 1.0),
            xi=_scalar(mcfg, "xi", float, 1.0),
            periodic=_scalar(mcfg, "periodic", bool, False),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# experiment definitions: validate -> (coord columns, task list); each task
# is a plain dict so it pickles into worker processes
# ---------------------------------------------------------------------------


def _validate(raw: dict) -> ExperimentConfig:
    experiment = _require(raw, "experiment", str)
    if experiment not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; expected one of {_EXPERIMENTS}")
    seed = int(os.environ.get("CUMLAB_SEED", raw.get("seed", 0)))
    runs = _in_range("runs", _scalar(raw, "runs", int, 1), 1)

    tasks: list[dict] = []
    if experiment == "generate":
        model = _require(raw, "model", dict)
        n = _in_range("n_per_class", _require(raw, "n_per_class", int), 1)
        fmt = raw.get("format", "both")
        if fmt not in ("csv", "binary", "both"):
            raise ConfigError("format must be csv, binary or both")
        neg = raw.get("negative_model")
        if neg is not None and _require(raw, "negative_model", dict).get("d") != model.get("d"):
            raise ConfigError("negative_model dimension differs from model dimension")
        cols = ("name",)
        tasks.append(
            dict(kind="generate", coords=(_dataset_name(raw),), run=0,
                 model=model, n_per_class=n, format=fmt,
                 negative_model=raw.get("negative_model"))
        )
    elif experiment == "lr-curve":
        g = raw.get("g", "rademacher")
        _g_dist(raw)
        log10 = _scalar(raw, "log10", bool, False)
        cols = ("d", "theta", "beta")
        for d in _grid(raw, "d", int):
            for theta in _grid(raw, "theta", float):
                for beta in _grid(raw, "beta", float):
                    tasks.append(dict(kind="lr-point", coords=(d, theta, beta),
                                      run=0, g=g, log10=log10))
    elif experiment == "ldlr-bounds":
        g = raw.get("g", "rademacher")
        _g_dist(raw)
        exact = _scalar(raw, "exact", bool, False)
        cols = ("d", "n", "D", "beta")
        D_values = None if raw.get("D", "auto") == "auto" else _grid(raw, "D", int)
        for d in _grid(raw, "d", int):
            for n in _grid(raw, "n", int):
                # degree schedule D(n) = ceil(log^1.5 n), the sweep default
                D_list = D_values or [int(np.ceil(np.log(max(n, 2)) ** 1.5))]
                for D in D_list:
                    for beta in _grid(raw, "beta", float):
                        tasks.append(dict(kind="ldlr-point", coords=(d, n, D, beta),
                                          run=0, g=g, exact=exact))
    elif experiment == "search-curve":
        g = raw.get("g", "rademacher")
        _g_dist(raw)
        beta = _scalar(raw, "beta", float)
        cols = ("d", "theta")
        for d in _grid(raw, "d", int):
            if d > detect.MAX_SEARCH_DIM:
                raise ConfigError(f"search-curve d={d} over cap {detect.MAX_SEARCH_DIM}")
            for theta in _grid(raw, "theta", float):
                for run in range(runs):
                    tasks.append(dict(kind="search-run", coords=(d, theta),
                                      run=run, beta=beta, g=g))
    elif experiment == "train-sweep":
        task_name = _require(raw, "task", str)
        if task_name not in (datagen.SPIKED_WISHART, datagen.SPIKED_CUMULANT, datagen.NLGP):
            raise ConfigError(f"train-sweep task {task_name!r} not recognised")
        _g_dist(raw)
        beta = _scalar(raw, "beta", float, 0.0)
        gain = _in_range("gain", _scalar(raw, "gain", float, 1.0), 0, strict=True)
        xi = _in_range("xi", _scalar(raw, "xi", float, 1.0), 0, strict=True)
        with_rf = _scalar(raw, "rf", bool, True)
        rf_ridge = _in_range("rf_ridge", _scalar(raw, "rf_ridge", float, 0.1), 0, strict=True)
        n_test = _in_range("n_test_per_class", _scalar(raw, "n_test_per_class", int, 2000), 1)
        train = _train_overrides(raw)
        cols = ("d", "n_per_class", "alpha_lazy")
        for d in _grid(raw, "d", int):
            for n in _grid(raw, "n_per_class", int):
                for alpha in _grid(raw, "alpha_lazy", float, default=1.0):
                    for run in range(runs):
                        tasks.append(dict(
                            kind="train-run",
                            coords=(d, n, alpha),
                            run=run, task=task_name, beta=beta,
                            g=raw.get("g", "rademacher"),
                            gain=gain, xi=xi,
                            train=train,
                            with_rf=with_rf, rf_ridge=rf_ridge,
                            n_test_per_class=n_test,
                        ))
    elif experiment == "nlgp-localisation":
        d = _in_range("d", _require(raw, "d", int), 1, cumtensor.MAX_CUMULANT_DIM)
        gain = _in_range("gain", _scalar(raw, "gain", float, 3.0), 0, strict=True)
        xi = _in_range("xi", _scalar(raw, "xi", float, 1.0), 0, strict=True)
        periodic = _scalar(raw, "periodic", bool, False)
        cols = ("d", "n", "data_class")
        for n_per_d in _grid(raw, "n_per_d", float):
            n = int(round(n_per_d * d))
            if n < 2:
                raise ConfigError(f"config key 'n_per_d' has value {n_per_d!r}, which gives "
                                  f"n = {n} at d = {d}; the cumulant needs n >= 2")
            for cls in ("nlgp", "gp_match"):
                for run in range(runs):
                    tasks.append(dict(kind="cp-run", coords=(d, n, cls), run=run,
                                      gain=gain, xi=xi, periodic=periodic))
    # a repeated grid value would give tasks with the same point seed, so
    # the "independent" runs of that point would be copies of each other
    seen = set()
    for task in tasks:
        key = (task["coords"], task["run"])
        if key in seen:
            point = ", ".join(f"{c}={v}" for c, v in zip(cols, task["coords"]))
            raise ConfigError(f"grid point {point} (run {task['run']}) appears twice; "
                              "grid values must be distinct")
        seen.add(key)
    return ExperimentConfig(experiment=experiment, seed=seed, raw=raw,
                            coord_columns=cols, tasks=tasks)


# ---------------------------------------------------------------------------
# task runners
# ---------------------------------------------------------------------------


def _run_task(args: tuple) -> TaskResult:
    index, task, experiment, seed, out_dir = args
    result = TaskResult(index=index)
    start = time.perf_counter()
    try:
        point_seed = spawn_seed(seed, experiment, *task["coords"], task["run"])
        runner = _RUNNERS[task["kind"]]
        result.records = runner(task, point_seed, out_dir)
    except Exception:
        result.error = traceback.format_exc(limit=8)
    result.wall_time_s = time.perf_counter() - start
    return result


def _run_generate(task: dict, point_seed: int, out_dir: str) -> list[Record]:
    pos = _model_spec(task["model"], point_seed)
    neg = None
    if task.get("negative_model"):
        neg = _model_spec(task["negative_model"], spawn_seed(point_seed, "negmodel"))
    data = datagen.make_dataset(pos, task["n_per_class"], point_seed, neg=neg)
    name = task["coords"][0]
    if task["format"] in ("csv", "both"):
        datagen.write_csv(data, os.path.join(out_dir, f"{name}.csv"))
    if task["format"] in ("binary", "both"):
        datagen.write_binary(data, os.path.join(out_dir, f"{name}.bin"))
    return [Record(task["coords"], 0, "rows_written", float(2 * task["n_per_class"]))]


def _run_lr_point(task: dict, point_seed: int, out_dir: str) -> list[Record]:
    d, theta, beta = task["coords"]
    g = GDistribution.from_kind(task["g"])
    n = int(np.ceil(d**theta))
    log_norm = likelihood.lr_norm_sq_log(n, d, beta, g)
    gb = likelihood.gamma_beta(beta, g)
    if task.get("log10"):  # display option; internals stay in natural log
        log_norm /= np.log(10.0)
    return [
        Record(task["coords"], 0, "log_lr_norm_sq", log_norm),
        Record(task["coords"], 0, "gamma_beta", gb.gamma),
    ]


def _run_ldlr_point(task: dict, point_seed: int, out_dir: str) -> list[Record]:
    d, n, D, beta = task["coords"]
    g = GDistribution.from_kind(task["g"])
    budget = ldlr.EXACT_ENUMERATION_BUDGET if task["exact"] else None
    rep = ldlr.bound_report(n, d, D, beta, g, exact_budget=budget)
    out = [
        Record(task["coords"], 0, "log_lower", rep.log_lower),
        Record(task["coords"], 0, "log_upper", rep.log_upper),
    ]
    if rep.log_exact is not None:
        out.append(Record(task["coords"], 0, "log_exact", rep.log_exact))
    if rep.asym_lower is not None:
        out.append(Record(task["coords"], 0, "asym_lower", rep.asym_lower))
        out.append(Record(task["coords"], 0, "asym_upper", rep.asym_upper))
    return out


def _run_search(task: dict, point_seed: int, out_dir: str) -> list[Record]:
    d, theta = task["coords"]
    g = GDistribution.from_kind(task["g"])
    beta = task["beta"]
    n = int(np.ceil(d**theta))
    u = datagen.draw_spike(d, generator(point_seed, "spike"))
    spec = datagen.ModelSpec(kind=datagen.SPIKED_CUMULANT, d=d, beta=beta, g_dist=g, spike=u)
    rows = datagen.sample_class(spec, n, spawn_seed(point_seed, "data"))
    res = detect.exhaustive_search(rows, beta, g, true_spike=u)
    return [Record(task["coords"], task["run"], "success", 1.0 if res.success else 0.0)]


def _train_specs(task: dict, point_seed: int):
    d = task["coords"][0]
    g = GDistribution.from_kind(task["g"])
    if task["task"] == datagen.SPIKED_WISHART:
        u = datagen.draw_spike(d, generator(point_seed, "spike"))
        pos = datagen.ModelSpec(kind=datagen.SPIKED_WISHART, d=d, beta=task["beta"], spike=u)
        return pos, None, u
    if task["task"] == datagen.SPIKED_CUMULANT:
        u = datagen.draw_spike(d, generator(point_seed, "spike"))
        pos = datagen.ModelSpec(kind=datagen.SPIKED_CUMULANT, d=d, beta=task["beta"],
                                g_dist=g, spike=u)
        return pos, None, u
    pos = datagen.ModelSpec(kind=datagen.NLGP, d=d, gain=task["gain"], xi=task["xi"])
    neg = datagen.ModelSpec(kind=datagen.GP_MATCH, d=d, gain=task["gain"], xi=task["xi"])
    return pos, neg, None


def _run_train(task: dict, point_seed: int, out_dir: str) -> list[Record]:
    d, n_per, alpha = task["coords"]
    pos, neg, u = _train_specs(task, point_seed)
    train_data = datagen.make_dataset(pos, n_per, spawn_seed(point_seed, "train"), neg=neg)
    test_data = datagen.make_dataset(pos, task["n_test_per_class"],
                                     spawn_seed(point_seed, "test"), neg=neg)
    overrides = dict(task["train"])
    epochs = overrides.pop("epochs", 200 if task["task"] != datagen.SPIKED_WISHART else 50)
    cfg = learn.TrainConfig(alpha_lazy=alpha, epochs=epochs,
                            seed=spawn_seed(point_seed, "net"), **overrides)
    report, _net = learn.train_2lnn(train_data, test_data, u, cfg)
    records = [
        Record(task["coords"], task["run"], "nn_early_stop_acc", report.early_stop_accuracy),
        Record(task["coords"], task["run"], "nn_final_test_acc", report.test_accuracy[-1]),
        Record(task["coords"], task["run"], "nn_final_max_ipr", report.ipr_trajectory[-1]),
    ]
    if u is not None:
        records.append(Record(task["coords"], task["run"], "nn_final_max_overlap",
                              report.overlap_trajectory[-1]))
    if task["with_rf"]:
        rf_cfg = learn.RFConfig(width=cfg.width_factor * d, ridge=task["rf_ridge"],
                                seed=spawn_seed(point_seed, "rf"))
        rf_acc = learn.fit_random_features(train_data, test_data, rf_cfg)
        records.append(Record(task["coords"], task["run"], "rf_acc", rf_acc))
    return records


def _run_cp(task: dict, point_seed: int, out_dir: str) -> list[Record]:
    d, n, cls = task["coords"]
    kind = datagen.NLGP if cls == "nlgp" else datagen.GP_MATCH
    spec = datagen.ModelSpec(kind=kind, d=d, gain=task["gain"], xi=task["xi"],
                             periodic=task["periodic"])
    rows = datagen.sample_class(spec, n, spawn_seed(point_seed, "data"))
    tensor = cumtensor.empirical_fourth_cumulant(rows)
    res = cumtensor.rank1_cp(tensor, rng=generator(point_seed, "cp"))
    ipr_val = float("nan") if res.degenerate else learn.ipr(res.factor)
    return [
        Record(task["coords"], task["run"], "cp_ipr", ipr_val),
        Record(task["coords"], task["run"], "cp_weight", res.weight),
    ]


_RUNNERS = {
    "generate": _run_generate,
    "lr-point": _run_lr_point,
    "ldlr-point": _run_ldlr_point,
    "search-run": _run_search,
    "train-run": _run_train,
    "cp-run": _run_cp,
}


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _atomic_write(path: str, text: str) -> None:
    with datagen.atomic_open(path) as fh:
        fh.write(text)


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_outputs(cfg: ExperimentConfig, results: list[TaskResult], out_dir: str,
                   blas_threads: dict[str, str] | None = None) -> int:
    results = sorted(results, key=lambda r: r.index)
    by_metric: dict[str, list[str]] = {}
    errors: list[str] = []
    for res in results:
        task = cfg.tasks[res.index]
        coord_csv = ",".join(str(c) for c in task["coords"])
        if res.error is not None:
            first_line = res.error.strip().splitlines()[-1]
            errors.append(f"{coord_csv},{task['run']},\"{first_line}\"")
            continue
        for rec in res.records:
            row = f"{coord_csv},{rec.run},{_fmt(rec.value)}"
            by_metric.setdefault(rec.metric, []).append(row)
    header_coords = ",".join(cfg.coord_columns)
    for metric, rows in by_metric.items():
        text = f"{header_coords},run,value\n" + "\n".join(rows) + "\n"
        _atomic_write(os.path.join(out_dir, f"{metric}.csv"), text)
    if cfg.experiment == "search-curve" and "success" in by_metric:
        _write_search_curve(cfg, results, out_dir)
    if cfg.experiment == "ldlr-bounds" and by_metric:
        _write_bound_rows(cfg, results, out_dir)
    errors_path = os.path.join(out_dir, "errors.csv")
    if errors:
        text = f"{header_coords},run,error\n" + "\n".join(errors) + "\n"
        _atomic_write(errors_path, text)
    else:  # a clean rerun leaves no errors.csv from an earlier run behind
        with contextlib.suppress(FileNotFoundError):
            os.unlink(errors_path)
    manifest = {
        "version": f"cumlab-{__version__}",
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "config": cfg.raw,
        "metrics": sorted(by_metric),
        "point_seeds": {
            ",".join(map(str, t["coords"])) + f"#{t['run']}":
                spawn_seed(cfg.seed, cfg.experiment, *t["coords"], t["run"])
            for t in cfg.tasks
        },
        "wall_time_s": {str(r.index): round(r.wall_time_s, 6) for r in results},
        "failed_points": len(errors),
        "worker_blas_threads": blas_threads,
    }
    _atomic_write(os.path.join(out_dir, "manifest.json"),
                  json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return 1 if errors else 0


def _write_bound_rows(cfg: ExperimentConfig, results: list[TaskResult], out_dir: str) -> None:
    """One row per grid point in the BoundReport CSV dialect."""
    g_kind = cfg.raw.get("g", "rademacher")
    lines = [ldlr.BoundReport.CSV_HEADER]
    for res in sorted(results, key=lambda r: r.index):
        if res.error is not None or not res.records:
            continue
        d, n, D, beta = cfg.tasks[res.index]["coords"]
        bounds = {rec.metric: rec.value for rec in res.records}
        lines.append(ldlr.BoundReport(n=n, d=d, D=D, beta=beta, g_kind=g_kind,
                                      **bounds).csv_row())
    _atomic_write(os.path.join(out_dir, "ldlr_bounds.csv"), "\n".join(lines) + "\n")


def _write_search_curve(cfg: ExperimentConfig, results: list[TaskResult], out_dir: str) -> None:
    """Aggregated curve in the detector's native CSV dialect.

    A point's rate is over its runs that finished; a failed run is left
    out, not counted as a miss, and `runs` holds the number that finished.
    """
    beta = float(cfg.raw["beta"])
    hits: dict[tuple, int] = {}
    done: dict[tuple, int] = {}
    for res in results:
        if res.error is not None:
            continue
        for rec in res.records:
            if rec.metric == "success":
                hits[rec.coords] = hits.get(rec.coords, 0) + int(rec.value)
                done[rec.coords] = done.get(rec.coords, 0) + 1
    lines = ["theta,success_rate,runs,d,beta,seed"]
    for coords in sorted(hits):
        d, theta = coords
        runs = done[coords]
        lines.append(f"{theta},{hits[coords] / runs},{runs},{d},{beta},{cfg.seed}")
    _atomic_write(os.path.join(out_dir, "success_rate.csv"), "\n".join(lines) + "\n")


# Idle BLAS threads busy-wait for work before they sleep: OpenBLAS for
# 2^28 cycles by default, OpenMP runtimes in their active wait policy.  In
# a pool of several workers those spinning threads take the cores from the
# other workers.  These settings make idle threads sleep at once.  They
# leave the thread count alone: BLAS rounding depends on how a product is
# split between threads, and workers that kept the thread count of an
# in-process run give the same bits at any --jobs.
_WORKER_BLAS_WAIT = {"OPENBLAS_THREAD_TIMEOUT": "4", "OMP_WAIT_POLICY": "PASSIVE"}


def worker_blas_threads(environ: Mapping[str, str]) -> dict[str, str]:
    """The BLAS thread settings pool workers start with.

    A variable already set in `environ` is passed on unchanged.
    """
    return {var: environ.get(var, val) for var, val in _WORKER_BLAS_WAIT.items()}


@contextlib.contextmanager
def _environ_defaults(values: Mapping[str, str]):
    """Set the variables of `values` that os.environ lacks; unset them on exit."""
    added = {var: val for var, val in values.items() if var not in os.environ}
    os.environ.update(added)
    try:
        yield
    finally:
        for var in added:
            del os.environ[var]


def run(cfg: ExperimentConfig, out_dir: str, jobs: int = 1) -> int:
    """Execute all grid points; returns the process exit code."""
    os.makedirs(out_dir, exist_ok=True)
    args = [(i, task, cfg.experiment, cfg.seed, out_dir) for i, task in enumerate(cfg.tasks)]
    blas_threads = None
    if jobs > 1 and len(args) > 1:
        blas_threads = worker_blas_threads(os.environ)
        # Spawn workers inherit os.environ and read these when BLAS loads;
        # the parent's BLAS is loaded already, so only the workers see them.
        with _environ_defaults(blas_threads):
            with multiprocessing.get_context("spawn").Pool(jobs) as pool:
                results = pool.map(_run_task, args)
    else:
        results = [_run_task(a) for a in args]
    return _write_outputs(cfg, results, out_dir, blas_threads)


# ---------------------------------------------------------------------------
# plot-data aggregation
# ---------------------------------------------------------------------------


def emit_plotdata(results_dir: str) -> int:
    """Aggregate per-run metric CSVs into mean/sd/count per grid point."""
    manifest_path = os.path.join(results_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        print(f"error: no manifest.json in {results_dir} (no results to aggregate)",
              file=sys.stderr)
        return 2
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    metrics = manifest.get("metrics", [])
    if not metrics:
        print("error: manifest lists no metrics", file=sys.stderr)
        return 2
    missing = []
    for metric in metrics:
        path = os.path.join(results_dir, f"{metric}.csv")
        if not os.path.exists(path):
            missing.append(metric)
            continue
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            rows = [line.strip().split(",") for line in fh if line.strip()]
        ncoord = len(header) - 2
        groups: dict[tuple, list[float]] = {}
        order: list[tuple] = []
        for row in rows:
            key = tuple(row[:ncoord])
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(float(row[-1]))
        lines = [",".join(header[:ncoord]) + ",mean,sd,count"]
        for key in order:
            vals = np.array(groups[key])
            lines.append(
                ",".join(key)
                + f",{_fmt(vals.mean())},{_fmt(vals.std(ddof=0))},{len(vals)}"
            )
        _atomic_write(os.path.join(results_dir, f"plot_{metric}.csv"), "\n".join(lines) + "\n")
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
    for name in _EXPERIMENTS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON experiment config")
        sp.add_argument("--jobs", type=int, default=1, help="worker processes")
        sp.add_argument("--out", required=True, help="output directory")
    sp = sub.add_parser("emit-plotdata")
    sp.add_argument("--config", help="ignored; present for interface uniformity")
    sp.add_argument("--out", required=True, help="results directory to aggregate")
    sp.add_argument("--jobs", type=int, default=1)
    return p


def main(argv=None) -> int:
    ns = _parser().parse_args(argv)
    if ns.command == "emit-plotdata":
        return emit_plotdata(ns.out)
    try:
        with open(ns.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if raw.get("experiment", ns.command) != ns.command:
        print(f"config error: config is for {raw.get('experiment')!r}, not {ns.command!r}",
              file=sys.stderr)
        return 2
    raw.setdefault("experiment", ns.command)
    try:
        cfg = _validate(raw)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    code = run(cfg, ns.out, jobs=ns.jobs)
    if code:
        print("partial failure: see errors.csv", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
