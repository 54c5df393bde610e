"""The four benchmark workloads and what their outputs must look like.

Each workload is a closed loop of calls of the cumlab CLI: the next call
starts only after the previous one exits.  Call ``i`` of a run gets the
config seed ``call_seed(seed, i)``, so one run samples several inputs and
the same benchmark seed always gives the same inputs.  Everything else is
fixed here, so the workloads do not move when the shipped configs in
``configs/`` change.  Each call is small enough that a run makes several,
and the run reports their median.

Why these four:

* ``search-curve`` has many small points dominated by the exhaustive-search
  kernel, and runs no pool and no SGD.
* ``train-wishart`` is SGD-bound and is the only workload with a spawn pool
  (two workers), so it exposes pool and BLAS threading costs.
* ``localise-nlgp`` is the only path through ``cumtensor`` and the
  structured-field sampler.  It keeps the large-``n`` end of the shipped
  scan, where the moment product, whose cost is fixed, takes a larger
  share next to ``rank1_cp``, whose number of power iterations depends
  on the data.
* ``export-dataset`` is the only path through dataset IO, with one large
  ``sample_class`` call per class.

Stdlib only: the orchestrator imports this without numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable


def call_seed(seed: int, index: int) -> int:
    """Config seed of call ``index`` of a run with benchmark seed ``seed``."""
    return seed * 1000 + index


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # cumlab subcommand
    jobs: int
    make_config: Callable[[int], dict]
    # metric CSV name -> value check taking (value, config)
    domains: dict
    # span names that must record at least one call in the traced run
    layers: tuple
    # exact counts implied by the config: metric name -> value
    expected_counts: Callable[[dict], dict]


def points(cfg: dict) -> list[tuple]:
    """Every (coords..., run) the CLI must report for this config.

    Numeric coordinates are floats so that ``8`` and ``8.0`` compare equal.
    """
    runs = int(cfg.get("runs", 1))
    exp = cfg["experiment"]
    if exp == "search-curve":
        grid = [(float(d), float(t)) for d in cfg["d"] for t in cfg["theta"]]
    elif exp == "train-sweep":
        grid = [(float(d), float(n), float(a)) for d in cfg["d"]
                for n in cfg["n_per_class"] for a in cfg["alpha_lazy"]]
    elif exp == "nlgp-localisation":
        d = cfg["d"]
        grid = [(float(d), float(round(npd * d)), cls)
                for npd in cfg["n_per_d"] for cls in ("nlgp", "gp_match")]
    elif exp == "generate":
        return [(cfg["name"], 0.0)]
    else:
        raise ValueError(f"no point list for {exp!r}")
    return [coords + (float(run),) for coords in grid for run in range(runs)]


def _unit(x, cfg):
    return 0.0 <= x <= 1.0


def _binary(x, cfg):
    return x in (0.0, 1.0)


def _ipr(x, cfg):
    # IPR lies in [1/d, 1]; NaN marks a degenerate (all-zero) factor
    d = cfg["d"] if isinstance(cfg["d"], int) else max(cfg["d"])
    return math.isnan(x) or (1.0 / d) * (1 - 1e-12) <= x <= 1.0 + 1e-12


def _finite(x, cfg):
    return math.isfinite(x)


def _search_counts(cfg):
    runs = cfg["runs"]
    sizes = [(d, math.ceil(d ** t)) for d in cfg["d"] for t in cfg["theta"]]
    return {
        "detect.exhaustive_search.calls": runs * len(sizes),
        "datagen.sample_class.rows": runs * sum(n for _, n in sizes),
        "kernels.search_best_code.candidate_evals": runs * sum(2 ** (d - 1) * n for d, n in sizes),
    }


def _train_counts(cfg):
    runs, epochs, bs = cfg["runs"], cfg["train"]["epochs"], cfg["train"]["batch_size"]
    npc = [n for _ in cfg["d"] for n in cfg["n_per_class"] for _ in cfg["alpha_lazy"]]
    return {
        "kernels.sgd_epoch.calls": runs * epochs * len(npc),
        "kernels.sgd_epoch.steps": runs * epochs * sum(math.ceil(2 * n / bs) for n in npc),
        "datagen.sample_class.rows":
            runs * sum(2 * n + 2 * cfg["n_test_per_class"] for n in npc),
    }


def _nlgp_counts(cfg):
    d, runs = cfg["d"], cfg["runs"]
    ns = [round(npd * d) for npd in cfg["n_per_d"]]
    return {
        "datagen.sample_class.rows": 2 * runs * sum(ns),
        "cumtensor.empirical_fourth_cumulant.flop": 2 * runs * sum(2 * n * d**4 for n in ns),
    }


def _export_counts(cfg):
    return {
        "datagen.sample_class.calls": 2,
        "datagen.sample_class.rows": 2 * cfg["n_per_class"],
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="search-curve",
            command="search-curve",
            jobs=1,
            make_config=lambda seed: {
                "experiment": "search-curve", "seed": seed,
                "d": [8, 10, 12, 14], "theta": [0.25, 0.5, 0.75, 1.0, 1.25, 1.5],
                "beta": 10.0, "g": "rademacher", "runs": 10,
            },
            domains={"success": _binary},
            layers=("rng.generator", "datagen.sample_class", "detect.exhaustive_search",
                    "kernels.search_best_code", "likelihood.sample_log_likelihood"),
            expected_counts=_search_counts,
        ),
        Workload(
            name="train-wishart",
            command="train-sweep",
            jobs=2,
            make_config=lambda seed: {
                "experiment": "train-sweep", "seed": seed, "task": "spiked_wishart",
                "beta": 5.0, "g": "standard_gaussian", "d": [32],
                "n_per_class": [320, 800], "alpha_lazy": [1.0], "runs": 2,
                "n_test_per_class": 2000, "train": {"epochs": 25, "batch_size": 8},
                "rf": True,
            },
            domains={
                "nn_early_stop_acc": _unit, "nn_final_test_acc": _unit,
                "nn_final_max_ipr": _ipr, "nn_final_max_overlap": _unit, "rf_acc": _unit,
            },
            layers=("datagen.make_dataset", "kernels.sgd_epoch", "learn.train_2lnn",
                    "learn.ipr", "learn.max_spike_overlap", "learn.fit_random_features"),
            expected_counts=_train_counts,
        ),
        Workload(
            name="localise-nlgp",
            command="nlgp-localisation",
            jobs=1,
            make_config=lambda seed: {
                "experiment": "nlgp-localisation", "seed": seed, "d": 20, "gain": 3.0,
                "xi": 1.0, "n_per_d": [300, 1000], "runs": 4,
            },
            domains={"cp_ipr": _ipr, "cp_weight": _finite},
            layers=("datagen.sample_class", "cumtensor.empirical_fourth_cumulant",
                    "cumtensor.rank1_cp", "cumtensor.contract3"),
            expected_counts=_nlgp_counts,
        ),
        Workload(
            name="export-dataset",
            command="generate",
            jobs=1,
            make_config=lambda seed: {
                "experiment": "generate", "seed": seed, "name": "dataset",
                "model": {"kind": "spiked_cumulant", "d": 100, "beta": 10.0, "g": "rademacher"},
                "n_per_class": 10000, "format": "both",
            },
            domains={"rows_written": lambda x, cfg: x == 2 * cfg["n_per_class"]},
            layers=("datagen.sample_class", "datagen.make_dataset", "datagen.write_csv",
                    "datagen.write_binary", "datagen.read_csv", "datagen.read_binary"),
            expected_counts=_export_counts,
        ),
    )
}
