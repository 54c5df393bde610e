"""Traced in-process run of one workload through ``cumlab.cli.main`` at ``--jobs 1``.

Spans wrap the calls into each module's public functions from outside the
program.  A function is replaced under every name a ``cumlab`` module
holds for it (``detect`` binds ``sample_class`` at import, ``cli`` reaches
``datagen`` through the module), so no caller bypasses its wrapper.
Spans (name, start, end, parent, point) stay in memory and are written
out when the run ends.  A layer's self time is its span time minus the
time of its child spans.

Run as ``python3 perfbench/tracer.py WORKLOAD CONFIG_JSON OUT_DIR SUMMARY_JSON SPANS_JSONL``
with ``src`` on ``PYTHONPATH``.  The summary holds the exit code, the
traced wall time, per-span calls and self time, the exact work counts,
and the problems found by the export read-back.  SPANS_JSONL gets one
``[name, start, end, parent, point]`` line per span.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import readback  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _count_rows(counts, a):
    counts["datagen.sample_class.rows"] += a["n"]


def _count_candidates(counts, a):
    n, d = a["X"].shape
    counts["kernels.search_best_code.candidate_evals"] += 2 ** (d - 1) * n


def _count_steps(counts, a):
    counts["kernels.sgd_epoch.steps"] += math.ceil(a["X"].shape[0] / a["batch_size"])


def _count_csv_bytes(counts, a):
    counts["datagen.write_csv.bytes"] += os.path.getsize(a["path"])


def _count_flops(counts, a):
    n, d = a["data"].shape
    counts["cumtensor.empirical_fourth_cumulant.flop"] += 2 * n * d**4


# span name, module, attribute (Class.method for methods), work counter;
# a counter reads the call's bound arguments after the call returns
TARGETS = (
    ("cli.point", "cumlab.cli", "_run_task", None),
    ("rng.generator", "cumlab.rng", "generator", None),
    ("datagen.sample_class", "cumlab.datagen", "sample_class", _count_rows),
    ("datagen.make_dataset", "cumlab.datagen", "make_dataset", None),
    ("datagen.write_csv", "cumlab.datagen", "write_csv", _count_csv_bytes),
    ("datagen.write_binary", "cumlab.datagen", "write_binary", None),
    ("datagen.read_csv", "cumlab.datagen", "read_csv", None),
    ("datagen.read_binary", "cumlab.datagen", "read_binary", None),
    ("detect.exhaustive_search", "cumlab.detect", "exhaustive_search", None),
    ("likelihood.sample_log_likelihood", "cumlab.likelihood", "sample_log_likelihood", None),
    ("kernels.search_best_code", "cumlab._kernels", "search_best_code", _count_candidates),
    ("kernels.sgd_epoch", "cumlab._kernels", "sgd_epoch", _count_steps),
    ("learn.train_2lnn", "cumlab.learn", "train_2lnn", None),
    ("learn.ipr", "cumlab.learn", "ipr", None),
    ("learn.max_spike_overlap", "cumlab.learn", "max_spike_overlap", None),
    ("learn.fit_random_features", "cumlab.learn", "fit_random_features", None),
    ("cumtensor.empirical_fourth_cumulant", "cumlab.cumtensor",
     "empirical_fourth_cumulant", _count_flops),
    ("cumtensor.rank1_cp", "cumlab.cumtensor", "rank1_cp", None),
    ("cumtensor.contract3", "cumlab.cumtensor", "FourthCumulant.contract3", None),
)


class Tracer:
    """Installs span wrappers and keeps the spans they record."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, point)
        self.counts: dict = defaultdict(int)
        self._stack: list[int] = []
        self._point = None
        self._undo: list = []

    def _wrap(self, name, fn, counter):
        sig = inspect.signature(fn) if counter else None

        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            if name == "cli.point":
                self._point = args[0][0]  # the task index
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self._point)
                if name == "cli.point":
                    self._point = None
                if counter:
                    counter(self.counts, sig.bind(*args, **kwargs).arguments)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for _, module, _, _ in TARGETS:
            importlib.import_module(module)
        modules = [m for key, m in sys.modules.items()
                   if key == "cumlab" or key.startswith("cumlab.")]
        for name, module, attr, counter in TARGETS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            holders = [owner] if isinstance(owner, type) else modules
            fn = getattr(owner, attr)
            wrapper = self._wrap(name, fn, counter)
            for holder in holders:
                # rebind every name that refers to the original function
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, wrapper)
                        self._undo.append((holder, key, fn))

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._undo):
            setattr(holder, key, fn)
        self._undo.clear()

    def layers(self) -> dict:
        """Per span name: number of calls, total and self time in seconds."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = {}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_time[idx]
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, point in self.spans:
                fh.write(json.dumps([name, start, end, parent, point]) + "\n")


def traced_run(workload: str, config_path: str, out_dir: str) -> tuple[dict, Tracer]:
    """Run the workload once under the tracer; returns (summary, tracer)."""
    wl = WORKLOADS[workload]
    with open(config_path) as fh:
        cfg = json.load(fh)
    import cumlab.cli

    want = readback.expected_dataset(cfg) if wl.command == "generate" else None
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        code = cumlab.cli.main([wl.command, "--config", config_path, "--out", out_dir,
                                "--jobs", "1"])
        wall = time.perf_counter() - start
        problems = readback.check_export(out_dir, cfg, want) if want is not None else []
    finally:
        tracer.uninstall()
    summary = {"exit_code": code, "wall_s": wall, "layers": tracer.layers(),
               "counts": dict(tracer.counts), "problems": problems}
    return summary, tracer


if __name__ == "__main__":
    wl_name, config_path, out_dir, summary_path, spans_path = sys.argv[1:6]
    summary, tracer = traced_run(wl_name, config_path, out_dir)
    tracer.write_spans(spans_path)
    with open(summary_path, "w") as fh:
        json.dump(summary, fh)
