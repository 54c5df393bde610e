#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the cumlab sweep runner.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` times closed-loop calls of the real CLI, each in a fresh
interpreter and each after a fresh ``import cumlab.cli`` that times
set-up, for ``S`` seconds: a step starts only if a step of median length
still ends within them, and there is always at least one.  Call ``i``
runs the inputs of config seed ``call_seed(N, i)``.  It checks every
call's outputs and reports the end-to-end metrics listed in
``BENCHMARK.json``: medians over the calls, and ``setup_s`` as the median
of the imports, of which there are at least ``SETUP_PROBES``.
``--trace 1`` makes one untimed CLI call plus one traced in-process run at
``--jobs 1`` (``tracer.py``), both on the inputs of call 0, and reports
the per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

Every child runs with ``src`` as its only ``PYTHONPATH`` entry and without
the BLAS thread variables, ``CUMLAB_SEED`` or ``CUMLAB_BACKEND``, so the
program's own threading and defaults are what is measured.  A record with
the environment, the SHA-256 of the outputs and the exact work counts
goes to ``perfbench/work/results.jsonl``, and the traced run's spans to
``perfbench/work/WORKLOAD-SEED.spans.jsonl``.  Exact counts and output
digests are also kept in ``perfbench/work/ledger.json``, keyed by the
workload, the seed and a digest of ``src`` and the configs; a later run
with the same key that differs fails.

Stdlib only, so that it starts and fails cleanly without the program.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "work")
sys.path.insert(0, HERE)

from workloads import WORKLOADS, call_seed, points  # noqa: E402

SCRUBBED_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "CUMLAB_SEED", "CUMLAB_BACKEND")
CLI = "import sys; from cumlab.cli import main; sys.exit(main())"
SETUP_PROBES = 5
IMPORTTIME_PROBES = 3
RUN_LIMIT_S = 170.0  # every child is killed by then, so a run ends within 180 s
_START = time.monotonic()


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, a child that cannot start)."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_VARS}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_child(argv: list[str], log_path: str) -> tuple[int, float, object]:
    """Run argv in its own process group; returns (exit code, wall s, rusage).

    The rusage comes from wait4, so its CPU time and max RSS cover the child
    and every descendant it waited for (spawn workers).  Whatever is left of
    the group afterwards is waited for, then killed.
    """
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log, start_new_session=True)
        timeout = max(1.0, _START + RUN_LIMIT_S - time.monotonic())
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _reap_group(proc.pid)
    return proc.returncode, wall, usage


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(pgid: int) -> None:
    """Wait up to 5 s for leftovers of the group (e.g. a resource tracker), then kill."""
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)
    _kill_group(pgid)


def child_json(argv: list[str], log_path: str) -> dict:
    code, _, _ = run_child(argv, log_path)
    with open(log_path) as fh:
        lines = fh.read().strip().splitlines()
    if code != 0 or not lines:
        raise BenchError(f"{' '.join(argv[:3])} exited {code}; see {log_path}")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# output checks (stdlib only)
# ---------------------------------------------------------------------------


def _coord(token: str):
    try:
        return float(token)
    except ValueError:
        return token


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_outputs(wl, cfg: dict, out_dir: str, exit_code: int) -> dict:
    """Failures (failed points + missing points + failed checks) and CSV digests."""
    expected = set(points(cfg))
    problems: list[str] = []
    failures = 0
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
        failures += 1
    try:
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError):
        manifest = {}
        problems.append("manifest.json missing or unreadable")
        failures += 1
    failed_points = manifest.get("failed_points", 0)
    if failed_points:
        problems.append(f"manifest reports {failed_points} failed points")
        failures += failed_points
    for metric, in_domain in wl.domains.items():
        path = os.path.join(out_dir, f"{metric}.csv")
        if not os.path.exists(path):
            problems.append(f"{metric}.csv missing")
            failures += len(expected)
            continue
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        keys = [tuple(_coord(t) for t in row[:-1]) for row in rows]
        missing = len(expected - set(keys))
        unexpected = len(keys) - len(set(keys) & expected)
        bad = sum(not in_domain(float(row[-1]), cfg) for row in rows)
        if missing or unexpected or bad:
            problems.append(f"{metric}.csv: {missing} points missing, {unexpected} "
                            f"unexpected or repeated rows, {bad} values out of domain")
        failures += missing + unexpected + bad
    rate_path = os.path.join(out_dir, "success_rate.csv")
    if os.path.exists(rate_path):
        with open(rate_path, newline="") as fh:
            bad = sum(not 0.0 <= float(r["success_rate"]) <= 1.0 for r in csv.DictReader(fh))
        if bad:
            problems.append(f"success_rate.csv: {bad} rates outside [0, 1]")
            failures += bad
    # every output but the manifest, which holds wall times
    digests = {name: sha256(os.path.join(out_dir, name))
               for name in sorted(os.listdir(out_dir)) if name != "manifest.json"}
    return {"failures": failures, "points": len(expected), "problems": problems,
            "digests": digests}


def point_times(out_dir: str) -> list[float]:
    try:
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            times = [float(t) for t in json.load(fh)["wall_time_s"].values()]
    except (OSError, ValueError, KeyError, AttributeError) as exc:
        raise BenchError(f"no per-point times in {out_dir}: {exc!r}") from None
    if not times:
        raise BenchError(f"no per-point times in {out_dir}")
    return times


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


class Run:
    def __init__(self, wl, seed: int):
        self.wl = wl
        self.seed = seed
        self.dir = os.path.join(WORK, f"{wl.name}-{seed}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.digests: dict = {}  # call index -> output digests

    def config(self, index: int) -> tuple[dict, str]:
        """The config of call ``index`` and the path it is written to."""
        cfg = self.wl.make_config(call_seed(self.seed, index))
        path = os.path.join(self.dir, f"config{index}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return cfg, path

    def fail(self, problem: str, count: int = 1) -> None:
        """Record a failed check; `failed` counts it, up to the points attempted."""
        self.problems.append(problem)
        self.failed = min(self.failed + count, self.attempted)

    def log(self, name: str) -> str:
        return os.path.join(self.dir, name + ".log")

    def probe(self) -> dict:
        return child_json([sys.executable, os.path.join(HERE, "probe.py")], self.log("probe"))

    def invoke(self, index: int) -> dict:
        """One timed CLI call plus its (untimed) output checks."""
        cfg, cfg_path = self.config(index)
        out = os.path.join(self.dir, f"out{index}")
        code, wall, usage = run_child(
            [sys.executable, "-c", CLI, self.wl.command, "--config", cfg_path,
             "--out", out, "--jobs", str(self.wl.jobs)], self.log(f"cli{index}"))
        os.makedirs(out, exist_ok=True)
        check = check_outputs(self.wl, cfg, out, code)
        failed = min(check["failures"], check["points"])
        self.attempted += check["points"]
        self.failed += failed
        self.problems += check["problems"]
        self.note_digests(index, check["digests"], f"call {index}")
        return {"out": out, "cfg_path": cfg_path, "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
                "points_per_s": (check["points"] - failed) / wall}

    def note_digests(self, index: int, digests: dict, what: str) -> None:
        """Every output made from the inputs of one call must be byte-identical."""
        if index not in self.digests:
            self.digests[index] = digests
        elif digests != self.digests[index]:
            self.fail(f"outputs of {what} differ from those of call {index}")


def measure_end_to_end(run: Run, seconds: int) -> tuple[dict, dict]:
    env = run.probe()  # also compiles bytecode, which users pay once
    setup, calls, spent = [], [], []
    deadline = time.perf_counter() + seconds
    # a set-up probe before each call spreads both over the measuring time;
    # a step starts only if a typical one still ends within it
    while not calls or time.perf_counter() + statistics.median(spent) <= deadline:
        start = time.perf_counter()
        setup.append(run.probe()["import_s"])
        call = run.invoke(len(calls))
        out, cfg_path = call.pop("out"), call.pop("cfg_path")
        if calls:
            shutil.rmtree(out)
        else:
            first = out, cfg_path
        calls.append(call)
        spent.append(time.perf_counter() - start)
    while len(setup) < SETUP_PROBES:
        setup.append(run.probe()["import_s"])
    if run.wl.command == "generate":
        # the read-back is as slow as a call, so it checks the first call only
        found = child_json([sys.executable, os.path.join(HERE, "readback.py"), *first],
                           run.log("readback"))["problems"]
        for problem in found:
            run.fail(problem)
    check_ledger(run)
    metrics = {key: statistics.median(c[key] for c in calls)
               for key in ("wall_s", "points_per_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setup)
    metrics["ok_share"] = 1.0 - run.failed / run.attempted
    return metrics, {"env": env, "calls": calls, "setup_s": setup}


def importtime_s(run: Run, module: str) -> float:
    """Cumulative import time of `module` inside a fresh ``import cumlab.cli``."""
    log = run.log("importtime")
    code, _, _ = run_child([sys.executable, "-X", "importtime", "-c", "import cumlab.cli"], log)
    if code != 0:
        raise BenchError(f"import cumlab.cli failed; see {log}")
    with open(log) as fh:
        lines = fh.read().splitlines()
    os.unlink(log)
    for line in lines:
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == module:
            return int(parts[1]) / 1e6
    return 0.0  # not imported at all


def measure_layers(run: Run) -> tuple[dict, dict]:
    wl = run.wl
    env = run.probe()
    scipy_integrate = statistics.median(
        importtime_s(run, "scipy.integrate") for _ in range(IMPORTTIME_PROBES))
    plain = run.invoke(0)
    cfg, cfg_path = wl.make_config(call_seed(run.seed, 0)), plain["cfg_path"]
    times = point_times(plain["out"])
    summary_path = os.path.join(run.dir, "trace.json")
    spans_path = os.path.join(WORK, f"{wl.name}-{run.seed}.spans.jsonl")
    traced_out = os.path.join(run.dir, "traced")
    code, _, _ = run_child([sys.executable, os.path.join(HERE, "tracer.py"), wl.name,
                            cfg_path, traced_out, summary_path, spans_path],
                           run.log("tracer"))
    if code != 0:
        raise BenchError(f"traced run exited {code}; see {run.log('tracer')}")
    with open(summary_path) as fh:
        summary = json.load(fh)
    check = check_outputs(wl, cfg, traced_out, summary["exit_code"])
    check["problems"] += summary["problems"]
    run.problems += check["problems"]
    run.attempted += check["points"]
    run.failed += min(check["failures"] + len(summary["problems"]), check["points"])
    run.note_digests(0, check["digests"], "the traced run")

    layers, counts = summary["layers"], summary["counts"]

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0)

    def per(num, den):
        return num / den if den else 0.0

    for name in wl.layers:
        if not calls(name):
            run.fail(f"traced run recorded no call of {name}")
    if calls("cli.point") != len(points(cfg)):
        run.fail(f"traced run ran {calls('cli.point')} points")
    exact = {name + ".calls": n["calls"] for name, n in layers.items()}
    exact.update(counts)
    for key, want in wl.expected_counts(cfg).items():
        if exact.get(key, 0) != want:
            run.fail(f"{key} is {exact.get(key, 0)}, config implies {want}")
    if wl.command == "generate":
        size = os.path.getsize(os.path.join(plain["out"], f"{cfg['name']}.csv"))
        if counts.get("datagen.write_csv.bytes") != size:
            run.fail("traced and untraced CSV sizes differ")
    check_ledger(run, exact)

    total = sum(times)
    evals = counts.get("kernels.search_best_code.candidate_evals", 0)
    steps = counts.get("kernels.sgd_epoch.steps", 0)
    csv_bytes = counts.get("datagen.write_csv.bytes", 0)
    traced_points = layers.get("cli.point", {}).get("total_s", 0.0)
    metrics = {
        "cli.point_s.p50": statistics.median(times),
        "cli.point_s.max": max(times),
        "cli.outside_points_s": plain["wall_s"] - total / wl.jobs,
        "cli.pool_efficiency": total / (wl.jobs * plain["wall_s"]),
        "setup.import_scipy_integrate_s": scipy_integrate,
        "rng.generator.calls": calls("rng.generator"),
        "rng.generator.self_s": self_s("rng.generator"),
        "datagen.sample_class.calls": calls("datagen.sample_class"),
        "datagen.sample_class.rows": counts.get("datagen.sample_class.rows", 0),
        "datagen.sample_class.self_s": self_s("datagen.sample_class"),
        "datagen.make_dataset.self_s": self_s("datagen.make_dataset"),
        "datagen.write_csv.self_s": self_s("datagen.write_csv"),
        "datagen.write_csv.bytes": csv_bytes,
        "datagen.write_csv.mb_per_s": per(csv_bytes / 1e6, self_s("datagen.write_csv")),
        "datagen.write_binary.self_s": self_s("datagen.write_binary"),
        "datagen.read_csv.self_s": self_s("datagen.read_csv"),
        "datagen.read_binary.self_s": self_s("datagen.read_binary"),
        "detect.exhaustive_search.calls": calls("detect.exhaustive_search"),
        "detect.exhaustive_search.self_s": self_s("detect.exhaustive_search"),
        "kernels.search_best_code.self_s": self_s("kernels.search_best_code"),
        "kernels.search_best_code.candidate_evals": evals,
        "kernels.search_best_code.mevals_per_s":
            per(evals / 1e6, self_s("kernels.search_best_code")),
        "likelihood.sample_log_likelihood.self_s": self_s("likelihood.sample_log_likelihood"),
        "kernels.sgd_epoch.calls": calls("kernels.sgd_epoch"),
        "kernels.sgd_epoch.steps": steps,
        "kernels.sgd_epoch.us_per_step": per(1e6 * self_s("kernels.sgd_epoch"), steps),
        "learn.train_2lnn.self_s": self_s("learn.train_2lnn"),
        "learn.ipr.calls": calls("learn.ipr"),
        "learn.ipr.self_s": self_s("learn.ipr"),
        "learn.max_spike_overlap.self_s": self_s("learn.max_spike_overlap"),
        "learn.fit_random_features.self_s": self_s("learn.fit_random_features"),
        "cumtensor.empirical_fourth_cumulant.self_s":
            self_s("cumtensor.empirical_fourth_cumulant"),
        "cumtensor.empirical_fourth_cumulant.gflop_computed":
            counts.get("cumtensor.empirical_fourth_cumulant.flop", 0) / 1e9,
        "cumtensor.rank1_cp.self_s": self_s("cumtensor.rank1_cp"),
        "cumtensor.contract3.calls": calls("cumtensor.contract3"),
        "trace.wall_s": summary["wall_s"],
        # like for like only where the untraced call also runs one process
        "trace.overhead_s": traced_points - total if wl.jobs == 1 else 0.0,
    }
    shutil.rmtree(plain["out"], ignore_errors=True)
    shutil.rmtree(traced_out, ignore_errors=True)
    return metrics, {"env": env, "exact_counts": exact, "traced": summary,
                     "spans": os.path.relpath(spans_path, ROOT)}


def code_digest(wl, seed: int) -> str:
    """SHA-256 of the run's first config and of every source file under ``src``.

    The first config stands for all of them: they differ only in the seed.
    """
    cfg = wl.make_config(call_seed(seed, 0))
    h = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode())
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0" + sha256(path).encode())
    return h.hexdigest()


def check_ledger(run: Run, counts: dict | None = None) -> None:
    """Output digests and exact counts must repeat across runs of one seed and code.

    The key holds a digest of ``src`` and the config, so a change to the
    program or the workload starts a new entry instead of failing.  Digests
    are kept per call index, since each call runs other inputs.
    """
    path = os.path.join(WORK, "ledger.json")
    ledger = {}
    if os.path.exists(path):
        with open(path) as fh:
            ledger = json.load(fh)
    entry = ledger.setdefault(f"{run.wl.name}:{run.seed}:{code_digest(run.wl, run.seed)[:16]}",
                              {})
    digests = entry.setdefault("digests", {})
    for index, value in run.digests.items():
        if digests.setdefault(str(index), value) != value:
            run.fail(f"outputs of call {index} differ from an earlier run of this seed and code")
    if counts is not None:
        if entry.setdefault("counts", counts) != counts:
            run.fail("counts differ from an earlier run of this seed and code")
    if run.problems:
        return  # record only clean runs
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "scrubbed_env": {k: os.environ.get(k) for k in SCRUBBED_VARS},
    }


def declared_metrics(trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "cumlab", "cli.py")):
        print(f"error: no cumlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))
    run = Run(WORKLOADS[args.workload], args.seed)
    try:
        if args.trace:
            values, detail = measure_layers(run)
        else:
            values, detail = measure_end_to_end(run, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} are not both measured "
              "and declared in BENCHMARK.json", file=sys.stderr)
        return 1
    result = {
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    record = {"workload": run.wl.name, "seed": run.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine(), "problems": run.problems,
              "digests": run.digests, **detail, **result}
    with open(os.path.join(WORK, "results.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")
    shutil.rmtree(run.dir, ignore_errors=True)
    for problem in run.problems:
        print(f"check failed: {problem}")
    print("environment: " + json.dumps({**record["machine"], **detail["env"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
