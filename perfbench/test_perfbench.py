"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench -q
The traced-workload tests run every workload once in-process (about a minute).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, points  # noqa: E402


def _cumlab_modules():
    return [m for key, m in sys.modules.items() if key == "cumlab" or key.startswith("cumlab.")]


def test_wrappers_replace_every_binding():
    t = tracer.Tracer()
    t.install()
    try:
        originals = {id(fn) for _, _, fn in t._undo}
        import cumlab.cumtensor
        import cumlab.datagen
        import cumlab.detect

        # detect binds sample_class and sample_log_likelihood at import
        assert cumlab.detect.sample_class is cumlab.datagen.sample_class
        assert cumlab.detect.sample_class.__wrapped__ is not None
        assert cumlab.detect.sample_log_likelihood.__wrapped__ is not None
        assert cumlab.cumtensor.FourthCumulant.contract3.__wrapped__ is not None
        for module in _cumlab_modules():
            assert not any(id(v) in originals for v in vars(module).values()), module.__name__
    finally:
        t.uninstall()
    assert not hasattr(cumlab.detect.sample_class, "__wrapped__")
    assert not hasattr(cumlab.cumtensor.FourthCumulant.contract3, "__wrapped__")


def _traced(name, seed, tmp_path):
    wl = WORKLOADS[name]
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg_path = tmp_path / f"{name}-{seed}.json"
    cfg_path.write_text(json.dumps(wl.make_config(seed)))
    summary, _ = tracer.traced_run(name, str(cfg_path), str(tmp_path / f"out-{seed}"))
    return wl, summary


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_named_layer_is_called_and_counts_match_config(name, tmp_path):
    wl, summary = _traced(name, 11, tmp_path)
    assert summary["exit_code"] == 0
    assert summary["problems"] == []
    cfg = wl.make_config(11)
    for layer in wl.layers:
        assert summary["layers"].get(layer, {}).get("calls", 0) > 0, layer
    assert summary["layers"]["cli.point"]["calls"] == len(points(cfg))
    exact = {k + ".calls": v["calls"] for k, v in summary["layers"].items()}
    exact.update(summary["counts"])
    for key, want in wl.expected_counts(cfg).items():
        assert exact[key] == want, key


def test_exact_counts_repeat_for_one_seed(tmp_path):
    _, first = _traced("localise-nlgp", 5, tmp_path / "a")
    _, second = _traced("localise-nlgp", 5, tmp_path / "b")
    assert first["counts"] == second["counts"]
    assert ({k: v["calls"] for k, v in first["layers"].items()}
            == {k: v["calls"] for k, v in second["layers"].items()})


def test_output_check_counts_missing_and_out_of_domain_rows(tmp_path):
    wl = WORKLOADS["search-curve"]
    cfg = wl.make_config(1)
    keys = points(cfg)
    rows = [f"{int(d)},{t},{int(r)},1.0" for d, t, r in keys[2:]]
    rows[0] = rows[0].rsplit(",", 1)[0] + ",2.0"  # out of domain
    (tmp_path / "success.csv").write_text("d,theta,run,value\n" + "\n".join(rows) + "\n")
    (tmp_path / "manifest.json").write_text(json.dumps({"failed_points": 0,
                                                        "metrics": ["success"]}))
    check = run.check_outputs(wl, cfg, str(tmp_path), 0)
    assert check["failures"] == 3
    assert check["points"] == len(keys)
    assert set(check["digests"]) == {"success.csv"}


def test_failed_checks_count_in_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    r = run.Run(WORKLOADS["search-curve"], 1)
    r.attempted = 10
    r.note_digests(0, {"success.csv": "a"}, "call 0")
    r.note_digests(1, {"success.csv": "b"}, "call 1")  # other inputs
    assert r.failed == 0
    r.note_digests(0, {"success.csv": "b"}, "the traced run")
    assert r.failed == 1 and len(r.problems) == 1


def test_ledger_is_keyed_by_code(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    r = run.Run(WORKLOADS["search-curve"], 1)
    r.attempted = 10
    run.check_ledger(r, {"n": 1})
    assert r.failed == 0
    run.check_ledger(r, {"n": 2})  # same seed and code, other count: drift
    assert r.failed == 1
    r.failed, r.problems = 0, []
    r.digests = {0: {"success.csv": "a"}}
    run.check_ledger(r)
    r.digests = {0: {"success.csv": "b"}, 1: {"success.csv": "c"}}
    run.check_ledger(r)  # call 0 drifted; call 1 is new
    assert r.failed == 1
    r.failed, r.problems = 0, []
    monkeypatch.setattr(run, "code_digest", lambda wl, seed: "other code")
    run.check_ledger(r, {"n": 2})  # changed code starts a new entry
    assert r.failed == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search-curve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_every_traced_layer_metric_is_called_by_some_workload():
    spans = {target[0] for target in tracer.TARGETS}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    covered = {layer for wl in WORKLOADS.values() for layer in wl.layers}
    for name in names:
        layer = name.rsplit(".", 1)[0]
        if layer in spans:
            assert layer in covered, name
