"""Bit-exact read-back check of an ``export-dataset`` output directory.

The dataset is read through both ``read_binary`` and ``read_csv`` and must
equal, bit for bit, the dataset regenerated in memory through the public
``datagen`` API with the CLI's seed derivation (point seed
``SHA-256(seed:generate:name:0)``).

Run as ``python3 perfbench/readback.py OUT_DIR CONFIG_JSON`` with ``src``
on ``PYTHONPATH``; prints ``{"problems": [...]}``.
"""

from __future__ import annotations

import json
import os
import sys


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def expected_dataset(cfg: dict):
    """The dataset the ``generate`` config must produce, rebuilt in memory."""
    from cumlab import datagen
    from cumlab.hermite import GDistribution
    from cumlab.rng import generator, spawn_seed

    model = cfg["model"]
    point_seed = spawn_seed(cfg["seed"], "generate", cfg["name"], 0)
    d = model["d"]
    spec = datagen.ModelSpec(
        kind=model["kind"], d=d, beta=float(model["beta"]),
        g_dist=GDistribution.from_kind(model["g"]),
        spike=datagen.draw_spike(d, generator(point_seed, "spike")),
    )
    return datagen.make_dataset(spec, cfg["n_per_class"], point_seed)


def check_export(out_dir: str, cfg: dict, want) -> list[str]:
    """Problems found in the exported dataset; empty when it reads back exactly."""
    from cumlab import datagen

    name = cfg["name"]
    problems = []
    for fmt, reader in (("bin", datagen.read_binary), ("csv", datagen.read_csv)):
        path = os.path.join(out_dir, f"{name}.{fmt}")
        if not os.path.exists(path):
            problems.append(f"{name}.{fmt} missing")
            continue
        got = reader(path)
        if not (_same_bits(got.values, want.values) and _same_bits(got.labels, want.labels)):
            problems.append(f"{name}.{fmt} does not read back bit-exactly")
    return problems


if __name__ == "__main__":
    with open(sys.argv[2]) as fh:
        config = json.load(fh)
    print(json.dumps({"problems": check_export(sys.argv[1], config, expected_dataset(config))}))
