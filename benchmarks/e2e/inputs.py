"""Datasets and query pools for the end-to-end benchmark, cached as ``.npz``.

Each dataset is the benchmark's fixed "database" (like the paper's FOURIER
and COLHIST sets) plus fixed query pools drawn from it with the repository's
own generators.  The run seed never changes these; it picks the order in
which pool queries are issued, how they are grouped into batches and the
insert/delete stream (see ``run.py``).  Keeping the pools seed-independent
lets one generation per checkout serve every run: exact-selectivity queries
cost 20-50 ms each to generate, far too much to redo on every run.

For the read-only datasets the expected answers are computed here, by the
brute-force oracle, so the measured process only compares.

Generation runs as its own process (``python inputs.py <dataset> <scale>``),
started by :func:`load` when the cache is missing, so the generator's peak
memory (about 0.8 GB for FOURIER at N = 100,000) is not charged to the
measured process's ``peak_rss_mb``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CACHE = HERE / ".cache"
SRC = HERE.parents[1] / "src"

DATA_SEED = 0
KNN_K = 10

# name -> generator, dims, N, range selectivity, pool sizes, held-out count.
# FOURIER runs at N = 100,000 rather than the paper's 1.2M: the generator
# holds every polygon's full spectrum at once (~8 KB per vector).
DATASETS = {
    "colhist64": {
        "kind": "colhist", "dims": 64, "count": 70_000, "selectivity": 0.002,
        "pools": {"range": 256, "dist": 256, "knn": 256}, "held_out": 0,
    },
    "fourier16": {
        "kind": "fourier", "dims": 16, "count": 100_000, "selectivity": 0.0007,
        "pools": {"range": 512, "knn": 512}, "held_out": 0,
    },
    "colhist32": {
        "kind": "colhist", "dims": 32, "count": 70_000, "selectivity": 0.002,
        "pools": {"range": 128, "knn": 128}, "held_out": 10_000,
    },
}


def scaled(value: int, scale: float, minimum: int) -> int:
    return max(minimum, int(round(value * scale)))


def cache_path(name: str, scale: float) -> Path:
    return CACHE / f"{name}-scale{scale:g}.npz"


def load(name: str, scale: float) -> tuple[dict[str, np.ndarray], float]:
    """The cached arrays of dataset ``name``, generating them first (in a
    child process) when absent.  Returns ``(arrays, generation seconds)``;
    the seconds are 0 on a cache hit."""
    path = cache_path(name, scale)
    gen_s = 0.0
    if not path.exists():
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), name, repr(scale)],
            check=True,
        )
        gen_s = time.perf_counter() - start
    with np.load(path) as npz:
        return {key: npz[key] for key in npz.files}, gen_s


def generate(name: str, scale: float) -> dict[str, np.ndarray]:
    """Build every array of dataset ``name`` at ``scale``."""
    from repro.datasets.colhist import colhist_dataset
    from repro.datasets.fourier import fourier_dataset
    from repro.datasets.workload import distance_workload, range_workload
    from repro.distances import L1, L2

    import oracle

    spec = DATASETS[name]
    count = scaled(spec["count"], scale, 400)
    held_out = scaled(spec["held_out"], scale, 50) if spec["held_out"] else 0
    if spec["kind"] == "fourier":
        data = fourier_dataset(count, spec["dims"], seed=DATA_SEED)
    else:
        data = colhist_dataset(count, spec["dims"], seed=DATA_SEED)
    # Queries come from the bulk-loaded part only: held-out points are the
    # insert stream of the mixed workload.
    base = data[: count - held_out]
    pools = {kind: scaled(size, scale, 16) for kind, size in spec["pools"].items()}
    out: dict[str, np.ndarray] = {"data": data, "held_out": np.array(held_out)}

    boxes = range_workload(base, pools["range"], spec["selectivity"], seed=1).boxes()
    out["range_low"] = np.array([box.low for box in boxes])
    out["range_high"] = np.array([box.high for box in boxes])
    if "dist" in pools:
        dist = distance_workload(base, pools["dist"], spec["selectivity"], L1, seed=2)
        out["dist_centers"] = dist.centers
        out["dist_radii"] = dist.radii
    rng = np.random.default_rng(3)
    out["knn_centers"] = base[rng.choice(len(base), pools["knn"], replace=False)].astype(
        np.float64
    )

    if held_out:
        return out  # the mixed workload checks against its live model instead
    model = oracle.Model(data)
    out["range_oids"], out["range_off"] = oracle.pack(
        [model.box(lo, hi) for lo, hi in zip(out["range_low"], out["range_high"])]
    )
    if "dist" in pools:
        hits = [
            model.within(c, r, L1) for c, r in zip(out["dist_centers"], out["dist_radii"])
        ]
        out["dist_oids"], out["dist_off"] = oracle.pack([oids for oids, _ in hits])
        out["dist_d"], _ = oracle.pack([dists for _, dists in hits])
    nearest = [model.knn(c, KNN_K, L2) for c in out["knn_centers"]]
    out["knn_oids"] = np.array([oids for oids, _ in nearest])
    out["knn_d"] = np.array([dists for _, dists in nearest])
    return out


def main(argv: list[str]) -> int:
    name, scale = argv[0], float(argv[1])
    sys.path.insert(0, str(SRC))
    arrays = generate(name, scale)
    CACHE.mkdir(exist_ok=True)
    path = cache_path(name, scale)
    tmp = path.with_suffix(f".{os.getpid()}.tmp.npz")
    np.savez(tmp, **arrays)
    os.replace(tmp, path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
