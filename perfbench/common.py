"""Paths, fixed configuration and helpers shared by the workloads.

Both workloads serve ``linkedin`` at scale ``small`` (300 anchors,
2 classes) mined with ``MinerConfig(max_nodes=5, min_support=8)`` and
fitted with ``TrainerConfig(restarts=2, max_iterations=250, seed=0)``
on both classes — the experiment harness's ``small`` defaults.  The
graph itself is fixed (the dataset generator's own seed); the
benchmark seed only drives what the program is asked: probe queries
and traffic.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import sys
import time
from bisect import bisect_left
from itertools import accumulate
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: everything a run writes lives here (ignored by git)
WORK = ROOT / ".bench_build" / "perfbench"

DATASET = "linkedin"
SCALE = "small"
MINER = {"max_nodes": 5, "min_support": 8}
TRAINER = {"restarts": 2, "max_iterations": 250, "seed": 0}
FIT_SEED = 0
K_CHOICES = (5, 10, 20, 50)
ZIPF_S = 1.1
#: ``miss`` draws k from 1..MISS_MAX_K, for enough distinct keys
MISS_MAX_K = 50


def require_program() -> None:
    """Put ``src`` on the path, or exit non-zero when it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {SRC}; run from a full checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> dict[str, str]:
    """Environment for child processes that import the program."""
    env = dict(os.environ)
    parts = [str(SRC), *[p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]]
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
    return env


def run_dir(workload: str, seed: int) -> Path:
    """A fresh scratch directory for one run."""
    path = WORK / "runs" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# the program's inputs
# ----------------------------------------------------------------------
def load():
    """A freshly generated dataset (a new graph object every call)."""
    from repro.datasets import load_dataset

    return load_dataset(DATASET, scale=SCALE)


def anchors(dataset) -> list:
    return sorted(dataset.universe, key=repr)


def build_engine(dataset, **engine_kwargs):
    """Graph to fitted engine: mine, match/count, compile, fit both classes."""
    from repro.learning.trainer import TrainerConfig
    from repro.mining import MinerConfig
    from repro.search import SemanticProximitySearch

    engine = SemanticProximitySearch(
        dataset.graph,
        anchor_type=dataset.anchor_type,
        miner_config=MinerConfig(**MINER),
        trainer_config=TrainerConfig(**TRAINER),
        **engine_kwargs,
    )
    engine.prepare()
    for class_name in dataset.classes:
        engine.fit(class_name, labels=dataset.class_labels(class_name), seed=FIT_SEED)
    return engine


def source_digest(*roots: Path) -> str:
    """Digest of the program sources (plus ``roots``) and the build configuration."""
    h = hashlib.sha256(json.dumps([DATASET, SCALE, MINER, TRAINER, FIT_SEED]).encode())
    for root in (SRC, *roots):
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root.parent)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cached_snapshot() -> Path:
    """The fitted snapshot of this checkout's sources, built on first use.

    Both workloads serve the snapshot the offline build produces;
    building it once per source tree keeps mining and matching (which
    only the traced runs measure) out of their runs.  The cache key
    covers every source file, so a changed program rebuilds.
    """
    target = WORK / f"snapshot-{source_digest()}"
    if (target / "manifest.json").is_file():
        return target
    staging = WORK / f"staging-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    staging.parent.mkdir(parents=True, exist_ok=True)
    engine = build_engine(load())
    try:
        engine.save_index(staging)
    finally:
        engine.close()
    try:
        staging.rename(target)
    except OSError:
        # another run published the same snapshot first
        shutil.rmtree(staging, ignore_errors=True)
    return target


class Traffic:
    """Seeded query stream: Zipf(1.1) anchors, alternating classes.

    Anchor popularity follows Zipf over a seeded permutation of the
    anchors, so each seed has different hot keys; ``k`` is uniform over
    :data:`K_CHOICES`.
    """

    def __init__(self, anchor_list: list, classes: tuple[str, ...], seed: int):
        self._rng = random.Random(seed)
        self.anchors = list(anchor_list)
        self._rng.shuffle(self.anchors)
        self.classes = classes
        self._cum = list(
            accumulate(1.0 / (i + 1) ** ZIPF_S for i in range(len(self.anchors)))
        )
        self._n = 0

    def next(self) -> tuple[str, object, int]:
        total = self._cum[-1]
        i = bisect_left(self._cum, self._rng.random() * total)
        class_name = self.classes[self._n % len(self.classes)]
        self._n += 1
        return class_name, self.anchors[min(i, len(self.anchors) - 1)], self._rng.choice(K_CHOICES)


class DistinctTraffic:
    """Seeded query stream in which no ``(class, query, k)`` repeats.

    A seeded permutation of every class, anchor and ``k`` in
    ``1..MISS_MAX_K`` (30000 keys on ``linkedin`` small), so the result
    cache never hits and every query is ranked by the shards.
    """

    def __init__(self, anchor_list: list, classes: tuple[str, ...], seed: int):
        keys = [
            (class_name, anchor, k)
            for class_name in classes
            for anchor in anchor_list
            for k in range(1, MISS_MAX_K + 1)
        ]
        random.Random(seed).shuffle(keys)
        self._keys = iter(keys)

    def next(self) -> tuple[str, object, int]:
        return next(self._keys)


def encode_ranking(ranking) -> list:
    """A ranking as the JSON the HTTP frontend sends."""
    from repro.index.vectors import encode_node_id

    return [[encode_node_id(node), score] for node, score in ranking]


def ranking_digest(ranking) -> str:
    blob = json.dumps(encode_ranking(ranking), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def expected_rankings(engine, keys) -> dict[tuple, list]:
    """In-process rankings of ``(class, query, k)`` keys, JSON-encoded."""
    groups: dict[tuple[str, int], list] = {}
    for class_name, query, k in sorted(set(keys), key=repr):
        groups.setdefault((class_name, k), []).append(query)
    out = {}
    for (class_name, k), queries in groups.items():
        for query, ranking in zip(queries, engine.query_many(class_name, queries, k=k)):
            # a JSON round trip, so floats compare exactly as the wire sends them
            out[(class_name, query, k)] = json.loads(json.dumps(encode_ranking(ranking)))
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def manifest_metrics(trace: bool) -> set[str]:
    """The metric names ``BENCHMARK.json`` asks a run of this mode for."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in manifest["per_layer" if trace else "end_to_end"]}


def emit(correct: bool, attempted: int, failed: int, metrics: dict, trace: bool) -> None:
    """Print the result object as the last line of standard output.

    A result that lacks a metric the manifest names, or has one it does
    not, is not correct: every workload reports every metric of its mode.
    """
    if correct and set(metrics) != (names := manifest_metrics(trace)):
        print(
            f"perfbench: metrics {sorted(set(metrics) ^ names)} do not match BENCHMARK.json",
            file=sys.stderr,
        )
        correct = False
    print(
        json.dumps(
            {
                "correct": bool(correct and failed == 0),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        ),
        flush=True,
    )


class Clock:
    """Wall time since the run started, for ``setup_s`` accounting."""

    def __init__(self, started: float):
        self.started = started

    def since_start(self) -> float:
        return time.perf_counter() - self.started


def check_counters(workload: str, seed: int, counters: dict, log) -> int:
    """Compare exact work counters with the last run of the same code.

    Returns 1 (one failed check) when a counter drifted; the first run
    of a source tree only records them.
    """
    # keyed by the harness too: changing what a run asks for changes the counts
    path = WORK / f"counters-{source_digest(HERE)}-{workload}-{seed}.json"
    current = {k: counters[k] for k in sorted(counters)}
    if path.is_file():
        previous = json.loads(path.read_text())
        if previous != current:
            drift = {
                k: (previous.get(k), current.get(k))
                for k in sorted(set(previous) | set(current))
                if previous.get(k) != current.get(k)
            }
            log(f"exact counters drifted between runs: {drift}")
            return 1
        log(f"exact counters repeat the previous run: {current}")
        return 0
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(current))
    log(f"exact counters recorded: {current}")
    return 0


def overhead_pct(traced: float, untraced: float) -> dict:
    """``trace.overhead_pct``: traced minus untraced, as a share of untraced."""
    return metric((traced - untraced) / untraced * 100.0, "%")
