"""The offline build's layers, from one traced cold build.

A cold build (graph to mined catalog, match/count, compile, fit of both
classes, saved snapshot) takes 10-20 s on a shared 2-vCPU host, and its
wall time follows the host's speed, which drifted by up to 2x within
ten minutes there.  No end-to-end metric of a build could stay within a
bound (see the README), so the build is measured per layer only: each
workload's traced run makes one cold build with recording on, checks
its snapshot against ``golden.json`` and reports the build layers.
"""

from __future__ import annotations

import json
import time

import common
from common import metric


def golden() -> dict:
    return json.loads((common.HERE / "golden.json").read_text())


def work_counters(engine, target) -> dict:
    """Exact work counts of one build (checked to repeat between runs)."""
    compiled = engine.vectors.compile()
    return {
        "mining.catalog_size": len(engine.catalog),
        "index.instances": sum(
            engine.index.num_instances(m) for m in engine.index.matched_ids()
        ),
        "index.nnz": compiled.nnz,
        "index.snapshot_bytes": sum(
            f.stat().st_size for f in target.rglob("*") if f.is_file()
        ),
    }


def layer_metrics(rec, builds: int, counters: dict) -> dict:
    """The build layers' per-layer metrics, per traced build."""
    per = 1.0 / builds
    embeddings = rec.counters["matching.embeddings"] * per
    instances = rec.counters["index.instances"] * per
    return {
        "mining.busy_s": metric(rec.total("mining.mine_catalog") * per, "s"),
        "mining.mni_s": metric(rec.total("mining.mni_support") * per, "s"),
        "mining.mni_calls": metric(len(rec.durations("mining.mni_support")) * per, "count"),
        "mining.catalog_size": metric(counters["mining.catalog_size"], "count"),
        "matching.enumerate_s": metric(
            rec.total("matching.compiled_embedding_matrix") * per, "s"
        ),
        "matching.embeddings": metric(embeddings, "count"),
        "index.count_s": metric(rec.self_total("index.compiled_match_and_count") * per, "s"),
        "index.instances": metric(instances, "count"),
        "index.dedup_ratio": metric(embeddings / instances, "ratio"),
        "index.compile_s": metric(rec.total("index.compile") * per, "s"),
        "index.nnz": metric(counters["index.nnz"], "count"),
        "index.save_s": metric(rec.total("index.save_index") * per, "s"),
        "index.snapshot_bytes": metric(counters["index.snapshot_bytes"], "bytes"),
        "learning.fit_s": metric(rec.total("learning.train") * per, "s"),
        "learning.model_compile_s": metric(rec.total("learning.model_compile") * per, "s"),
    }


def traced_build(rec, work, log) -> tuple[dict, dict, int]:
    """One cold build with recording on: ``(layer metrics, counters, failed)``.

    ``failed`` is 1 when the saved snapshot's digest differs from the
    golden one.  Call it with no span open and nothing recorded yet.
    """
    from repro.index.persist import snapshot_digest

    dataset = common.load()
    target = work / "traced-build"
    rec.enabled = True
    start = time.perf_counter()
    engine = common.build_engine(dataset)
    engine.save_index(target)
    log(f"traced build: {time.perf_counter() - start:.2f} s")
    # the checks below are not part of the build's layer figures
    rec.enabled = False
    failed = 0
    try:
        want = golden()["snapshot_digest"]
        digest = snapshot_digest(target)
        if digest != want:
            failed += 1
            log(f"traced build: snapshot digest {digest} != golden {want}")
        counters = work_counters(engine, target)
    finally:
        engine.close()
    counters["mining.mni_calls"] = len(rec.durations("mining.mni_support"))
    counters["matching.embeddings"] = int(rec.counters["matching.embeddings"])
    return layer_metrics(rec, 1, counters), counters, failed
