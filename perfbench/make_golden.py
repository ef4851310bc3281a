"""Regenerate ``golden.json``: the offline build's expected outputs.

    python3 perfbench/make_golden.py

Builds the snapshot once and records its digest plus a ranking digest
(k=10) for every anchor of both classes.  Run it only when a change is
*meant* to alter the snapshot bytes or the rankings, and say so in the
change.
"""

from __future__ import annotations

import json
import shutil

import common


def main() -> int:
    common.require_program()
    from repro.index.persist import snapshot_digest

    dataset = common.load()
    engine = common.build_engine(dataset)
    target = common.WORK / "golden-snapshot"
    shutil.rmtree(target, ignore_errors=True)
    try:
        engine.save_index(target)
        golden = {
            "snapshot_digest": snapshot_digest(target),
            "rankings": {
                class_name: {
                    repr(anchor): common.ranking_digest(
                        engine.query(class_name, anchor, k=10)
                    )
                    for anchor in common.anchors(dataset)
                }
                for class_name in dataset.classes
            },
        }
    finally:
        engine.close()
        shutil.rmtree(target, ignore_errors=True)
    (common.HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"golden.json: snapshot {golden['snapshot_digest']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
