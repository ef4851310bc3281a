"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload serve|miss --seed N \
        --seconds S --trace 0|1

Runs from the root of a checkout.  With ``--trace 0`` the last line of
standard output is the result object with the workload's end-to-end
metrics; with ``--trace 1`` the layer entry points are wrapped
(:mod:`spans`) and the result carries the per-layer metrics instead,
while the spans are written to ``.bench_build/perfbench/``.  Progress
and findings go to standard error.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

import common  # noqa: E402
import serve_wl  # noqa: E402

WORKLOADS = ("serve", "miss")


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    common.require_program()
    # a shell background job starts with SIGINT ignored, and children
    # inherit that; a handled signal is reset to the default on exec, so
    # this keeps the server's clean SIGINT shutdown path reachable
    signal.signal(signal.SIGINT, signal.default_int_handler)
    rec = None
    if args.trace:
        import spans

        rec = spans.Recorder()
        spans.install(rec)
    args.work = common.run_dir(args.workload, args.seed)
    try:
        serve_wl.run(args, rec, common.Clock(STARTED), log)
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
    if rec is not None:
        out = common.WORK / f"trace-{args.workload}-{args.seed}.json"
        rec.dump(out)
        log(f"spans written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
