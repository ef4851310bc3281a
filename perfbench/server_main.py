"""Run ``repro serve`` with the layer wrappers installed.

    python3 perfbench/server_main.py SPANS_OUT serve --snapshot DIR ...

The traced ``serve`` run starts the server through this launcher: it
wraps the layer entry points (:mod:`spans`) in the server process,
enters the program's own CLI, and writes the spans to ``SPANS_OUT``
once the CLI returns from its SIGINT shutdown path.  SIGUSR1 switches
recording off and SIGUSR2 back on.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

import common
import spans


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    common.require_program()
    rec = spans.Recorder()
    spans.install(rec)
    signal.signal(signal.SIGUSR1, lambda *_: setattr(rec, "enabled", False))
    signal.signal(signal.SIGUSR2, lambda *_: setattr(rec, "enabled", True))
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        rec.dump(out)


if __name__ == "__main__":
    sys.exit(main())
