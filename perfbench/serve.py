"""Launch ``repro serve``, optionally with the layer wrappers installed.

Usage::

    python3 perfbench/serve.py [--trace-out FILE] serve --data-dir DIR ...

Everything after the launcher's own option is handed to the repository's
command line unchanged.  With ``--trace-out`` the wrappers of
:mod:`tracer` are installed before the server starts, and the recorded
spans, counters and samples are written to FILE when the server stops
(SIGINT stops it cleanly).
"""

from __future__ import annotations

import argparse
import sys

import tracer as tracing


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", default=None)
    args, rest = parser.parse_known_args(argv)
    from repro.cli import main as repro_main

    tracer = tracing.Tracer().install() if args.trace_out else None
    try:
        return repro_main(rest)
    finally:
        if tracer is not None:
            tracer.dump(args.trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
