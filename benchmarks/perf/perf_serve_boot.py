"""Start ``repro serve`` with the benchmark's span wrappers installed.

    python perf_serve_boot.py SPANS_DIR serve --port 0 ...

Installs :mod:`perf_spans` wrappers, runs ``repro.cli.main`` with the
remaining arguments and, when ``main`` returns (SIGINT ends the
daemon's wait and drains it), writes this process's spans to
``SPANS_DIR/spans-<pid>.json``.
"""

from __future__ import annotations

import os
import sys

import perf_spans


def main(argv: list[str]) -> int:
    spans_dir, cli_argv = argv[0], argv[1:]
    recorder = perf_spans.Recorder(spans_dir=spans_dir)
    perf_spans.install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_argv)
    finally:
        recorder.dump(os.path.join(spans_dir, f"spans-{os.getpid()}.json"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
