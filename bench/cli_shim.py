"""Traced stand-in for ``python3 -m causelab``, used by the traced cli-cold pass.

    python3 bench/cli_shim.py SPANS_FILE REQUEST_ID -- <causelab arguments>

Times ``import causelab.cli``, installs the tracer, runs ``causelab.cli.main``
with the same arguments and exit code as the real entry point (an uncaught
exception still prints its traceback and exits 1), and writes the spans and
the import time to SPANS_FILE.  Stdout is exactly what the CLI prints.
"""

from __future__ import annotations

import os
import sys
import time


def main() -> int:
    spans_path, request = sys.argv[1], sys.argv[2]
    if sys.argv[3] != "--":
        raise SystemExit("usage: cli_shim.py SPANS_FILE REQUEST_ID -- ARGS...")
    argv = sys.argv[4:]

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    start = time.perf_counter()
    sys.path.insert(0, src)
    import causelab.cli

    import_s = time.perf_counter() - start
    if not os.path.abspath(causelab.cli.__file__).startswith(src + os.sep):
        raise ImportError(f"causelab imported from {causelab.cli.__file__}, not {src}")
    import tracing

    tracer = tracing.Tracer()
    tracer.request = request
    tracer.install()
    try:
        code = causelab.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.write(spans_path, {"import_s": import_s})
    return code


if __name__ == "__main__":
    sys.exit(main())
