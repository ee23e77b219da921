"""``python loadbench/traced_serve.py --trace-dir DIR <repro.serve args>``

Runs the stock ``python -m repro.serve`` entry point with the benchmark's
span wrappers installed.  The wrappers are installed at import, so the
cluster's spawned worker processes, which re-import this file as their
main module, record spans as well; every process writes its spans into
``DIR`` when it exits.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import tracing  # noqa: E402  (needs the src path above)


def _trace_dir(argv):
    index = argv.index("--trace-dir")
    return argv[index + 1], argv[:index] + argv[index + 2:]


TRACE_DIR, SERVE_ARGV = _trace_dir(sys.argv[1:])
tracing.install(TRACE_DIR)

if __name__ == "__main__":
    from repro.serve.__main__ import main

    raise SystemExit(main(SERVE_ARGV))
