"""One ``qrframes verify --suite all`` invocation for the verify-small workload.

    python3 perfbench/verify_child.py SRC_DIR GROUP SEED SPANS_PATH

Imports qrframes from SRC_DIR, resolves ``builtin:GROUP`` and prints
``{"setup_end": ..., "checks": ...}``; then runs ``qrframes.cli.main`` with
the CLI's defaults (worker count and BLAS threads included) and prints
``{"rc": ..., "report": ..., ...}``.  Both lines are JSON.  ``setup_end`` is
``time.monotonic()``, the system-wide CLOCK_MONOTONIC on Linux, so the parent
can subtract its own spawn time.  With SPANS_PATH other than ``-`` the
library is traced and the spans are written there.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import threading
import time


def main() -> int:
    src, group, seed, spans_path = sys.argv[1:5]
    sys.path.insert(0, src)
    from qrframes import cli, suites
    from qrframes import io as qio

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"error: qrframes was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3
    tracer = None
    if spans_path != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    resolved = qio.resolve_group(f"builtin:{group}")
    planned = len(suites.available_checks(resolved, suites.select_checks(["all"])))
    print(json.dumps({"setup_end": time.monotonic(), "checks": planned}), flush=True)

    # Threads that ran a check: the suite runner's resolved worker count.
    threads = set()

    def observed(fn):
        def run(*args):
            threads.add(threading.get_ident())
            return fn(*args)
        return run

    for name, (claim, fn) in list(suites.CHECKS.items()):
        suites.CHECKS[name] = (claim, observed(fn))
    if tracer is not None:
        tracer.phase = "run"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["verify", "--group", f"builtin:{group}", "--suite", "all",
                       "--seed", seed])
    if tracer is not None:
        tracer.dump(spans_path)
    text = out.getvalue()
    print(json.dumps({
        "rc": rc,
        "report": json.loads(text) if text.strip() else None,
        "worker_threads": len(threads),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
