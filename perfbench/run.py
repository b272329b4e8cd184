"""qrframes benchmark: one workload per run, one JSON result on the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads and metrics are described in
perfbench/README.md.  With ``--trace 0`` the result holds the end-to-end
metrics; with ``--trace 1`` a separate traced pass gives the per-layer ones.
The line before the result records the environment and the run's details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

from common import OUT_DIR, ROOT, SRC

WORKLOADS = ("verify-small", "relativize-s4", "framechange-stream")


def _blas() -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def _git_commit():
    try:
        # The ceiling keeps git from reporting an enclosing repository's commit.
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy as np

    threads = ("QRF_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "threads_env": {k: os.environ.get(k) for k in threads},
        "seed": seed,
        "git_commit": _git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qrframes", "__init__.py")):
        print(f"error: no qrframes sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import qrframes

    if not os.path.abspath(qrframes.__file__).startswith(SRC + os.sep):
        print(f"error: qrframes was imported from {qrframes.__file__}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    deadline = time.monotonic() + 170.0
    if args.workload == "verify-small":
        import verify_small as workload
    else:
        import library as workload
    outcome = workload.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           deadline)
    env = environment(args.seed)
    env.update(outcome.pop("env", {}))
    attempted, failed = outcome["attempted"], outcome["failed"]
    print(json.dumps({"workload": args.workload, "env": env,
                      "failed_frac": failed / attempted if attempted else 1.0,
                      "detail": outcome["detail"]}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted > 0 else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
