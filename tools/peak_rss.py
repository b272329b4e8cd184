#!/usr/bin/env python3
"""Run a command and bound its peak memory.

    python3 tools/peak_rss.py --max-mb MB -- CMD [ARG ...]

Runs CMD as a child and reads the peak resident set size of the largest
process it waited for (``resource.getrusage(RUSAGE_CHILDREN).ru_maxrss``,
which Linux gives in KiB).  Prints ``peak_rss_mb=<value>`` to stderr.
Exits with the command's code if it failed, with 1 if it succeeded but
peaked above MB, and with 0 otherwise.  Standard library only.
"""

import argparse
import resource
import subprocess
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-mb", type=float, required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")
    code = subprocess.call(command)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak_rss_mb={peak_mb:.1f}", file=sys.stderr)
    if code:
        return code
    if peak_mb > args.max_mb:
        print(f"peak RSS {peak_mb:.1f} MB exceeds the bound of {args.max_mb:g} MB",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
