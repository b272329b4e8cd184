#!/usr/bin/env python3
"""Compare two ``qrframes verify`` reports.

    python3 tools/report_diff.py OLD.json NEW.json

Prints each check that one report has and the other lacks, each change of a
check's ``pass``, ``trials``, ``witness``, ``error`` or ``claim``, each moved
``max_deviation`` and each change of a report-level field, one line each.
Exits 0 when the reports differ in nothing but ``runtime_ms``, 1 when they
differ in anything else, and 2 when a file is not a readable report.
Standard library only.
"""

import json
import sys

IGNORED = {"runtime_ms"}


def _show(value) -> str:
    """A JSON value as text; comparing these makes NaN equal to NaN."""
    return json.dumps(value, sort_keys=True)


def diff(old: dict, new: dict) -> list:
    """One line per difference between two reports, ``runtime_ms`` aside."""
    lines = []
    for field in sorted((old.keys() | new.keys()) - {"checks"}):
        before, after = _show(old.get(field)), _show(new.get(field))
        if before != after:
            lines.append(f"{field}: {before} -> {after}")
    a, b = ({check["name"]: check for check in doc["checks"]} for doc in (old, new))
    lines += [f"removed {name}" for name in sorted(a.keys() - b.keys())]
    lines += [f"added {name}" for name in sorted(b.keys() - a.keys())]
    for name in sorted(a.keys() & b.keys()):
        for field in sorted((a[name].keys() | b[name].keys()) - IGNORED):
            before, after = _show(a[name].get(field)), _show(b[name].get(field))
            if before != after:
                lines.append(f"{name}: {field} {before} -> {after}")
    return lines


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: report_diff.py OLD.json NEW.json", file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        try:
            with open(path) as fh:
                doc = json.load(fh)
            names = [check["name"] for check in doc["checks"]]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"{path}: not a verify report ({type(exc).__name__}: {exc})", file=sys.stderr)
            return 2
        if len(set(names)) != len(names):
            print(f"{path}: a check name occurs twice", file=sys.stderr)
            return 2
        docs.append(doc)
    lines = diff(*docs)
    for line in lines:
        print(line)
    if not lines:
        print("reports agree apart from runtime_ms")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
