"""tools/report_diff.py: the comparison of two verify reports."""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

from qrframes import cyclic_group
from qrframes.suites import run_checks

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "report_diff.py"


@pytest.fixture(scope="module")
def report():
    return run_checks(cyclic_group(2), ("yen-invariance",), seed=0)


def _run(tmp_path, old, new):
    paths = []
    for tag, doc in (("old", old), ("new", new)):
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    done = subprocess.run([sys.executable, str(SCRIPT), *paths],
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout.splitlines()


def test_runtime_alone_is_no_difference(tmp_path, report):
    other = copy.deepcopy(report)
    for check in other["checks"]:
        check["runtime_ms"] += 1.0
    code, lines = _run(tmp_path, report, other)
    assert code == 0
    assert lines == ["reports agree apart from runtime_ms"]


def test_every_difference_is_listed(tmp_path, report):
    other = copy.deepcopy(report)
    checks = {c["name"]: c for c in other["checks"]}
    checks["yen.unital"]["max_deviation"] = 2e-16
    checks["yen.isometry"].update({"pass": False, "error": "ValueError: bad", "witness": None})
    checks["yen.invariance"]["trials"] += 1
    other["checks"].remove(checks["yen.multiplicativity"])
    other["checks"].append(dict(checks["yen.unital"], name="yen.extra"))
    other["seed"] = 1
    code, lines = _run(tmp_path, report, other)
    assert code == 1
    before = {c["name"]: c for c in report["checks"]}
    assert lines == [
        "seed: 0 -> 1",
        "removed yen.multiplicativity",
        "added yen.extra",
        f"yen.invariance: trials {before['yen.invariance']['trials']} -> "
        f"{before['yen.invariance']['trials'] + 1}",
        'yen.isometry: error null -> "ValueError: bad"',
        "yen.isometry: pass true -> false",
        f"yen.isometry: witness {json.dumps(before['yen.isometry']['witness'])} -> null",
        f"yen.unital: max_deviation {json.dumps(before['yen.unital']['max_deviation'])} -> 2e-16",
    ]


def test_unreadable_report_exits_2(tmp_path, report):
    code, lines = _run(tmp_path, {}, report)
    assert code == 2 and lines == []
