import gc
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from qrframes import cyclic_group, suites
from qrframes.builtins import builtin_group
from qrframes.suites import run_checks


def test_exhaustiveness_contexts_follow_the_group():
    # Alternate two groups in one process, dropping each before building the
    # next, so the interpreter may reuse object ids: every report must still
    # be about the group it names.
    seen = {2: set(), 3: set()}
    for k in range(24):
        group = cyclic_group(2 if k % 2 == 0 else 3)
        report = run_checks(group, ("exhaustiveness",))
        seen[group.order].add(tuple((c["name"], c["trials"], c["max_deviation"])
                                    for c in report["checks"]))
        del group, report
        gc.collect()
    assert len(seen[2]) == 1 and len(seen[3]) == 1
    assert seen[2] != seen[3]


def test_nan_deviation_fails_its_check(monkeypatch):
    # one NaN norm inside yen.isometry must fail that check, not vanish in
    # a running maximum
    calls = {"nan": 0}
    real_op_norm = suites.op_norm

    def op_norm(a):
        if sys._getframe(1).f_code.co_name == "check_yen_isometry" and not calls["nan"]:
            calls["nan"] += 1
            return float("nan")
        return real_op_norm(a)

    monkeypatch.setattr(suites, "op_norm", op_norm)
    report = run_checks(cyclic_group(2), ("yen-invariance",))
    records = {c["name"]: c for c in report["checks"]}
    assert calls["nan"] == 1
    assert math.isnan(records["yen.isometry"]["max_deviation"])
    assert records["yen.isometry"]["pass"] is False
    assert report["summary"]["failed"] == 1


def test_complete_positivity_runs_the_channel(monkeypatch):
    # the check must judge YenMap itself: a channel whose output is not
    # positive fails it
    monkeypatch.setattr(suites.YenMap, "apply", lambda self, a: -np.eye(self.dim_total))
    report = run_checks(cyclic_group(2), ("yen-invariance",))
    record = next(c for c in report["checks"] if c["name"] == "yen.complete_positivity")
    assert record["pass"] is False
    assert record["max_deviation"] == 1.0


def test_non_finite_deviation_fails(monkeypatch):
    claim, _ = suites.CHECKS["yen.unital"]
    monkeypatch.setitem(suites.CHECKS, "yen.unital",
                        (claim, lambda *args: iter([float("inf")])))
    report = run_checks(cyclic_group(2), ("yen-invariance",))
    record = next(c for c in report["checks"] if c["name"] == "yen.unital")
    assert record["pass"] is False and "error" not in record


def _raise_linalg(*args):
    raise np.linalg.LinAlgError("SVD did not converge")


@pytest.mark.parametrize("runs", (1, 2))
def test_raising_check_fails_alone(monkeypatch, runs):
    # Repeated runs in one process: a check that raised leaves nothing
    # behind for the next run.
    claim, _ = suites.CHECKS["yen.unital"]
    monkeypatch.setitem(suites.CHECKS, "yen.unital", (claim, _raise_linalg))
    group = cyclic_group(2)
    reports = [run_checks(group, ("yen-invariance",)) for _ in range(runs)]
    outcomes = {tuple((c["name"], c["pass"], repr(c["max_deviation"]), c["trials"],
                       c.get("error")) for c in r["checks"]) for r in reports}
    assert len(outcomes) == 1
    report = reports[-1]
    records = {c["name"]: c for c in report["checks"]}
    broken = records.pop("yen.unital")
    assert broken["pass"] is False
    assert math.isnan(broken["max_deviation"])
    assert broken["error"] == "LinAlgError: SVD did not converge"
    assert report["summary"] == {"total": 6, "passed": 5, "failed": 1}
    # every other record keeps the exact keys of a passing report
    for rec in records.values():
        assert rec["pass"] is True
        assert set(rec) == {"name", "claim", "pass", "max_deviation", "trials", "runtime_ms",
                            "witness"}
    assert broken["witness"] is None


def test_record_carries_the_witness_of_the_worst_yield(monkeypatch):
    claim, _ = suites.CHECKS["yen.unital"]
    monkeypatch.setitem(suites.CHECKS, "yen.unital",
                        (claim, lambda *args: iter([0.1, (0.5, {"h": 3}), 0.2])))
    report = run_checks(cyclic_group(2), ("yen-invariance",), tol=1.0)
    record = next(c for c in report["checks"] if c["name"] == "yen.unital")
    assert record["max_deviation"] == 0.5
    assert record["witness"] == {"h": 3}
    assert record["trials"] == 3 and record["pass"] is True


@pytest.mark.parametrize("name", ("z3", "s3"))
def test_report_shape_matches_fixture(name):
    # names, claims, verdicts and trial counts are exact; deviations are only
    # bounded, since their last bits depend on the BLAS build
    fixture = json.loads((Path(__file__).parent / "data" / "report_shape.json").read_text())
    report = run_checks(builtin_group(name), ("all",), seed=0)
    keys = ("name", "claim", "pass", "trials")
    assert [{k: c[k] for k in keys} for c in report["checks"]] == fixture[name]
    assert all(c["max_deviation"] <= report["tol"] for c in report["checks"])


def test_empty_selection_is_rejected():
    with pytest.raises(ValueError, match="no suite selected"):
        run_checks(cyclic_group(2), [])


def test_s4_frame_change_suite_runs_composition():
    # s4 pair scenarios keep their system and the three-frame composition
    # runs: every frame change stays at the size of a complement
    report = run_checks(builtin_group("s4"), ["frame-change"], trials=1)
    names = [c["name"] for c in report["checks"]]
    assert "framechange.composition" in names
    assert report["summary"] == {"total": 6, "passed": 6, "failed": 0}
