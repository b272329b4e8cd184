import json

import numpy as np
import pytest

from qrframes import suites
from qrframes.builtins import builtin_group
from qrframes.cli import main
from qrframes.io import dump_json, group_to_json, operator_to_json
from qrframes import cyclic_group, g_twirl_predual, left_regular_rep
from qrframes.operators import random_density


def run(args):
    return main(list(args))


def test_verify_trivial_group_all_pass(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--group", "builtin:z1", "--suite", "all",
                "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["summary"]["failed"] == 0
    assert report["summary"]["total"] > 30


def test_verify_selected_suites(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--group", "builtin:z3",
                "--suite", "covariance,measurement", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    names = {c["name"] for c in report["checks"]}
    assert all(n.split(".")[0] in ("covariance", "measurement") for n in names)
    assert report["summary"]["failed"] == 0
    # every record carries a claim string
    assert all(c["claim"] for c in report["checks"])


def test_verify_bad_group_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"order": 2, "cayley": [[0, 1], [1, 1]]}))
    code = run(["verify", "--group", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "cayley row 1 not a permutation" in err


def test_verify_unknown_suite():
    assert run(["verify", "--group", "builtin:z2", "--suite", "bogus"]) == 2


@pytest.mark.parametrize("args", (
    ["--trials", "0"],
    ["--tol", "-1"],
    ["--tol", "nan"],
    ["--tol", "inf"],
    ["--suite", "all", "--suite", "nonsense"],
), ids=("trials-0", "tol-negative", "tol-nan", "tol-inf", "all-and-unknown-suite"))
def test_verify_rejects_vacuous_or_unknown_input(args, capsys):
    # no trials, a tolerance nothing can meet or everything meets, and a
    # bad suite name next to 'all' are all bad input
    assert run(["verify", "--group", "builtin:z3", *args]) == 2
    assert capsys.readouterr().out == ""


def test_verify_failing_tolerance(tmp_path):
    # an absurdly small tolerance turns float roundoff into failures
    out = tmp_path / "report.json"
    code = run(["verify", "--group", "builtin:z2", "--suite", "yen-invariance",
                "--tol", "1e-30", "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["summary"]["failed"] >= 1


@pytest.mark.parametrize("deviation, verdict", (
    (0.5, "deviation 5.000e-01 > tol 1.0e-09"),
    (float("nan"), "deviation nan"),
), ids=("number", "nan"))
def test_verify_failure_line_names_the_witness(monkeypatch, capsys, deviation, verdict):
    claim, _ = suites.CHECKS["yen.unital"]
    monkeypatch.setitem(suites.CHECKS, "yen.unital",
                        (claim, lambda *args: iter([0.0, (deviation, {"h": 1, "y": 0})])))
    assert run(["verify", "--group", "builtin:z2", "--suite", "yen-invariance"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f'FAIL yen.unital: {verdict} at {{"h": 1, "y": 0}}']
    record = next(c for c in json.loads(captured.out)["checks"] if c["name"] == "yen.unital")
    assert record["witness"] == {"h": 1, "y": 0}


def test_verify_group_file_written_by_the_library(tmp_path):
    # the encoder keeps the group's name, which picks its system rep
    path = tmp_path / "d3.json"
    dump_json(group_to_json(builtin_group("d3")), path)
    assert json.loads(path.read_text())["name"] == "d3"
    assert run(["verify", "--group", str(path), "--suite", "all",
                "--out", str(tmp_path / "report.json")]) == 0


def test_report_deterministic(tmp_path):
    paths = []
    for k in range(2):
        out = tmp_path / f"report{k}.json"
        assert run(["verify", "--group", "builtin:z2", "--suite", "conditioning",
                    "--seed", "7", "--out", str(out)]) == 0
        paths.append(out)
    docs = []
    for p in paths:
        doc = json.loads(p.read_text())
        for c in doc["checks"]:
            c.pop("runtime_ms")
        docs.append(doc)
    assert json.dumps(docs[0], sort_keys=True) == json.dumps(docs[1], sort_keys=True)


def test_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    code = run(["verify", "--group", "builtin:z2", "--suite", "covariance",
                "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("name,claim,pass")
    assert len(lines) > 1


def test_cmd_twirl_invariant_operator(tmp_path):
    z3 = cyclic_group(3)
    rep = left_regular_rep(z3)
    rng = np.random.default_rng(5)
    invariant = g_twirl_predual(rep, random_density(rng, 3))
    op_path = tmp_path / "op.json"
    dump_json(operator_to_json(invariant), op_path)
    out = tmp_path / "twirl.json"
    code = run(["twirl", "--group", "builtin:z3", "--operator", str(op_path),
                "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    result = np.asarray(doc["result"]["re"]) + 1j * np.asarray(doc["result"]["im"])
    assert np.max(np.abs(result - invariant)) <= 1e-10
    assert doc["context"]["rank"] == 3


def test_cmd_twirl_rep_from_file(tmp_path):
    # the default representation given as a file of matrices twirls alike
    op_path = tmp_path / "op.json"
    dump_json(operator_to_json(random_density(np.random.default_rng(5), 3)), op_path)
    rep_path = tmp_path / "rep.json"
    dump_json({"matrices": [operator_to_json(u) for u in left_regular_rep(cyclic_group(3)).matrices]},
              rep_path)
    outputs = []
    for extra in ([], ["--rep", str(rep_path)]):
        out = tmp_path / f"twirl{len(outputs)}.json"
        assert run(["twirl", "--group", "builtin:z3", "--operator", str(op_path),
                    "--out", str(out), *extra]) == 0
        outputs.append(out.read_text())
    assert outputs[0] == outputs[1]


def test_cmd_yen_identity(tmp_path):
    frame_doc = {"group": {"builtin": "z2"}, "rep": "left_regular", "povm": "canonical"}
    frame_path = tmp_path / "frame.json"
    dump_json(frame_doc, frame_path)
    op_path = tmp_path / "eye.json"
    dump_json(operator_to_json(np.eye(2)), op_path)
    out = tmp_path / "yen.json"
    code = run(["yen", "--frame", str(frame_path), "--system", "left_regular",
                "--operator", str(op_path), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    result = np.asarray(doc["result"]["re"]) + 1j * np.asarray(doc["result"]["im"])
    assert np.allclose(result, np.eye(4))
    assert doc["context"]["rank"] == 4


def _z3_two_frame_scenario(tmp_path):
    scenario_doc = {
        "group": {"builtin": "z3"},
        "frames": [
            {"rep": "left_right", "povm": "canonical"},
            {"rep": "left_right", "povm": "canonical"},
        ],
        "system": {"rep": "left_right", "dim": 3},
    }
    sc_path = tmp_path / "scenario.json"
    dump_json(scenario_doc, sc_path)
    return sc_path


def test_cmd_frame_change_ket_fixture(tmp_path):
    z3 = cyclic_group(3)
    sc_path = _z3_two_frame_scenario(tmp_path)
    h2, h3 = 1, 2
    state = np.zeros((9, 9), dtype=complex)
    state[h2 * 3 + h3, h2 * 3 + h3] = 1.0
    st_path = tmp_path / "state.json"
    dump_json(operator_to_json(state), st_path)
    out = tmp_path / "moved.json"
    code = run(["frame-change", "--scenario", str(sc_path), "--state", str(st_path),
                "--src", "1", "--dst", "2", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    result = np.asarray(doc["result"]["re"]) + 1j * np.asarray(doc["result"]["im"])
    i, j = z3.inv(h2), z3.mul(h3, z3.inv(h2))
    expected = np.zeros((9, 9))
    expected[i * 3 + j, i * 3 + j] = 1.0
    assert np.max(np.abs(result - expected)) <= 1e-10


def test_cmd_frame_change_default_frames_in_both_bases(tmp_path):
    # without --src/--dst the change runs from the first frame to the second,
    # whether the indices are read one-based or zero-based
    sc_path = _z3_two_frame_scenario(tmp_path)
    st_path = tmp_path / "state.json"
    dump_json(operator_to_json(random_density(np.random.default_rng(5), 9)), st_path)
    outputs = []
    for extra in ([], ["--zero-based"], ["--src", "1", "--dst", "2"],
                  ["--zero-based", "--src", "0", "--dst", "1"]):
        out = tmp_path / f"moved{len(outputs)}.json"
        assert run(["frame-change", "--scenario", str(sc_path), "--state", str(st_path),
                    "--out", str(out), *extra]) == 0
        outputs.append(out.read_text())
    assert all(text == outputs[0] for text in outputs[1:])


def test_cmd_reconstruct(tmp_path):
    rng = np.random.default_rng(11)
    frame_doc = {"group": {"builtin": "z2"}, "rep": "left_regular", "povm": "canonical"}
    f1 = tmp_path / "f1.json"
    f2 = tmp_path / "f2.json"
    dump_json(frame_doc, f1)
    dump_json(frame_doc, f2)
    rho = random_density(rng, 2)
    omega = random_density(rng, 4)
    rho_path = tmp_path / "rho.json"
    om_path = tmp_path / "omega.json"
    dump_json(operator_to_json(rho), rho_path)
    dump_json(operator_to_json(omega), om_path)
    out = tmp_path / "rec.json"
    code = run(["reconstruct", "--frame1", str(f1), "--frame2", str(f2),
                "--state", str(rho_path), "--joint", str(om_path),
                "--system", "left_regular", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    result = np.asarray(doc["result"]["re"]) + 1j * np.asarray(doc["result"]["im"])
    assert np.trace(result).real == pytest.approx(1.0)


def test_missing_operand_file(tmp_path):
    assert run(["twirl", "--group", "builtin:z2",
                "--operator", str(tmp_path / "absent.json")]) == 2


def test_verify_reports_byte_stable(tmp_path):
    out = tmp_path / "report.json"
    assert run(["verify", "--group", "builtin:z2", "--suite", "covariance",
                "--out", str(out)]) == 0
    out2 = tmp_path / "report2.json"
    assert run(["verify", "--group", "builtin:z2", "--suite", "covariance",
                "--out", str(out2)]) == 0
    docs = []
    for p in (out, out2):
        doc = json.loads(p.read_text())
        for c in doc["checks"]:
            c.pop("runtime_ms")
        docs.append(doc)
    # a second run must not change any reported number
    assert json.dumps(docs[0], sort_keys=True) == json.dumps(docs[1], sort_keys=True)


def test_verify_raising_check_exits_one(tmp_path, monkeypatch, capsys):
    from qrframes import suites

    def broken(*args):
        raise np.linalg.LinAlgError("SVD did not converge")

    claim, _ = suites.CHECKS["yen.unital"]
    monkeypatch.setitem(suites.CHECKS, "yen.unital", (claim, broken))
    out = tmp_path / "report.json"
    code = run(["verify", "--group", "builtin:z2", "--suite", "yen-invariance",
                "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["summary"]["failed"] == 1
    assert "FAIL yen.unital: LinAlgError: SVD did not converge" in capsys.readouterr().err


@pytest.mark.parametrize("command", ("yen", "frame-change", "reconstruct"))
def test_numerical_failure_is_not_exit_two(tmp_path, monkeypatch, command):
    # LinAlgError subclasses ValueError, but a numerical failure is not bad
    # input: it must propagate instead of becoming exit code 2
    from qrframes import framechange, relativize

    def broken(*args):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(relativize.YenMap, "apply", broken)
    monkeypatch.setattr(framechange, "frame_change", broken)
    monkeypatch.setattr(framechange, "triangular_reconstruction", broken)
    frame_doc = {"group": {"builtin": "z2"}, "rep": "left_regular", "povm": "canonical"}
    frame_path = tmp_path / "frame.json"
    dump_json(frame_doc, frame_path)
    sc_path = tmp_path / "scenario.json"
    dump_json({"group": {"builtin": "z2"}, "frames": [frame_doc, frame_doc]}, sc_path)
    st_path = tmp_path / "state.json"
    dump_json(operator_to_json(np.eye(2) / 2), st_path)
    joint_path = tmp_path / "joint.json"
    dump_json(operator_to_json(np.eye(4) / 4), joint_path)
    args = {
        "yen": ["--frame", str(frame_path), "--operator", str(st_path)],
        "frame-change": ["--scenario", str(sc_path), "--state", str(st_path)],
        "reconstruct": ["--frame1", str(frame_path), "--frame2", str(frame_path),
                        "--state", str(st_path), "--joint", str(joint_path)],
    }[command]
    with pytest.raises(np.linalg.LinAlgError):
        run([command, *args])
