import numpy as np
import pytest

from qrframes import canonical_frame, cyclic_group
from qrframes.io import (
    FormatError,
    frame_from_json,
    group_from_json,
    group_to_json,
    operator_from_json,
    operator_to_json,
    resolve_group,
    scenario_from_json,
)
from qrframes.operators import random_density


def _effects_json(frame):
    return [operator_to_json(e) for e in frame.povm.effects]


def test_group_roundtrip(s3):
    doc = group_to_json(s3)
    rebuilt = group_from_json(doc)
    assert rebuilt.order == 6
    assert np.array_equal(rebuilt.cayley, s3.cayley)
    assert rebuilt.labels == list(s3.labels)


def test_group_json_validation_messages():
    with pytest.raises(FormatError, match="cayley row 1 not a permutation"):
        group_from_json({"order": 2, "cayley": [[0, 1], [1, 1]]})
    with pytest.raises(FormatError, match="ragged"):
        group_from_json({"cayley": [[0, 1], [1]]})
    with pytest.raises(FormatError, match="order"):
        group_from_json({"order": 3, "cayley": [[0, 1], [1, 0]]})


def test_operator_roundtrip(rng):
    a = random_density(rng, 3)
    doc = operator_to_json(a)
    assert doc["dim"] == 3
    rebuilt = operator_from_json(doc)
    assert np.allclose(rebuilt, a)


def test_operator_json_validation():
    with pytest.raises(FormatError, match="ragged"):
        operator_from_json({"re": [[1, 0], [0]], "im": [[0, 0], [0, 0]]})
    with pytest.raises(FormatError, match="square"):
        operator_from_json({"re": [[1, 0, 0], [0, 1, 0]], "im": [[0, 0, 0], [0, 0, 0]]})
    with pytest.raises(FormatError, match="shapes differ"):
        operator_from_json({"re": [[1, 0], [0, 1]], "im": [[0, 0]]})
    with pytest.raises(FormatError, match="dim"):
        operator_from_json({"dim": 3, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]})


def test_resolve_group_builtin():
    g = resolve_group("builtin:s3")
    assert g.order == 6
    g2 = resolve_group({"builtin": "z4"})
    assert g2.order == 4
    with pytest.raises(ValueError, match="unknown builtin"):
        resolve_group("builtin:nope")


def test_frame_roundtrip(z4=cyclic_group(4)):
    frame = canonical_frame(z4, "left_right")
    doc = {"group": group_to_json(z4), "rep": "left_right",
           "povm": {"space": "group", "effects": _effects_json(frame)}}
    rebuilt = frame_from_json(doc)
    assert rebuilt.ideal and rebuilt.localizable
    for x in z4.elements():
        assert np.allclose(rebuilt.povm.effect(x), frame.povm.effect(x))


def test_frame_from_shorthand():
    doc = {"group": {"builtin": "z3"}, "rep": "left_regular", "povm": "canonical"}
    frame = frame_from_json(doc)
    assert frame.ideal


def test_frame_rejects_bad_povm():
    doc = {
        "group": {"builtin": "z2"},
        "rep": "left_regular",
        "povm": {"space": "group",
                 "effects": [operator_to_json(np.eye(2)), operator_to_json(np.eye(2))]},
    }
    with pytest.raises(FormatError, match="POVM"):
        frame_from_json(doc)


def test_scenario_decode():
    doc = {
        "group": {"builtin": "z2"},
        "frames": [
            {"rep": "left_right", "povm": "canonical"},
            {"rep": "left_right", "povm": "canonical"},
        ],
        "system": {"rep": "left_right", "dim": 2},
    }
    sc = scenario_from_json(doc)
    assert sc.dims == (2, 2, 2)
    assert sc.frames[0].ideal


def test_scenario_needs_frames():
    with pytest.raises(FormatError, match="frames"):
        scenario_from_json({"group": {"builtin": "z2"}, "frames": []})


def test_coset_frame_roundtrip():
    from qrframes.groups import CosetSpace, Subgroup, cyclic_group as cg
    from qrframes.quantum import canonical_coset_pvm, classify_frame, coset_permutation_rep

    z4 = cg(4)
    cs = CosetSpace(z4, Subgroup(z4, [0, 2]))
    frame = classify_frame(coset_permutation_rep(cs), canonical_coset_pvm(cs))
    doc = {"group": group_to_json(z4),
           "rep": {"matrices": [operator_to_json(m) for m in frame.rep.matrices]},
           "povm": {"space": {"coset_subgroup": list(cs.subgroup.members)},
                    "effects": _effects_json(frame)}}
    rebuilt = frame_from_json(doc)
    assert not rebuilt.principal
    for c in range(2):
        assert np.allclose(rebuilt.povm.effect(c), frame.povm.effect(c))


def test_coset_povm_decode():
    frame_doc = {
        "group": {"builtin": "z4"},
        "rep": {"matrices": [operator_to_json(m) for m in [
            np.eye(2), np.array([[0, 1], [1, 0]]), np.eye(2), np.array([[0, 1], [1, 0]])
        ]]},
        "povm": {
            "space": {"coset_subgroup": [0, 2]},
            "effects": [operator_to_json(np.diag([1.0, 0.0])),
                        operator_to_json(np.diag([0.0, 1.0]))],
        },
    }
    frame = frame_from_json(frame_doc)
    assert not frame.principal
    assert frame.sharp
