"""Group sums taken through ``UnitaryRep.orbit``, ``tensor`` and the Cayley
table, each against a loop over the elements with ``rep.mat(g)`` as the
oracle, at machine precision."""

import numpy as np
import pytest

from qrframes import (
    POVM,
    UnitaryRep,
    canonical_scheme,
    classify_frame,
    coherent_state_povm,
)
from qrframes.builtins import builtin_group, standard_system_rep
from qrframes.groups import CosetSpace, Subgroup
from qrframes.operators import dagger, op_norm
from qrframes.quantum import (
    CosetSampleSpace,
    GroupSpace,
    coset_permutation_rep,
    covariance_deviations,
)

TOL = 1e-12
GROUPS = ("z3", "s3", "q8")
SEED = np.array([1.0, np.exp(0.7j)]) / np.sqrt(2)   # flat, so z3's orbit resolves I


def _close(actual, expected):
    assert np.max(np.abs(np.asarray(actual) - np.asarray(expected))) <= TOL


def _coherent(group):
    return coherent_state_povm(standard_system_rep(group, 2), SEED)


@pytest.mark.parametrize("name", GROUPS)
def test_canonical_scheme_interaction_matches_loop(name):
    group = builtin_group(name)
    n = group.order
    expected = np.zeros((n * n, n * n))
    for g in group.elements():
        for h in group.elements():
            expected[group.mul(g, group.inv(h)) * n + h, g * n + h] = 1.0
    _close(canonical_scheme(group).interaction, expected)


@pytest.mark.parametrize("name", GROUPS)
def test_coherent_state_povm_matches_loop(name):
    group = builtin_group(name)
    rep = standard_system_rep(group, 2)
    vectors = [rep.mat(g) @ SEED for g in group.elements()]
    lam = group.order / rep.dim
    povm = _coherent(group)
    for g, v in enumerate(vectors):
        _close(povm.effect(g), np.outer(v, np.conj(v)) / lam)


@pytest.mark.parametrize("name", GROUPS)
def test_covariance_deviations_of_a_non_covariant_povm_match_loop(name):
    group = builtin_group(name)
    rep = standard_system_rep(group, 2)
    effects = list(_coherent(group).effects)
    effects[0], effects[2] = effects[2], effects[0]
    povm = POVM(GroupSpace(group), effects)
    got = {(w["g"], w["x"]): dev for dev, w in covariance_deviations(povm, rep)}
    assert len(got) == group.order * povm.size
    for g in group.elements():
        u = rep.mat(g)
        for x in range(povm.size):
            expected = op_norm(u @ povm.effect(x) @ dagger(u) - povm.effect(group.mul(g, x)))
            assert abs(got[g, x] - expected) <= TOL
    assert max(got.values()) > 0.1


@pytest.mark.parametrize("name", GROUPS)
def test_isotropy_of_a_dense_coset_frame_matches_loop(name):
    group = builtin_group(name)
    e = group.identity
    t = next((g for g in group.elements() if g != e and group.cayley[g, g] == e), None)
    cosets = CosetSpace(group, Subgroup(group, list(group.elements()) if t is None else [e, t]))
    # rotate the coset permutation frame off the basis so that neither the
    # rep nor the POVM carries structure
    perm = coset_permutation_rep(cosets)
    v = np.linalg.qr(np.random.default_rng(7).normal(size=(perm.dim,) * 2))[0]
    rep = UnitaryRep(group, [v @ perm.mat(g) @ v.T for g in group.elements()])
    effects = [v @ np.diag(np.eye(perm.dim)[c]) @ v.T for c in range(perm.dim)]
    frame = classify_frame(rep, POVM(CosetSampleSpace(cosets), effects))
    expected = tuple(
        h for h in group.elements()
        if all(op_norm(rep.mat(h) @ eff @ dagger(rep.mat(h)) - eff) <= 1e-9 for eff in effects)
    )
    assert frame.isotropy.members == expected
