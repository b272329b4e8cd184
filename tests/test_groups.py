import itertools

import pytest

from qrframes import (
    CosetSpace,
    FiniteGroup,
    GroupError,
    Subgroup,
    cyclic_group,
    dihedral_group,
    quaternion_group,
    symmetric_group,
)


def test_cyclic_mul_mod_n(z4):
    assert z4.mul(1, 3) == 0
    assert z4.mul(2, 3) == 1
    for g in z4.elements():
        assert z4.mul(z4.identity, g) == g
        assert z4.mul(g, z4.identity) == g


def test_s3_matches_permutation_composition_oracle(s3):
    # independent oracle: compose image tuples directly, right factor first
    perms = s3.permutations
    index = {p: i for i, p in enumerate(perms)}
    for i, sig in enumerate(perms):
        for j, tau in enumerate(perms):
            composed = tuple(sig[tau[k]] for k in range(3))
            assert s3.mul(i, j) == index[composed]


def test_s3_transposition_product(s3):
    perms = s3.permutations
    index = {p: i for i, p in enumerate(perms)}
    swap01 = index[(1, 0, 2)]
    swap12 = index[(0, 2, 1)]
    cycle = index[(1, 2, 0)]  # 0->1, 1->2, 2->0
    assert s3.mul(swap01, swap12) == cycle


def test_trivial_group():
    g = cyclic_group(1)
    assert g.order == 1
    assert g.identity == 0
    assert g.mul(0, 0) == 0


def test_dihedral_4_order_and_commutativity():
    g = dihedral_group(4)
    assert g.order == 8
    # brute-force commutativity scan
    pairs = [(a, b) for a in g.elements() for b in g.elements() if g.mul(a, b) != g.mul(b, a)]
    assert pairs, "dihedral group of the square must be non-abelian"


def test_rejects_non_latin_table():
    with pytest.raises(GroupError, match="cayley row 1 not a permutation"):
        FiniteGroup([[0, 1], [1, 1]])


def test_rejects_non_associative_table():
    # Latin square (rows and columns are permutations) that fails associativity
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(GroupError, match="associativity fails"):
        FiniteGroup(table)


def test_rejects_out_of_range_indices():
    z3 = cyclic_group(3)
    with pytest.raises(ValueError, match="out of range"):
        z3.mul(0, 3)
    with pytest.raises(ValueError, match="out of range"):
        z3.inv(-1)


def test_inverse_is_involution(s3, d4):
    for g in (s3, d4, quaternion_group()):
        for x in g.elements():
            assert g.inv(g.inv(x)) == x
            assert g.mul(x, g.inv(x)) == g.identity


def test_associativity_exhaustive_quaternion():
    q8 = quaternion_group()
    for a, b, c in itertools.product(q8.elements(), repeat=3):
        assert q8.mul(q8.mul(a, b), c) == q8.mul(a, q8.mul(b, c))


def test_quaternion_structure():
    q8 = quaternion_group()
    labels = list(q8.labels)
    i, j, k = labels.index("i"), labels.index("j"), labels.index("k")
    minus_one = labels.index("-1")
    assert q8.mul(i, i) == minus_one
    assert q8.mul(i, j) == k
    assert q8.mul(j, i) == labels.index("-k")


def test_subgroup_validation(z4):
    h = Subgroup(z4, [0, 2])
    assert h.members == (0, 2)
    with pytest.raises(GroupError, match="identity"):
        Subgroup(z4, [1, 3])
    with pytest.raises(GroupError, match="closed"):
        Subgroup(z4, [0, 1])


def test_coset_space_z4_brute_force(z4):
    h = Subgroup(z4, [0, 2])
    cs = CosetSpace(z4, h)
    assert cs.n_cosets == 2
    # brute-force oracle: left cosets as frozensets
    cosets = {frozenset(z4.mul(g, m) for m in h.members) for g in z4.elements()}
    assert cosets == {frozenset({0, 2}), frozenset({1, 3})}
    assert {frozenset(cs.members(c)) for c in range(2)} == cosets
    # the action of 1 swaps the two cosets
    assert cs.act(1, 0) != 0 and cs.act(1, 1) != 1


def test_coset_space_degenerate_cases(s3):
    whole = CosetSpace(s3, Subgroup(s3, list(s3.elements())))
    assert whole.n_cosets == 1
    assert all(whole.act(g, 0) == 0 for g in s3.elements())

    trivial = CosetSpace(s3, Subgroup(s3, [s3.identity]))
    assert trivial.n_cosets == s3.order
    # principal case: the coset action is left multiplication
    for g in s3.elements():
        for c in range(trivial.n_cosets):
            assert trivial.act(g, c) == s3.mul(g, trivial.reps[c])


def test_coset_action_axioms(s3):
    h = Subgroup(s3, [0, s3.permutations.index((1, 0, 2))])
    cs = CosetSpace(s3, h)
    assert cs.n_cosets == 3
    e = s3.identity
    for c in range(cs.n_cosets):
        assert cs.act(e, c) == c
    for g in s3.elements():
        for k in s3.elements():
            for c in range(cs.n_cosets):
                assert cs.act(s3.mul(g, k), c) == cs.act(g, cs.act(k, c))
    # transitivity
    for c in range(cs.n_cosets):
        for c2 in range(cs.n_cosets):
            assert any(cs.act(g, c) == c2 for g in s3.elements())


def test_symmetric_group_size_cap():
    with pytest.raises(GroupError):
        symmetric_group(6)
    assert symmetric_group(4).order == 24
