"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value is either computed by an independent oracle inside the
test or fixed by an exact algebraic identity; tolerances are pinned here and
nowhere else.
"""

import numpy as np

from qrframes import (
    EffectContext,
    MultiFrameScenario,
    YenMap,
    born,
    canonical_frame,
    coherent_frame_change_unitary,
    compose_check,
    cyclic_group,
    dihedral_group,
    frame_change,
    framed_subspace,
    g_twirl,
    g_twirl_predual,
    intersect,
    invariant_subspace,
    kron,
    left_regular_rep,
    left_right_rep,
    localizing_state,
    op_norm,
    operational_agreement,
    product_relative_state,
    relative_orientation,
    symmetric_group,
    triangular_reconstruction,
    trivial_rep,
)
from qrframes.builtins import standard_system_rep
from qrframes.measurement import canonical_scheme, check_prc, check_rrc, rrc_relative_orientation
from qrframes.opequiv import span_residual
from qrframes.operators import (
    DEFAULT_TOL,
    HermitianBasis,
    dagger,
    pair_trace,
    permute_factors,
    random_density,
    random_hermitian,
    worst_case,
)

SUITE_GROUPS = {
    "z2": cyclic_group(2),
    "z3": cyclic_group(3),
    "z4": cyclic_group(4),
    "z5": cyclic_group(5),
    "z6": cyclic_group(6),
    "d4": dihedral_group(4),
    "s3": symmetric_group(3),
}


def _report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_covariance_and_classification():
    worst = 0.0
    flags_ok = True
    from qrframes import covariance_deviation

    for name, group in SUITE_GROUPS.items():
        for kind in ("left_regular", "left_right"):
            frame = canonical_frame(group, kind)
            worst = max(worst, covariance_deviation(frame.povm, frame.rep))
            flags_ok &= frame.ideal and frame.localizable and frame.complete
    ok = worst <= 1e-12 and flags_ok
    _report("criterion 1 (covariance & classification)", ok,
            f"max covariance deviation {worst:.2e}, flags {'ok' if flags_ok else 'wrong'}")


def test_criterion_02_yen_invariance_and_channel():
    worst_inv = 0.0
    worst_unital = 0.0
    worst_cp = 0.0
    rng = np.random.default_rng(2)
    for name, group in SUITE_GROUPS.items():
        frame = canonical_frame(group)
        sys_rep = left_regular_rep(group)
        ym = YenMap(frame, sys_rep)
        diag = frame.rep.tensor(sys_rep)
        for b in HermitianBasis(sys_rep.dim).matrices:
            image = ym.apply(b)
            for h in group.elements():
                worst_inv = max(worst_inv, op_norm(diag.act_op(h, image) - image))
        worst_unital = max(worst_unital, op_norm(
            ym.apply(np.eye(sys_rep.dim)) - np.eye(ym.dim_total)))
        for k in (2, 3):
            g = rng.normal(size=(sys_rep.dim * k,) * 2) + 1j * rng.normal(size=(sys_rep.dim * k,) * 2)
            p = g @ dagger(g)
            out = np.zeros((frame.dim * sys_rep.dim * k,) * 2, dtype=complex)
            for elt in group.elements():
                u = np.kron(sys_rep.mat(elt), np.eye(k))
                out += kron(frame.povm.effect(elt), u @ p @ dagger(u))
            ancilla = YenMap(frame, sys_rep.tensor(trivial_rep(group, k))).apply(p)
            worst_cp = max(worst_cp, float(np.max(np.abs(ancilla - out))))
            low = float(np.min(np.linalg.eigvalsh((out + dagger(out)) / 2)))
            worst_cp = max(worst_cp, max(0.0, -low))
    ok = worst_inv <= 1e-10 and worst_unital <= 1e-10 and worst_cp <= 1e-9
    _report("criterion 2 (relativization invariance & channel laws)", ok,
            f"invariance {worst_inv:.2e}, unitality {worst_unital:.2e}, cp defect {worst_cp:.2e}")


def test_criterion_03_finite_group_exhaustiveness():
    rank_ok = True
    worst_residual = 0.0
    for name in ("z2", "z3", "z4", "s3"):
        group = SUITE_GROUPS[name]
        frame = canonical_frame(group)
        for sys_dim in (2, 3):
            sys_rep = standard_system_rep(group, sys_dim)
            ym = YenMap(frame, sys_rep)
            relative = EffectContext(
                [ym.apply(b) for b in HermitianBasis(sys_rep.dim).matrices],
                dim=ym.dim_total)
            relational = intersect(framed_subspace(frame, sys_rep.dim),
                                   invariant_subspace(frame.rep.tensor(sys_rep)))
            rank_ok &= relative.rank == relational.rank == sys_dim ** 2
            worst_residual = max(worst_residual,
                                 span_residual(relative, relational),
                                 span_residual(relational, relative))
    ok = rank_ok and worst_residual <= 1e-9
    _report("criterion 3 (relativized effects exhaust the invariant framed ones)", ok,
            f"ranks {'equal' if rank_ok else 'differ'}, mutual residual {worst_residual:.2e}")


def test_criterion_04_conditioning():
    worst_local = 0.0
    worst_twirl = 0.0
    worst_symmetry = 0.0
    rng = np.random.default_rng(4)
    for name, group in SUITE_GROUPS.items():
        frame = canonical_frame(group)
        sys_rep = left_regular_rep(group)
        aligned = localizing_state(frame, group.identity)
        ym = YenMap(frame, sys_rep)
        for b in HermitianBasis(sys_rep.dim).matrices:
            worst_local = max(worst_local, op_norm(ym.conditioned(aligned, b) - b))
        invariant = g_twirl_predual(frame.rep, random_density(rng, frame.dim))
        for _ in range(5):
            a = random_hermitian(rng, sys_rep.dim)
            worst_twirl = max(worst_twirl, op_norm(
                ym.conditioned(invariant, a) - g_twirl(sys_rep, a)))
        for _ in range(50):
            omega = random_density(rng, frame.dim)
            rho = random_density(rng, sys_rep.dim)
            for h in group.elements():
                lhs = product_relative_state(frame, sys_rep,
                                             frame.rep.act_state(h, omega), rho)
                rhs = product_relative_state(frame, sys_rep, omega,
                                             sys_rep.act_state(group.inv(h), rho))
                worst_symmetry = max(worst_symmetry, op_norm(lhs - rhs))
    ok = worst_local <= 1e-10 and worst_twirl <= 1e-10 and worst_symmetry <= 1e-10
    _report("criterion 4 (conditioned relativization)", ok,
            f"localized identity {worst_local:.2e}, invariant-state twirl {worst_twirl:.2e}, "
            f"product symmetry {worst_symmetry:.2e}")


def test_criterion_05_relative_orientation():
    worst_delta = 0.0
    worst_swap = 0.0
    for name, group in SUITE_GROUPS.items():
        f1 = canonical_frame(group)
        f2 = canonical_frame(group)
        orientation = relative_orientation(f1, f2)
        omega = localizing_state(f1, group.identity)
        rho = localizing_state(f2, group.identity)
        for h in group.elements():
            state = kron(omega, f2.rep.act_state(group.inv(h), rho))
            mu = born(orientation, state)
            expected = np.zeros(group.order)
            expected[h] = 1.0
            worst_delta = max(worst_delta, float(np.max(np.abs(mu - expected))))
        other = relative_orientation(f2, f1)
        dims = (f2.dim, f1.dim)
        for x in group.elements():
            swapped = permute_factors(other.effect(group.inv(x)), dims, [1, 0])
            worst_swap = max(worst_swap, float(np.max(np.abs(orientation.effect(x) - swapped))))
    ok = worst_delta <= 1e-12 and worst_swap <= 1e-10
    _report("criterion 5 (relative orientation)", ok,
            f"localized delta deviation {worst_delta:.2e}, swap relation {worst_swap:.2e}")


def test_criterion_06_frame_change_map_laws():
    rng = np.random.default_rng(6)
    worst_wd = worst_diag = worst_inv = 0.0
    for name in ("z2", "z3", "s3"):
        group = SUITE_GROUPS[name]
        frames = [canonical_frame(group), canonical_frame(group)]
        scenario = MultiFrameScenario(frames, standard_system_rep(group, 2))
        ctx = scenario.framing_context(0, (1,))
        for _ in range(50):
            state = random_density(rng, ctx.dim)
            moved = frame_change(scenario, 0, 1, state)
            h = random_hermitian(rng, ctx.dim)
            bump = 0.3 * (h - ctx.project(h))
            worst_wd = max(worst_wd, moved.class_deviation(
                frame_change(scenario, 0, 1, state + bump)))
            back = frame_change(scenario, 1, 0, moved)
            worst_inv = max(worst_inv, max(
                abs(pair_trace(back.matrix - state, f)) for f in ctx.generators))
            omega = random_density(rng, scenario.total_dim)
            direct = scenario.yen_predual_total(1, omega)
            via = frame_change(scenario, 0, 1, scenario.yen_predual_total(0, omega))
            worst_diag = max(worst_diag, via.class_deviation(direct))
    worst_comp = 0.0
    z2 = SUITE_GROUPS["z2"]
    sc3 = MultiFrameScenario([canonical_frame(z2) for _ in range(3)], None)
    for _ in range(10):
        worst_comp = max(worst_comp, compose_check(sc3, random_density(rng, 4)))
    z3 = SUITE_GROUPS["z3"]
    sc3b = MultiFrameScenario([canonical_frame(z3) for _ in range(3)],
                              standard_system_rep(z3, 3))
    for _ in range(10):
        worst_comp = max(worst_comp, compose_check(sc3b, random_density(rng, 27)))
    ok = max(worst_wd, worst_diag, worst_inv, worst_comp) <= 1e-9
    _report("criterion 6 (frame-change map laws)", ok,
            f"well-definedness {worst_wd:.2e}, diagram {worst_diag:.2e}, "
            f"inverse {worst_inv:.2e}, composition {worst_comp:.2e}")


def test_criterion_07_operational_agreement():
    group = SUITE_GROUPS["s3"]
    n = group.order
    frames = [canonical_frame(group, "left_right"), canonical_frame(group, "left_right")]
    scenario = MultiFrameScenario(frames, left_right_rep(group))
    rng = np.random.default_rng(7)
    # basis kets transform by the exact relabeling rule
    worst_ket = 0.0
    for h2 in group.elements():
        for h3 in (0, 3):
            state = np.zeros((n * n, n * n), dtype=complex)
            state[h2 * n + h3, h2 * n + h3] = 1.0
            moved = frame_change(scenario, 0, 1, state)
            i, j = group.inv(h2), group.mul(h3, group.inv(h2))
            expected = np.zeros_like(moved.matrix)
            expected[i * n + j, i * n + j] = 1.0
            worst_ket = max(worst_ket, float(np.max(np.abs(moved.matrix - expected))))
    # general states agree with the coherent unitary up to framed equivalence
    worst_state = 0.0
    for t in range(100):
        dim = n * n
        if t % 2 == 0:
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            v /= np.linalg.norm(v)
            state = np.outer(v, np.conj(v))
        else:
            state = random_density(rng, dim)
        worst_state = max(worst_state, operational_agreement(scenario, state))
    # superposed second frame: operational output is the pointer dephasing of
    # the coherent output, and class-equal to it
    alpha, beta = np.sqrt(0.3), np.sqrt(0.7)
    h1, h2, g0 = 1, 4, 2
    vec = np.zeros(n * n, dtype=complex)
    vec[h1 * n + g0] = alpha
    vec[h2 * n + g0] = beta
    fixture = np.outer(vec, np.conj(vec))
    moved = frame_change(scenario, 0, 1, fixture)
    u = coherent_frame_change_unitary(scenario, 0, 1)
    coherent = u @ fixture @ dagger(u)
    lueders = np.zeros_like(coherent)
    for x in group.elements():
        p = np.kron(scenario.frames[0].povm.effect(x), np.eye(n, dtype=complex))
        lueders += p @ coherent @ p
    worst_lueders = max(moved.class_deviation(coherent),
                        float(np.max(np.abs(moved.matrix - lueders))))
    ok = worst_ket <= 1e-12 and worst_state <= 1e-9 and worst_lueders <= 1e-9
    _report("criterion 7 (agreement with the coherent change)", ok,
            f"ket rule {worst_ket:.2e}, 100 seeded states {worst_state:.2e}, "
            f"dephasing fixture {worst_lueders:.2e}")


def test_criterion_08_triangular_reconstruction():
    rng = np.random.default_rng(8)
    worst = 0.0
    for name in ("z2", "z3", "z4", "s3"):
        group = SUITE_GROUPS[name]
        f1 = canonical_frame(group)
        f2 = canonical_frame(group)
        sys_rep = standard_system_rep(group, 2)
        orientation = relative_orientation(f1, f2)
        ym1, ym2 = YenMap(f1, f2.rep), YenMap(f2, sys_rep)
        for _ in range(10):
            rho = random_density(rng, sys_rep.dim)
            omega = random_density(rng, f1.dim * f2.dim)
            direct = triangular_reconstruction(f1, f2, rho, sys_rep, omega,
                                               orientation=orientation)
            product = ym2.predual(kron(ym1.predual(omega), rho))
            worst = max(worst, op_norm(direct - product))
    ok = worst <= 1e-10
    _report("criterion 8 (triangular reconstruction)", ok,
            f"max deviation from the product form {worst:.2e}")


def test_criterion_09_measurement():
    worst_prc = worst_rrc = worst_orient = 0.0
    for name, group in SUITE_GROUPS.items():
        scheme = canonical_scheme(group)
        worst_prc = max(worst_prc, worst_case(check_prc(scheme))[0])
        worst_rrc = max(worst_rrc, worst_case(check_rrc(scheme, left_regular_rep(group)))[0])
        worst_orient = max(worst_orient, worst_case(rrc_relative_orientation(
            canonical_frame(group), canonical_frame(group)))[0])
    ok = max(worst_prc, worst_rrc, worst_orient) <= 1e-10
    _report("criterion 9 (measurement reproducibility)", ok,
            f"prc {worst_prc:.2e}, rrc {worst_rrc:.2e}, orientation {worst_orient:.2e}")


def test_criterion_10_oracle_equivalence():
    rng = np.random.default_rng(10)
    worst_adjoint = 0.0
    mismatches = 0
    for n in (2, 3, 4):
        group = cyclic_group(n)
        frame = canonical_frame(group)
        sys_rep = left_regular_rep(group)
        ym = YenMap(frame, sys_rep)
        adjoint = dagger(ym.matrix())
        for _ in range(10):
            omega = random_hermitian(rng, ym.dim_total)
            direct = ym.predual(omega).reshape(-1)
            worst_adjoint = max(worst_adjoint, float(np.max(np.abs(
                direct - adjoint @ omega.reshape(-1)))))
        # equivalence test against the explicit kernel-membership oracle
        gens = [random_hermitian(rng, n) for _ in range(2)] + [np.eye(n)]
        ctx = EffectContext(gens)
        span = ctx.span_coords
        for _ in range(200):
            a = random_hermitian(rng, n)
            if rng.uniform() < 0.5:
                c = rng.normal(size=ctx.basis.size)
                b = a + 0.5 * ctx.basis.from_coords(c - span.T @ (span @ c))
            else:
                b = random_hermitian(rng, n)
            # the SVD's span rows decide kernel membership; class_deviation
            # pairs against the generators themselves
            in_kernel = bool(np.linalg.norm(span @ ctx.basis.to_coords(a - b)) <= 1e-9)
            if (ctx.class_deviation(a, b) <= DEFAULT_TOL) != in_kernel:
                mismatches += 1
    ok = worst_adjoint <= 1e-10 and mismatches == 0
    _report("criterion 10 (independent oracles)", ok,
            f"adjoint-matrix deviation {worst_adjoint:.2e}, "
            f"equivalence/kernel mismatches {mismatches}")
