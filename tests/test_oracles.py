import itertools
import warnings

import numpy as np
import pytest

from gsadmm import oracles
from gsadmm.model import Box, Free, L1, Linear, Nonnegative, Quadratic, matvecs
from gsadmm.oracles import ProxKernel, Unbounded, UnsupportedCombination, project, prox_solve
from gridsearch import (
    FAMILIES,
    ProxQuery,
    brute_force_min,
    kkt_ok,
    optimality_residual,
    random_query,
    reference_prox_solve,
    solve_query,
)

BOUND_FAMILIES = ("quadratic-box", "quadratic-nonnegative", "linear-box", "linear-nonnegative")


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------

def test_project_variants():
    assert np.array_equal(project(Free(), np.array([3.0, -2.0])), [3.0, -2.0])
    assert np.array_equal(
        project(Box([0.0, 0.0], [1.0, 1.0]), np.array([2.0, -0.5])), [1.0, 0.0]
    )
    assert np.array_equal(project(Nonnegative(), np.array([-1.0, 4.0])), [0.0, 4.0])


@pytest.mark.parametrize("fset", [
    Free(),
    Nonnegative(),
    Box([-0.5, -np.inf, 0.0], [0.5, 2.0, np.inf]),
])
def test_projection_nonexpansive(fset):
    rng = np.random.default_rng(1)
    dim = 3 if isinstance(fset, Box) else 4
    for _ in range(1000):
        a = 3.0 * rng.standard_normal(dim)
        b = 3.0 * rng.standard_normal(dim)
        pa, pb = project(fset, a), project(fset, b)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-15


# ---------------------------------------------------------------------------
# Closed-form prox examples
# ---------------------------------------------------------------------------

def test_prox_quadratic_free_scalar():
    # (2 + 1.5) z = 1.5 * 7
    q = ProxQuery(Quadratic([[2.0]], [0.0]), Free(), [[1.0]], 1.5, [7.0])
    assert solve_query(q) == pytest.approx([3.0], abs=1e-14)


def test_prox_first_x_step_of_qp1():
    # 2x + 1.5 (x - 2/3) = 0  =>  x = 2/7
    q = ProxQuery(Quadratic([[2.0]], [0.0]), Free(), [[1.0]], 1.5, [2.0 / 3.0])
    assert solve_query(q) == pytest.approx([2.0 / 7.0], abs=1e-15)


def test_prox_l1_soft_threshold():
    q = ProxQuery(L1(1.0), Free(), np.eye(2), 2.0, [1.2, -0.1])
    assert np.allclose(solve_query(q), [0.7, 0.0], atol=1e-15)


def test_prox_l1_nonnegative():
    q = ProxQuery(L1(1.0), Nonnegative(), np.eye(2), 2.0, [1.2, -0.1])
    assert np.allclose(solve_query(q), [0.7, 0.0], atol=1e-15)


def test_prox_l1_scaled_identity():
    # min w|z| + rho/2 (alpha z - u)^2 -> soft threshold of u/alpha at w/(rho alpha^2)
    q = ProxQuery(L1(0.6), Free(), 2.0 * np.eye(1), 1.5, [3.0])
    expected = np.sign(1.5) * max(1.5 - 0.6 / (1.5 * 4.0), 0.0)
    assert solve_query(q) == pytest.approx([expected], abs=1e-14)


def test_prox_box_active_set():
    q = ProxQuery(Quadratic(np.eye(2), np.zeros(2)), Box([0.0, 0.0], [1.0, 1.0]),
                  np.eye(2), 1.0, [2.0, -3.0])
    assert np.allclose(solve_query(q), [1.0, 0.0], atol=1e-14)


def test_prox_linear_box():
    # gradient r + rho(z - u); pulled to the lower bound in both components
    q = ProxQuery(Linear([5.0, 5.0]), Box([-1.0, -1.0], [1.0, 1.0]),
                  np.eye(2), 1.0, [0.0, 0.0])
    assert np.allclose(solve_query(q), [-1.0, -1.0], atol=1e-14)


def test_prox_linear_nonnegative():
    q = ProxQuery(Linear([-3.0]), Nonnegative(), [[1.0]], 2.0, [1.0])
    # 2(z - 1) - 3 = 0 -> z = 2.5
    assert solve_query(q) == pytest.approx([2.5], abs=1e-14)


# ---------------------------------------------------------------------------
# Catalog boundaries
# ---------------------------------------------------------------------------

def test_unsupported_combinations_raise():
    with pytest.raises(UnsupportedCombination):
        solve_query(ProxQuery(L1(1.0), Free(), [[1.0, 0.5], [0.0, 1.0]], 1.0, [0.0, 0.0]))
    with pytest.raises(UnsupportedCombination):
        solve_query(ProxQuery(L1(1.0), Free(), -np.eye(2), 1.0, [0.0, 0.0]))
    with pytest.raises(UnsupportedCombination):
        solve_query(ProxQuery(L1(1.0), Box([0.0], [1.0]), np.eye(1), 1.0, [0.0]))
    with pytest.raises(UnsupportedCombination):
        solve_query(ProxQuery(Linear([1.0]), Free(), [[1.0]], 1.0, [0.0]))


def test_enumeration_dimension_cap():
    dim = 13
    q = ProxQuery(Quadratic(np.eye(dim), np.zeros(dim)), Nonnegative(),
                  np.eye(dim), 1.0, np.zeros(dim))
    with pytest.raises(UnsupportedCombination):
        solve_query(q)


def test_unbounded_face_raises():
    # the null direction (1, 1) of the coupling is feasible and strictly
    # decreases the linear term, so no KKT point exists
    q = ProxQuery(Linear([-1.0, -1.0]), Nonnegative(),
                  np.array([[1.0, -1.0]]), 1.0, np.array([1.0]))
    with pytest.raises(Unbounded):
        solve_query(q)


def test_singular_free_kernel_raises_unbounded():
    # Heff = A'A = [[1, 1], [1, 1]] has an exact zero pivot. The probe at
    # construction finds it, and each call raises Unbounded, with no
    # floating-point error or warning; a regular kernel leaves no
    # floating-point flag either, and its answer has the bits of
    # np.linalg.solve
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        singular = ProxKernel(Quadratic(np.zeros((2, 2)), np.zeros(2)), Free(), [[1.0, 1.0]], 1.0)
        regular = ProxKernel(Quadratic(np.eye(2), np.zeros(2)), Free(), [[1.0, 1.0]], 1.0)
        for u in (np.ones(1), np.array([2.0])):
            with pytest.raises(Unbounded):
                prox_solve(singular, u)
            z = prox_solve(regular, u)
            assert z.tobytes() == np.linalg.solve(np.eye(2) + 1.0, np.array([1.0, 1.0]) * u).tobytes()
    assert (singular.stats.calls, regular.stats.calls) == (2, 2)


# ---------------------------------------------------------------------------
# Optimality residual, uniqueness, and brute-force agreement
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", FAMILIES)
def test_optimality_residual_vanishes(family):
    rng = np.random.default_rng(11)
    for _ in range(25):
        q = random_query(family, rng)
        z = solve_query(q)
        res = optimality_residual(q, z)
        assert float(np.abs(res).max()) <= 1e-9, family


@pytest.mark.parametrize("family", FAMILIES)
def test_brute_force_agreement_smoke(family):
    rng = np.random.default_rng(5)
    for _ in range(10):
        q = random_query(family, rng)
        z = solve_query(q)
        z_ref, f_ref = brute_force_min(q)
        assert abs(q.value(z) - f_ref) <= 1e-8
        assert float(np.abs(z - z_ref).max()) <= 1e-3


def test_perturbation_lipschitz_bound():
    rng = np.random.default_rng(3)
    for _ in range(50):
        q = random_query("quadratic-box", rng)
        z = solve_query(q)
        delta = 1e-4 * rng.standard_normal(q.u.shape)
        q2 = ProxQuery(q.objective, q.set, q.A, q.rho, q.u + delta)
        z2 = solve_query(q2)
        curvature = q.objective.P + q.rho * (q.A.T @ q.A)
        lam_min = float(np.linalg.eigvalsh(curvature).min())
        bound = np.linalg.norm(delta) * q.rho * np.linalg.norm(q.A, 2) / lam_min
        assert np.linalg.norm(z2 - z) <= bound * (1.0 + 1e-9) + 1e-12


# ---------------------------------------------------------------------------
# Batched box/nonnegative oracle against the one-pattern-at-a-time reference
# ---------------------------------------------------------------------------

def _assert_same_bits(query, kernel=None):
    kernel = kernel or ProxKernel(query.objective, query.set, query.A, query.rho)
    z = prox_solve(kernel, query.u)
    ref = reference_prox_solve(query)
    assert z.tobytes() == ref.tobytes(), (z, ref)
    return kernel


@pytest.mark.parametrize("family", BOUND_FAMILIES)
@pytest.mark.parametrize("dim", range(1, 9))
def test_bound_oracle_bit_identical(family, dim):
    rng = np.random.default_rng(100 + dim)
    for _ in range(6 if dim <= 5 else 1):
        q = random_query(family, rng, dim=dim)
        kernel = None
        # one kernel serves several points u, as in a solve
        for factor in (1.0, 4.0 * rng.standard_normal(), 0.1):
            kernel = _assert_same_bits(ProxQuery(q.objective, q.set, q.A, q.rho, factor * q.u), kernel)


def test_bound_oracle_infinite_bounds_bit_identical():
    rng = np.random.default_rng(8)
    for dim in range(1, 7):
        for _ in range(4):
            q = random_query("quadratic-box", rng, dim=dim)
            lo, hi = q.set.lo.copy(), q.set.hi.copy()
            lo[rng.random(dim) < 0.4] = -np.inf
            hi[rng.random(dim) < 0.4] = np.inf
            _assert_same_bits(ProxQuery(q.objective, Box(lo, hi), q.A, q.rho, 3.0 * q.u))


def test_bound_oracle_degenerate_tie_takes_first_pattern():
    # component 0 of the minimizer sits on its lower bound 0.1 with a zero
    # multiplier; the interior pattern solves to 0.3/3 = 0.09999999999999999,
    # inside the tolerance, and comes first in lexicographic order
    q = ProxQuery(Quadratic(2.0 * np.eye(3), np.zeros(3)), Box([0.1, -1.0, -1.0], [1.0, 1.0, 1.0]),
                  np.eye(3), 1.0, [0.3, 0.2, -0.4])
    _assert_same_bits(q)
    z = solve_query(q)
    assert z[0] == 0.3 / 3.0 != 0.1
    grad_at_bound = 3.0 * 0.1 - 0.3
    assert 0.0 <= grad_at_bound <= 1e-15  # the at-bound pattern passes too


def test_bound_oracle_loose_tier_only():
    # the free pair (1, 2) is nearly singular (eigenvalue ~1e-15), so the
    # computed multiplier of component 0 at its bound misses 1e-9 but not 1e-6
    H = np.array([float.fromhex(x) for x in (
        "0x1.0000000000000p+0", "0x1.b046cdef3417dp-28", "0x1.27f1064e2be3cp-27",
        "0x1.b046cdef3417dp-28", "0x1.4de61d430f59ap-1", "-0x1.e7b8633149b33p-2",
        "0x1.27f1064e2be3cp-27", "-0x1.e7b8633149b33p-2", "0x1.6433c579e14cfp-2")]).reshape(3, 3)
    r = np.array([float.fromhex(x) for x in (
        "-0x1.768dc7204fc37p-29", "0x1.cf86336ae17aap-1", "-0x1.5287e6bd5f216p-1")])
    fset = Box([0.0, -np.inf, -np.inf], [np.inf, np.inf, np.inf])
    q = ProxQuery(Quadratic(H, r), fset, 1e-30 * np.eye(3), 1.0, np.zeros(3))
    kernel = _assert_same_bits(q)
    assert kernel.stats.loose == 1


def test_stacked_gradient_has_the_bits_of_the_1d_product():
    # the enumeration tests a chunk's gradients as one stacked matrix-vector
    # product per pattern, where the one-at-a-time reference forms the 1-d
    # Heff @ z; for a C-contiguous Heff the two are the same bytes
    rng = np.random.default_rng(31)
    for family in BOUND_FAMILIES:
        for dim in range(1, 13):
            q = random_query(family, rng, dim=dim)
            kernel = ProxKernel(q.objective, q.set, q.A, q.rho)
            Heff, geff = kernel._Heff, oracles._geff(kernel, q.u)
            assert Heff.flags.c_contiguous
            for chunk in itertools.islice(kernel._table._chunks(), 3):  # up to 243 + 729 + 2187 patterns
                scale = 10.0 ** rng.integers(-3, 4, (chunk.Zb.shape[0], 1))
                Z = np.where(chunk.free, scale * rng.standard_normal(chunk.Zb.shape), chunk.Zb)
                G = matvecs(Heff, Z) + geff
                for i in range(Z.shape[0]):
                    assert G[i].tobytes() == (Heff @ Z[i].copy() + geff).tobytes(), (family, dim, i)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_bound_oracle_non_finite_point_gives_non_finite_answer(bad):
    # NaN passes the enumeration's tests, as in the reference, so a kernel at
    # a non-finite point answers with a non-finite z instead of raising
    # Unbounded, and a diverging solve ends in NonFiniteIterate
    rng = np.random.default_rng(6)
    for family in BOUND_FAMILIES:
        q = random_query(family, rng, dim=3)
        kernel = ProxKernel(q.objective, q.set, q.A, q.rho)
        u = q.u.copy()
        u[1] = bad
        with np.errstate(all="ignore"):
            z = prox_solve(kernel, u)
        assert not np.isfinite(z).all(), (family, z)


def test_bound_oracle_singular_patterns_fall_back():
    # A'A is singular: the all-free pattern has no solution, the stacked
    # solve raises, and the group is solved pattern by pattern
    q = ProxQuery(Linear([1.0, 1.0]), Nonnegative(), np.array([[1.0, -1.0]]), 1.0, np.array([0.0]))
    _assert_same_bits(q)
    assert np.array_equal(solve_query(q), [0.0, 0.0])
    unbounded = ProxQuery(Linear([-1.0, -1.0]), Nonnegative(), np.array([[1.0, -1.0]]), 1.0, np.array([1.0]))
    with pytest.raises(Unbounded):
        reference_prox_solve(unbounded)
    with pytest.raises(Unbounded):
        solve_query(unbounded)


def test_oracle_counters():
    q = ProxQuery(Quadratic(np.eye(2), np.zeros(2)), Box([0.0, 0.0], [1.0, 1.0]),
                  np.eye(2), 1.0, [2.0, -3.0])
    kernel = ProxKernel(q.objective, q.set, q.A, q.rho)
    for _ in range(3):
        prox_solve(kernel, q.u)
    stats = kernel.stats
    assert (stats.set, stats.dim, stats.calls) == ("box", 2, 3)
    assert stats.patterns == 3 * 9  # one chunk of all 3^2 patterns per call
    assert stats.loose == 0
    free = ProxKernel(Quadratic(np.eye(2), np.zeros(2)), Free(), np.eye(2), 1.0)
    prox_solve(free, np.ones(2))
    assert (free.stats.calls, free.stats.patterns) == (1, 0)


# ---------------------------------------------------------------------------
# Answers on a held pattern
# ---------------------------------------------------------------------------

def _on_pattern(kernel, pattern, U):
    """The kernel's affine answers and test rows on the pattern at each row of U."""
    L, V = kernel.affine(pattern)
    return U @ L[:, :-1].T + L[:, -1], U @ V[:, :-1].T + V[:, -1]


def test_free_affine_map_is_the_oracle():
    # a free-quadratic kernel has no pattern: affine(None) is its answer as
    # a map of u, with no test rows, and evaluated at u it is prox_solve's
    # answer; a singular kernel raises Unbounded there as in solve
    rng = np.random.default_rng(23)
    for _ in range(20):
        q = random_query("quadratic-free", rng, dim=int(rng.integers(1, 5)))
        kernel = ProxKernel(q.objective, q.set, q.A, q.rho)
        L, V = kernel.affine(None)
        assert not kernel.patterned and V is None and L.shape == (q.dim, q.A.shape[0] + 1)
        U = rng.standard_normal((50, q.A.shape[0])) * rng.uniform(0.1, 10.0, (50, 1))
        for u in U:
            z = prox_solve(kernel, u)
            assert np.abs(L[:, :-1] @ u + L[:, -1] - z).max() <= 1e-12 * (1.0 + np.abs(z).max())
    singular = ProxKernel(Quadratic(np.zeros((2, 2)), np.zeros(2)), Free(), [[1.0, 1.0]], 1.0)
    with pytest.raises(Unbounded):
        singular.affine(None)


@pytest.mark.parametrize("family", [f for f in FAMILIES if f != "quadratic-free"])
def test_pattern_test_agrees_with_the_oracle(family):
    # every pattern of random kernels at many points u: an answer that
    # `holds` accepts passes the scalar KKT test at tier 1e-9 (box) or has
    # the closed form's signs and value (l1); a box answer that passes with
    # a margin wider than the guard band is accepted, and so are the l1
    # closed form's own signs
    rng = np.random.default_rng(17)
    accepted = 0
    for _ in range(4):
        q = random_query(family, rng, dim=3)
        kernel = ProxKernel(q.objective, q.set, q.A, q.rho)
        U = rng.standard_normal((300, 3)) * rng.uniform(0.1, 10.0, (300, 1))
        l1 = isinstance(q.objective, L1)
        states = [(-1, 0, 1) if l1 and isinstance(q.set, Free) else (0, 1) if l1 else tuple(s)
                  for s in getattr(kernel._table, "states", [None] * 3)]
        for pattern in map(np.array, itertools.product(*states)):
            pattern = pattern.astype(np.int8)
            Z, V = _on_pattern(kernel, pattern, U)
            held = kernel.holds(pattern, Z, V)
            accepted += int(held.sum())
            for u, z, ok in zip(U, Z, held):
                if l1:
                    closed = kernel._solve(u)
                    same = np.array_equal(np.sign(closed), pattern)
                    assert not ok or (same and np.abs(z - closed).max() <= 1e-12 * (1 + np.abs(u).max()))
                    continue
                lo, hi = oracles.bounds(q.set, 3)
                geff = oracles._geff(kernel, u)
                assert not ok or kkt_ok(kernel._Heff, geff, lo, hi, pattern, z, oracles.KKT_TIERS[0])
                inner = oracles.KKT_TIERS[0] - 4 * oracles.GUARD_REL
                assert ok or not kkt_ok(kernel._Heff, geff, lo, hi, pattern, z, inner)
        if l1:  # the closed form's own signs hold (no margin here falls in the band)
            for u in U:
                pattern = kernel.pattern(prox_solve(kernel, u))
                assert kernel.holds(pattern, *_on_pattern(kernel, pattern, u[None]))[0]
            # at u/alpha = thresh + eps the positive pattern holds exactly when eps clears the band
            alpha, thresh = q.A[0, 0], kernel._thresh
            for eps in np.concatenate((-np.logspace(-14, -2, 7), np.logspace(-10, -2, 5))):
                u = np.full(3, alpha * (thresh + eps))
                pattern = np.ones(3, dtype=np.int8)
                assert kernel.holds(pattern, *_on_pattern(kernel, pattern, u[None]))[0] == (eps > 0), eps
    assert accepted > 0
