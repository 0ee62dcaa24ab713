import warnings

import numpy as np
import pytest

from gsadmm import oracles
from gsadmm.model import Box, Free, L1, Linear, Nonnegative, Quadratic
from gsadmm.oracles import ProxKernel, Unbounded, UnsupportedCombination, project, prox_solve
from gridsearch import (
    FAMILIES,
    ProxQuery,
    brute_force_min,
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
    # construction finds it, and each call raises Unbounded, alone or in a
    # batch, with no floating-point error or warning; a batch that does not
    # fail leaves no floating-point flag either
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        singular = ProxKernel(Quadratic(np.zeros((2, 2)), np.zeros(2)), Free(), [[1.0, 1.0]], 1.0)
        regular = ProxKernel(Quadratic(np.eye(2), np.zeros(2)), Free(), [[1.0, 1.0]], 1.0)
        with pytest.raises(Unbounded):
            prox_solve(singular, np.ones(1))
        with pytest.raises(Unbounded):
            prox_solve(oracles.FreeBatch([regular, singular]), np.ones((2, 1)))
        z = prox_solve(oracles.FreeBatch([regular, regular]), np.array([[1.0], [2.0]]))
        assert z.tobytes() == np.stack([prox_solve(regular, np.ones(1)), prox_solve(regular, [2.0])]).tobytes()
    assert (singular.stats.calls, regular.stats.calls) == (2, 5)


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


def test_bound_oracle_scalar_recheck_path(monkeypatch):
    # a guard band wider than every margin sends each candidate to the scalar test
    monkeypatch.setattr(oracles, "GUARD_REL", 1e3)
    rng = np.random.default_rng(4)
    for family in BOUND_FAMILIES:
        q = random_query(family, rng, dim=4)
        kernel = _assert_same_bits(q)
        assert kernel.stats.rechecks > 0


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
    assert stats.rechecks == 0 and stats.loose == 0
    free = ProxKernel(Quadratic(np.eye(2), np.zeros(2)), Free(), np.eye(2), 1.0)
    prox_solve(free, np.ones(2))
    assert (free.stats.calls, free.stats.patterns) == (1, 0)
