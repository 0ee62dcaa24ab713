import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gsadmm as g
from gsadmm.model import (
    Block,
    BlockProblem,
    Box,
    Free,
    Iterate,
    L1,
    Linear,
    Nonnegative,
    Quadratic,
    SolverConfig,
)
from gsadmm.oracles import ProxKernel


def small_problem(A=None, B=None, c=None):
    A = [[1.0]] if A is None else A
    B = [[1.0]] if B is None else B
    c = [1.0] if c is None else c
    return BlockProblem(
        (Block(Quadratic([[2.0]], [0.0]), A, Free()),),
        (Block(Quadratic([[2.0]], [0.0]), B, Free()),),
        c,
    )


# ---------------------------------------------------------------------------
# Stepsize regions
# ---------------------------------------------------------------------------

def test_region_membership_examples():
    assert g.in_region_G(0.5, 0.5)
    assert g.in_region_D(0.5, 0.5)
    # (1, 1) sits exactly on the boundary polynomial; strict inequality fails
    assert not g.in_region_G(1.0, 1.0)
    assert not g.in_region_D(1.0, 1.0)
    # -2.25 - 0.09 - 0.45 + 1.5 + 0.3 + 1 = 0.01 > 0
    assert g.in_region_G(1.5, 0.3)
    assert not g.in_region_D(1.5, 0.3)
    assert not g.in_region_G(-0.2, 0.1)
    assert not g.in_region_D(-0.2, 0.1)
    # the triangle's corners lie on the boundary ellipse, so its interior is
    # strictly inside the elliptic region: (0.9, 0.9) belongs to both
    # (-0.81*3 + 0.9 + 0.9 + 1 = +0.37)
    assert g.in_region_D(0.9, 0.9)
    assert g.in_region_G(0.9, 0.9)


@settings(max_examples=300, deadline=None)
@given(st.floats(-2, 2), st.floats(-2, 2))
def test_triangle_region_is_inside_elliptic_region(tau, s):
    if g.in_region_D(tau, s):
        assert tau + s > 0
        assert g.in_region_G(tau, s)


def test_grid_sample_triangle_implies_positive_sum():
    pts = np.linspace(-2, 2, 10)
    for tau in pts:
        for s in pts:
            if g.in_region_D(tau, s):
                assert tau + s > 0


# ---------------------------------------------------------------------------
# Problem validation
# ---------------------------------------------------------------------------

def test_validate_trivial_problem_clean():
    report = g.validate_problem(small_problem())
    assert report.ok and not report.warnings


def test_validate_flags_zero_column():
    problem = BlockProblem(
        (Block(Quadratic([[2.0]], [0.0]), [[0.0], [0.0]], Free()),),
        (Block(Quadratic([[2.0]], [0.0]), [[1.0], [0.0]], Free()),),
        [1.0, 0.0],
    )
    report = g.validate_problem(problem)
    assert any("rank" in v for v in report.violations)


def test_validate_flags_row_mismatch():
    problem = BlockProblem(
        (Block(Quadratic([[2.0]], [0.0]), [[1.0], [0.0], [0.0]], Free()),),
        (Block(Quadratic([[2.0]], [0.0]), [[1.0], [0.0]], Free()),),
        [1.0, 0.0],
    )
    report = g.validate_problem(problem)
    assert any("rows" in v for v in report.violations)


def test_validate_flags_bad_box_and_negative_weight():
    problem = BlockProblem(
        (Block(L1(-0.5), [[1.0]], Free()),),
        (Block(Quadratic([[2.0]], [0.0]), [[1.0]], Box([1.0], [0.0])),),
        [1.0],
    )
    report = g.validate_problem(problem)
    assert any("weight" in v for v in report.violations)
    assert any("lo > hi" in v for v in report.violations)


def test_validate_warns_on_large_enumeration_block():
    dim = 9
    problem = BlockProblem(
        (Block(Quadratic(np.eye(dim), np.zeros(dim)), np.eye(dim), Nonnegative()),),
        (Block(Quadratic([[2.0]] , [0.0]), np.ones((dim, 1)), Free()),),
        np.ones(dim),
    )
    report = g.validate_problem(problem)
    assert report.ok
    assert any("enumeration" in w for w in report.warnings)


def test_validate_rejects_block_above_enumeration_cap():
    dim = 13
    problem = BlockProblem(
        (Block(Quadratic(np.eye(dim), np.zeros(dim)), np.eye(dim), Nonnegative()),),
        (Block(Quadratic([[2.0]], [0.0]), np.ones((dim, 1)), Free()),),
        np.ones(dim),
    )
    report = g.validate_problem(problem)
    assert report.violations == ["x[0]: constrained block dimension 13 exceeds enumeration cap 12"]
    assert not report.warnings


@pytest.mark.parametrize("objective, A, fset", [
    (L1(1.0), [[1.0, 0.5], [0.0, 1.0]], Free()),
    (L1(1.0), -np.eye(2), Nonnegative()),
    (L1(1.0), np.eye(2), Box([0.0, 0.0], [1.0, 1.0])),
    (Linear([1.0, 2.0]), np.eye(2), Free()),
    (Quadratic(np.eye(13), np.zeros(13)), np.eye(13), Box(np.zeros(13), np.ones(13))),
])
def test_kernel_rejects_what_validation_reports(objective, A, fset):
    problem = BlockProblem((Block(objective, A, fset),),
                           (Block(Quadratic([[2.0]], [0.0]), np.ones((len(A), 1)), Free()),),
                           np.ones(len(A)))
    violations = g.validate_problem(problem).violations
    assert len(violations) == 1 and violations[0].startswith("x[0]: ")
    with pytest.raises(g.UnsupportedCombination) as exc:
        ProxKernel(objective, fset, A, 1.0)
    assert f"x[0]: {exc.value}" == violations[0]


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_config_rejects_sigma_boundary_exactly():
    problem = BlockProblem(
        (Block(Quadratic([[2.0]], [0.0]), [[1.0]], Free()),) * 2,
        (Block(Quadratic([[2.0]], [0.0]), [[1.0]], Free()),),
        [1.0],
    )
    cfg = SolverConfig(sigma1=1.0, sigma2=0.5)  # p = 2 so sigma1 must exceed 1
    report = g.validate_config(cfg, problem)
    assert any("sigma1" in v for v in report.violations)


def test_config_accepts_interior_point():
    cfg = SolverConfig(beta=1.0, tau=0.3, s=0.4, sigma1=0.5, sigma2=0.5)
    report = g.validate_config(cfg, small_problem())
    assert report.ok and not report.warnings


def test_config_region_policy_gate_and_warning():
    problem = small_problem()
    outside_d = SolverConfig(tau=1.5, s=0.3, region_policy="D")
    assert not g.validate_config(outside_d, problem).ok
    allow_g = SolverConfig(tau=1.5, s=0.3, region_policy="G")
    report = g.validate_config(allow_g, problem)
    assert report.ok
    assert any("not certified" in w for w in report.warnings)


def test_config_rejects_nonpositive_beta():
    report = g.validate_config(SolverConfig(beta=0.0), small_problem())
    assert any("beta" in v for v in report.violations)


@pytest.mark.parametrize("field", ["beta", "tau", "s", "sigma1", "sigma2"])
def test_config_rejects_non_finite_values(field):
    for value in (np.inf, -np.inf, np.nan):
        report = g.validate_config(SolverConfig(**{field: value}), small_problem())
        assert any(v.startswith(f"{field} must be finite") for v in report.violations)


def test_config_tol_may_be_infinite_or_negative_but_not_nan():
    for tol in (np.inf, -1.0, 1e-10):
        assert g.validate_config(SolverConfig(tol=tol), small_problem()).ok
    assert not g.validate_config(SolverConfig(tol=np.nan), small_problem()).ok


# ---------------------------------------------------------------------------
# Iterate plumbing
# ---------------------------------------------------------------------------

def test_iterate_stack_roundtrip():
    problem = BlockProblem(
        (Block(Quadratic(np.eye(2), np.zeros(2)), np.eye(3, 2), Free()),),
        (Block(Quadratic([[2.0]], [0.0]), np.eye(3, 1), Free()),),
        np.zeros(3),
    )
    v = np.arange(6, dtype=float)
    w = Iterate.from_stack(problem, v)
    assert np.array_equal(w.stack(), v)
    assert w.x[0].shape == (2,) and w.y[0].shape == (1,) and w.lam.shape == (3,)


def test_objective_values():
    quad = Quadratic([[2.0, 0.0], [0.0, 4.0]], [1.0, -1.0], 0.5)
    z = np.array([1.0, 2.0])
    assert quad.value(z) == pytest.approx(1.0 + 8.0 + 1.0 - 2.0 + 0.5)
    assert np.allclose(quad.gradient(z), [3.0, 7.0])
    assert L1(0.5).value(np.array([-2.0, 3.0])) == pytest.approx(2.5)
    lin = Linear([1.0, -2.0])
    assert lin.value(z) == pytest.approx(-3.0)
