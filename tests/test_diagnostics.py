import numpy as np
import pytest

import gsadmm as g
from gsadmm import diagnostics
from gsadmm.model import Block, BlockProblem, Free, Iterate, L1, Quadratic, SolverConfig
from reference_verdict import step


# ---------------------------------------------------------------------------
# Residual vector d
# ---------------------------------------------------------------------------

def test_d_vector_first_step_hand_values(qp1_run):
    bundle, cfg, _, trace = qp1_run
    rec = trace.records[0]
    d = diagnostics.d_components(bundle.problem, cfg, rec.w_tilde.stack() - rec.w.stack())
    assert d[0] == pytest.approx(1.0 / 7.0, abs=1e-15)
    assert d[1] == pytest.approx(1.5 * 13.0 / 49.0 - 0.3 * 5.0 / 7.0, abs=1e-15)
    assert trace.records[0].d_norm_sq == pytest.approx(float(d @ d), rel=1e-14)


def test_d_vector_zero_when_prediction_equals_state(qp1_bundle):
    problem = qp1_bundle.problem
    cfg = g.default_config(problem)
    w = Iterate((np.array([0.4]),), (np.array([0.6]),), np.array([2.0]))
    d = diagnostics.d_components(problem, cfg, w.stack() - w.stack())
    assert d.shape == (problem.total_dim - problem.n,) and np.allclose(d, 0.0, atol=1e-16)


def test_d_block_optimality_residual_along_run(qp1_run):
    # the predicted blocks must be projected stationary points of the
    # first-order condition shifted by lambda~ and the matching d component
    bundle, cfg, _, trace = qp1_run
    problem = bundle.problem
    for rec in trace.records[:50]:
        d = diagnostics.d_components(problem, cfg, rec.w_tilde.stack() - rec.w.stack())
        parts = [d[sl] for sl in problem.block_slices]
        for i, blk in enumerate(problem.x_blocks):
            xt = rec.w_tilde.x[i]
            shift = blk.objective.gradient(xt) - blk.A.T @ rec.w_tilde.lam + parts[i]
            res = xt - g.project(blk.set, xt - shift)
            assert float(np.abs(res).max()) <= 1e-9
        for j, blk in enumerate(problem.y_blocks):
            yt = rec.w_tilde.y[j]
            shift = blk.objective.gradient(yt) - blk.A.T @ rec.w_tilde.lam \
                + parts[problem.p + j]
            res = yt - g.project(blk.set, yt - shift)
            assert float(np.abs(res).max()) <= 1e-9


def test_theta_hat_bounds_d_norm(catalog_runs):
    for bundle, cfg, mats, trace in catalog_runs["runs"]:
        report = g.pointwise_residual_check(bundle.problem, cfg, trace)
        assert report.theta_hat_ok, bundle.name
        assert report.theta_hat > 0


def test_pointwise_sups_on_constant_trace(qp1_bundle):
    problem = qp1_bundle.problem
    cfg = g.default_config(problem, max_iters=1, tol=-1.0)
    trace = g.solve(problem, cfg)
    report = g.pointwise_residual_check(problem, cfg, trace)
    rec = trace.records[0]
    assert report.sup_scaled_d_sq == pytest.approx(rec.d_norm_sq)
    assert report.sup_scaled_feasibility_sq == pytest.approx(rec.feasibility ** 2)


# ---------------------------------------------------------------------------
# Contraction
# ---------------------------------------------------------------------------

def test_contraction_slack_zero_at_fixed_point(qp1_bundle):
    problem, w_star = qp1_bundle.problem, qp1_bundle.w_star
    cfg = g.default_config(problem)
    mats = g.assemble(problem, cfg)
    _, rec = step(problem, cfg, w_star, mats=mats, w_star=w_star)
    assert abs(rec.contraction_slack) <= 1e-24


def test_contraction_nonnegative_along_catalog(catalog_runs):
    for bundle, cfg, mats, trace in catalog_runs["runs"]:
        for rec in trace.records:
            slack = rec.contraction_slack
            bound = -1e-8 * (1.0 + rec.dist_H ** 2)
            assert slack >= bound, bundle.name


def test_region_gates_raise_outside_triangle(qp1_bundle):
    problem, w_star = qp1_bundle.problem, qp1_bundle.w_star
    cfg = g.default_config(problem, tau=1.5, s=0.3, region_policy="G")
    mats = g.assemble(problem, cfg)
    trace = g.solve(problem, cfg, w_star=w_star, mats=mats)
    assert trace.records
    assert all(np.isnan(rec.contraction_slack) for rec in trace.records)
    with pytest.raises(g.RegionNotCertified):
        g.nonergodic_check(mats, trace, w_star)
    with pytest.raises(g.RegionNotCertified):
        g.linear_rate_check(mats, trace, w_star, g.rate_constants(problem, cfg))


# ---------------------------------------------------------------------------
# Nonergodic rate
# ---------------------------------------------------------------------------

def test_nonergodic_flags_on_qp1(qp1_run):
    bundle, _, mats, trace = qp1_run
    report = g.nonergodic_check(mats, trace, bundle.w_star)
    assert report.monotone_ok
    assert report.xi_bound_ok
    assert report.sublinear_envelope > 0


def test_nonergodic_trivial_on_short_and_fixed_traces(qp1_bundle):
    problem, w_star = qp1_bundle.problem, qp1_bundle.w_star
    cfg = g.default_config(problem, max_iters=1, tol=-1.0)
    mats = g.assemble(problem, cfg)
    trace = g.solve(problem, cfg, w_star=w_star, mats=mats)
    report = g.nonergodic_check(mats, trace, w_star)
    assert report.monotone_ok
    fixed = g.solve(problem, g.default_config(problem, max_iters=100, tol=-1.0),
                    w0=w_star, w_star=w_star, mats=mats)
    report = g.nonergodic_check(mats, fixed, w_star)
    assert report.sublinear_envelope <= 1e-24


# ---------------------------------------------------------------------------
# Natural residual (error map)
# ---------------------------------------------------------------------------

def test_error_map_zero_at_solution(qp1_bundle):
    res = g.error_map_residual(qp1_bundle.problem, qp1_bundle.w_star)
    assert float(np.abs(res).max()) <= 1e-12


def test_error_map_perturbed_multiplier(qp1_bundle):
    problem = qp1_bundle.problem
    w = Iterate((np.array([0.5]),), (np.array([0.5]),), np.array([1.1]))
    res = g.error_map_residual(problem, w)
    # free sets: e_x = (grad - A'lambda) = 2*0.5 - 1.1 = -0.1 for both blocks
    assert res[0] == pytest.approx(-0.1, abs=1e-15)
    assert res[1] == pytest.approx(-0.1, abs=1e-15)


def test_error_map_dual_component_is_residual(qp1_bundle):
    problem = qp1_bundle.problem
    w = Iterate((np.array([0.8]),), (np.array([0.5]),), np.array([0.0]))
    res = g.error_map_residual(problem, w)
    assert res[-1] == pytest.approx(0.3, abs=1e-15)


def test_error_map_l1_selection_minimizes():
    problem = BlockProblem(
        (Block(L1(1.0), [[1.0]], Free()),),
        (Block(Quadratic([[2.0]], [-2.0], 1.0), [[1.0]], Free()),),
        [1.0],
    )
    # at x = 0 with |A'lambda| <= weight the minimizing selection zeroes e_x
    w = Iterate((np.array([0.0]),), (np.array([1.0]),), np.array([0.4]))
    res = g.error_map_residual(problem, w)
    assert res[0] == pytest.approx(0.0, abs=1e-15)
    # outside the interval the best selection clips at the weight
    w2 = Iterate((np.array([0.0]),), (np.array([1.0]),), np.array([1.7]))
    res2 = g.error_map_residual(problem, w2)
    assert res2[0] == pytest.approx(-(1.7 - 1.0), abs=1e-15)


# ---------------------------------------------------------------------------
# Rate constants
# ---------------------------------------------------------------------------

def test_rate_constants_golden_values(qp1_bundle):
    cfg = SolverConfig(beta=1.0, tau=0.3, s=0.4, sigma1=0.5, sigma2=0.5)
    rc = g.rate_constants(qp1_bundle.problem, cfg)
    assert rc.mu_tilde == (1.0,)
    assert rc.nu_tilde == (1.0,)
    # 4 p (1-sigma1)^2 beta^2 sum(mu) + 4 beta^2 mu_1 = 1 + 4
    assert rc.theta_bar[0] == pytest.approx(5.0, abs=1e-12)
    # 4 q (s beta)^2 sum(mu) + 3 q (s beta)^2 sum(nu) + 3 (sigma2+1)^2 beta^2 nu_1 + 2 q
    assert rc.vartheta_bar[0] == pytest.approx(0.64 + 0.48 + 6.75 + 2.0, abs=1e-12)
    # 4 (tau+s-1)^2 sum(mu) + 3 (s-1)^2 sum(nu) + 2 / beta^2
    assert rc.eta_bar == pytest.approx(0.36 + 1.08 + 2.0, abs=1e-12)
    assert rc.delta == pytest.approx(9.87, abs=1e-12)


def test_rate_constants_positive_and_orthonormal_mu(catalog):
    for bundle in catalog:
        cfg = g.default_config(bundle.problem)
        rc = g.rate_constants(bundle.problem, cfg)
        assert all(v > 0 for v in rc.mu_tilde + rc.nu_tilde + rc.theta_bar + rc.vartheta_bar)
        assert rc.eta_bar > 0
        assert rc.delta == max(max(rc.theta_bar), max(rc.vartheta_bar), rc.eta_bar)


def test_eta_bar_blows_up_as_beta_vanishes(qp1_bundle):
    small = g.rate_constants(qp1_bundle.problem, SolverConfig(beta=1e-4, sigma1=0.5, sigma2=0.5))
    assert small.eta_bar >= 2.0 / 1e-8


# ---------------------------------------------------------------------------
# Error-bound inequality and the linear-rate fit
# ---------------------------------------------------------------------------

def test_error_bound_pointwise_on_qp1(qp1_run):
    bundle, cfg, mats, trace = qp1_run
    ok, worst = diagnostics.error_bound_check(bundle.problem, mats, trace,
                                           g.rate_constants(bundle.problem, cfg))
    assert ok
    assert worst <= 1.0


def test_linear_rate_fit_on_piecewise_linear_instances(linear_rate_runs):
    for bundle, cfg, mats, trace in linear_rate_runs:
        rc = g.rate_constants(bundle.problem, cfg)
        report = g.linear_rate_check(mats, trace, bundle.w_star, rc)
        assert 0.0 < report.r_hat <= 0.999, bundle.name
        assert report.envelope_ok, bundle.name
        assert report.error_bound_ok, bundle.name
        assert report.linear_ratio_fit < 0.0


def test_linear_rate_insufficient_trace_on_fixed_point(qp1_bundle):
    problem, w_star = qp1_bundle.problem, qp1_bundle.w_star
    cfg = g.default_config(problem, max_iters=100, tol=1e-10)
    mats = g.assemble(problem, cfg)
    trace = g.solve(problem, cfg, w0=w_star, w_star=w_star, mats=mats)
    with pytest.raises(g.InsufficientTrace):
        g.linear_rate_check(mats, trace, w_star, g.rate_constants(problem, cfg))


def test_linear_rate_requires_twenty_records(qp1_bundle):
    problem, w_star = qp1_bundle.problem, qp1_bundle.w_star
    cfg = g.default_config(problem, max_iters=10, tol=-1.0)
    mats = g.assemble(problem, cfg)
    trace = g.solve(problem, cfg, w_star=w_star, mats=mats)
    with pytest.raises(g.InsufficientTrace):
        g.linear_rate_check(mats, trace, w_star, g.rate_constants(problem, cfg))
