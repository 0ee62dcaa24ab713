"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute.
"""
import time

import numpy as np

import gsadmm as g
from gsadmm import diagnostics, generators, structure
from gsadmm.model import SolverConfig
from gridsearch import FAMILIES, brute_force_min, random_query, solve_query
from reference_verdict import feasibility_decomposition_error


def _gate(name: str, ok: bool, detail: str = ""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. Golden structural fixture
# ---------------------------------------------------------------------------

def test_criterion_01_golden_structural_fixture(qp1_bundle):
    problem = qp1_bundle.problem
    cfg = SolverConfig(beta=1.0, tau=0.3, s=0.4, sigma1=0.5, sigma2=0.5)
    elapsed = min(
        _timed_assemble(problem, cfg) for _ in range(5)
    )
    mats = g.assemble(problem, cfg)
    expected = {
        "Qtilde": np.array([[1.5, -0.3], [-1.0, 1.0]]),
        "M": np.array([[1.0, 0, 0], [0, 1.0, 0], [0, -0.4, 0.7]]),
        "G": np.array([[0.5, 0, 0], [0, 1.1, -0.6], [0, -0.6, 1.3]]),
        "H": np.array([[0.5, 0, 0], [0, 93 / 70, -3 / 7], [0, -3 / 7, 10 / 7]]),
    }
    worst = max(float(np.abs(getattr(mats, name) - want).max())
                for name, want in expected.items())
    _gate("C1 golden-structural-fixture", worst <= 1e-12 and elapsed < 1e-3,
          f"max abs error {worst:.2e}, assembly {elapsed * 1e6:.0f} us")


def _timed_assemble(problem, cfg):
    t0 = time.perf_counter()
    g.assemble(problem, cfg)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# 2. Region / positive-definiteness certification
# ---------------------------------------------------------------------------

def test_criterion_02_region_pd_certification():
    t0 = time.perf_counter()
    shapes = [(1, 1, [2], [2], 2), (2, 1, [2, 1], [3], 3), (1, 2, [3], [2, 2], 3),
              (3, 3, [2, 1, 2], [1, 2, 1], 4), (2, 2, [3, 3], [4, 2], 4)]
    taus = np.linspace(-0.45, 0.95, 10)
    ss = np.linspace(0.5, 0.95, 10)
    ok = True
    detail = ""
    for idx in range(20):
        p, q, xd, yd, n = shapes[idx % len(shapes)]
        bundle = generators.gen_quadratic(p, q, xd, yd, n, seed=100 + idx)
        base = dict(beta=1.0, sigma1=p - 1 + 0.5, sigma2=q - 1 + 0.5)
        for tau in taus:
            for s in ss:
                mats = g.assemble(bundle.problem, SolverConfig(tau=float(tau), s=float(s), **base))
                if not (structure.is_positive_definite(mats.G)
                        and structure.is_positive_definite(mats.H)):
                    ok = False
                    detail = f"{bundle.name} not PD at ({tau:.2f}, {s:.2f})"
        for tau, s in ((1.5, 0.3), (0.3, 1.5)):
            mats = g.assemble(bundle.problem, SolverConfig(tau=tau, s=s, **base))
            if not mats.lambda_min_G < 0:
                ok = False
                detail = f"{bundle.name} unexpectedly PD at witness ({tau}, {s})"
    elapsed = time.perf_counter() - t0
    _gate("C2 region-pd-certification", ok and elapsed < 10.0,
          detail or f"2000 grid points + 40 witnesses in {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 3. Prediction-correction identity
# ---------------------------------------------------------------------------

def test_criterion_03_prediction_correction_identity(catalog_runs):
    runs = catalog_runs["runs"]
    total_iters = sum(len(trace.records) for _, _, _, trace in runs)
    worst = 0.0
    for bundle, _, _, trace in runs:
        for rec in trace.records:
            margin = rec.identity_error / (1e-10 * (1.0 + float(np.linalg.norm(rec.w.stack()))))
            worst = max(worst, margin)
    ok = len(runs) >= 10 and total_iters >= 10 * 2000 and worst <= 1.0
    ok = ok and catalog_runs["elapsed"] < 60.0
    _gate("C3 prediction-correction-identity", ok,
          f"{len(runs)} instances x 2000 iters, worst ratio {worst:.2e}, "
          f"solve time {catalog_runs['elapsed']:.1f} s")


# ---------------------------------------------------------------------------
# 4. Contraction
# ---------------------------------------------------------------------------

def test_criterion_04_contraction(catalog_runs):
    worst = -np.inf
    ok = True
    for bundle, _, _, trace in catalog_runs["runs"]:
        for rec in trace.records:
            bound = -1e-8 * (1.0 + rec.dist_H ** 2)
            if not rec.contraction_slack >= bound:
                ok = False
            worst = max(worst, -rec.contraction_slack)
    _gate("C4 contraction", ok, f"most negative slack {-worst:.2e}")


# ---------------------------------------------------------------------------
# 5. Nonergodic rate
# ---------------------------------------------------------------------------

def test_criterion_05_nonergodic_rate(catalog_runs):
    ok = True
    detail = ""
    for bundle, _, mats, trace in catalog_runs["runs"]:
        report = g.nonergodic_check(mats, trace, bundle.w_star)
        if not (report.monotone_ok and report.xi_bound_ok):
            ok = False
            detail = f"{bundle.name}: monotone={report.monotone_ok} xi={report.xi_bound_ok}"
    _gate("C5 nonergodic-rate", ok, detail or "monotone and xi-bound hold on all runs")


# ---------------------------------------------------------------------------
# 6. Pointwise residual bounds + feasibility decomposition
# ---------------------------------------------------------------------------

def test_criterion_06_pointwise_residual_bounds(catalog_runs):
    ok = True
    detail = ""
    worst_fd = 0.0
    for bundle, cfg, _, trace in catalog_runs["runs"]:
        report = g.pointwise_residual_check(bundle.problem, cfg, trace)
        if not report.theta_hat_ok:
            ok = False
            detail = f"{bundle.name}: theta-hat bound violated"
        for rec in trace.records:
            err = feasibility_decomposition_error(bundle.problem, cfg, rec)
            worst_fd = max(worst_fd, err)
            if err > 1e-10:
                ok = False
                detail = f"{bundle.name}: decomposition error {err:.2e}"
    _gate("C6 pointwise-residual-bounds", ok,
          detail or f"worst decomposition error {worst_fd:.2e}")


# ---------------------------------------------------------------------------
# 7. Projection-residual inequality
# ---------------------------------------------------------------------------

def test_criterion_07_projection_residual_inequality(catalog_runs):
    ok = True
    worst = 0.0
    detail = ""
    for bundle, cfg, mats, trace in catalog_runs["runs"]:
        constants = g.rate_constants(bundle.problem, cfg)
        passed, ratio = diagnostics.error_bound_check(bundle.problem, mats, trace, constants)
        worst = max(worst, ratio)
        if not passed:
            ok = False
            detail = f"{bundle.name} violates the bound"
    _gate("C7 projection-residual-inequality", ok,
          detail or f"worst left/right ratio {worst:.3f}")


# ---------------------------------------------------------------------------
# 8. R-linear convergence
# ---------------------------------------------------------------------------

def test_criterion_08_r_linear_convergence(linear_rate_runs):
    ok = True
    details = []
    for bundle, cfg, mats, trace in linear_rate_runs:
        final_dist = mats.dist_H(trace.w_final.stack(), bundle.w_star.stack())
        report = g.linear_rate_check(mats, trace, bundle.w_star,
                                     g.rate_constants(bundle.problem, cfg))
        good = (len(trace.records) <= 5000 and final_dist <= 1e-8
                and 0.0 < report.r_hat <= 0.999 and report.envelope_ok)
        ok = ok and good
        details.append(f"{bundle.name}: r_hat={report.r_hat:.3f} dist={final_dist:.1e}")
    _gate("C8 r-linear-convergence", ok and len(linear_rate_runs) >= 2, "; ".join(details))


# ---------------------------------------------------------------------------
# 9. Oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_09_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    ok = True
    for family in FAMILIES:
        for _ in range(100):
            query = random_query(family, rng)
            z = solve_query(query)
            _, f_ref = brute_force_min(query)
            gap = abs(query.value(z) - f_ref)
            worst = max(worst, gap)
            if gap > 1e-8:
                ok = False
    elapsed = time.perf_counter() - t0
    _gate("C9 oracle-equivalence", ok and elapsed < 30.0,
          f"{len(FAMILIES)} families x 100 queries, worst objective gap {worst:.2e}, "
          f"{elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 10. Fixed-point anchor
# ---------------------------------------------------------------------------

def test_criterion_10_fixed_point_anchor(catalog):
    worst = 0.0
    ok = True
    detail = ""
    for bundle in catalog:
        cfg = generators.default_config(bundle.problem, max_iters=100, tol=-1.0)
        trace = g.solve(bundle.problem, cfg, w0=bundle.w_star, w_star=bundle.w_star)
        for rec in trace.records:
            residual = max(rec.feasibility, np.sqrt(rec.d_norm_sq),
                           rec.identity_error, np.sqrt(max(rec.correction_residual, 0.0)))
            worst = max(worst, residual)
            if residual > 1e-12:
                ok = False
                detail = f"{bundle.name} drifts to {residual:.2e}"
    _gate("C10 fixed-point-anchor", ok, detail or f"max residual {worst:.2e}")
