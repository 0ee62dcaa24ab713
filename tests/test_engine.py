import dataclasses

import numpy as np
import pytest

import gsadmm as g
from gsadmm import engine, oracles
from gsadmm.model import Block, BlockProblem, Free, Iterate, Quadratic, SolverConfig
from gridsearch import reference_prox_solve
import reference_verdict
from reference_verdict import feasibility_decomposition_error, residual, step


@pytest.fixture()
def qp1(qp1_bundle):
    cfg = g.default_config(qp1_bundle.problem)
    return qp1_bundle.problem, cfg, qp1_bundle.w_star


# ---------------------------------------------------------------------------
# Hand-checked first step of the 1x1 quadratic instance
# ---------------------------------------------------------------------------

def test_first_step_hand_values(qp1):
    problem, cfg, _ = qp1
    w0 = Iterate.zeros(problem)
    nxt, rec = step(problem, cfg, w0)
    assert nxt.x[0] == pytest.approx([2.0 / 7.0], abs=1e-15)
    assert rec.w_tilde.lam == pytest.approx([5.0 / 7.0], abs=1e-15)
    # lambda_half = lambda - tau (lambda - lambda~)
    lam_half = w0.lam - cfg.tau * (w0.lam - rec.w_tilde.lam)
    assert lam_half == pytest.approx([3.0 / 14.0], abs=1e-15)
    assert nxt.y[0] == pytest.approx([13.0 / 49.0], abs=1e-15)
    assert nxt.lam == pytest.approx([19.3 / 49.0], abs=1e-14)
    assert np.array_equal(rec.w_tilde.x[0], nxt.x[0]) and np.array_equal(rec.w_tilde.y[0], nxt.y[0])


def test_step_matches_linear_correction(qp1):
    problem, cfg, _ = qp1
    mats = g.assemble(problem, cfg)
    nxt, rec = step(problem, cfg, Iterate.zeros(problem), mats=mats)
    m_form = Iterate.zeros(problem).stack() - mats.M @ (Iterate.zeros(problem).stack() - rec.w_tilde.stack())
    assert np.allclose(nxt.stack(), m_form, atol=1e-15)
    assert rec.identity_error <= 1e-15
    assert np.allclose(nxt.stack(), [2.0 / 7.0, 13.0 / 49.0, 19.3 / 49.0], atol=1e-14)


def test_half_step_identity_along_run(qp1_run):
    bundle, cfg, _, trace = qp1_run
    nexts = [rec.w for rec in trace.records[1:]] + [trace.w_final]
    for rec, nxt in zip(trace.records, nexts):
        lam, lam_tilde = rec.w.lam, rec.w_tilde.lam
        # undo the full dual update: lambda_half = lambda+ + s beta (A x~ + B y~ - c)
        lam_half = nxt.lam + cfg.s * cfg.beta * residual(bundle.problem, rec.w_tilde.x, rec.w_tilde.y)
        expected = lam - cfg.tau * (lam - lam_tilde)
        assert np.allclose(lam_half, expected, atol=1e-12)


def test_trivial_stepsize_reductions(qp1):
    # tau = 0 leaves lambda_half = lambda, so lambda+ = lambda - s beta (A x+ + B y+ - c);
    # s = 0 leaves lambda+ = lambda_half = lambda - tau beta (A x+ + B y_k - c)
    problem, _, _ = qp1
    w = Iterate((np.array([0.2]),), (np.array([0.1]),), np.array([0.5]))
    cfg0 = SolverConfig(tau=0.0, s=0.4, sigma1=0.5, sigma2=0.5)
    nxt, _ = step(problem, cfg0, w)
    assert np.array_equal(nxt.lam, w.lam - cfg0.s * cfg0.beta * residual(problem, nxt.x, nxt.y))
    cfg_s0 = SolverConfig(tau=0.4, s=0.0, sigma1=0.5, sigma2=0.5)
    nxt, _ = step(problem, cfg_s0, w)
    assert np.array_equal(nxt.lam, w.lam - cfg_s0.tau * cfg_s0.beta * residual(problem, nxt.x, w.y))


def test_prediction_is_multiplier_at_feasible_pair(qp1):
    # from this point the x sweep returns x+ = 0.25, so (x+, y_k) is feasible
    problem, cfg, _ = qp1
    w = Iterate((np.array([0.25]),), (np.array([0.75]),), np.array([0.5]))
    _, rec = step(problem, cfg, w)
    assert np.array_equal(rec.w_tilde.x[0], [0.25])
    assert np.array_equal(rec.w_tilde.lam, w.lam)


def test_prediction_scales_with_beta(qp1):
    # lambda - lambda~ = beta (A x+ + B y_k - c) for every beta
    problem, _, _ = qp1
    w = Iterate((np.array([0.4]),), (np.array([0.0]),), np.array([0.2]))
    for beta in (1.0, 2.0):
        cfg = SolverConfig(beta=beta, sigma1=0.5, sigma2=0.5)
        _, rec = step(problem, cfg, w)
        res = residual(problem, rec.w_tilde.x, w.y)
        assert np.allclose(w.lam - rec.w_tilde.lam, beta * res, atol=1e-15)


def _count_group_products(monkeypatch) -> dict:
    """Counts of `BlockProblem.products` calls by group ("x", "y"), leaving out
    the d vector's products of w~ - w inside `engine.d_components`."""
    calls = {"x": 0, "y": 0}
    in_d = []
    products, d_components = BlockProblem.products, engine.d_components

    def counted_products(self, group, w):
        if not in_d:
            calls["y" if group else "x"] += 1
        return products(self, group, w)

    def uncounted_d(*args):
        in_d.append(True)
        try:
            return d_components(*args)
        finally:
            in_d.pop()
    monkeypatch.setattr(BlockProblem, "products", counted_products)
    monkeypatch.setattr(engine, "d_components", uncounted_d)
    return calls


def test_step_forms_each_group_product_twice(qp1, monkeypatch):
    problem, cfg, w_star = qp1
    mats = g.assemble(problem, cfg)
    kernels = engine.block_kernels(problem, cfg)
    calls = _count_group_products(monkeypatch)
    step(problem, cfg, Iterate.zeros(problem), mats=mats, w_star=w_star, kernels=kernels)
    assert calls == {"x": 2, "y": 2}


def test_solve_forms_each_group_product_once_per_iteration(qp1, monkeypatch):
    # the stacks of A_i x_i and B_j y_j are carried from the previous
    # iteration's x+ and y+; only the start point's are formed before the
    # first iteration, by `Plan.start` with the same per-block product call
    problem, _, w_star = qp1
    cfg = g.default_config(problem, max_iters=7, tol=-1.0)
    mats = g.assemble(problem, cfg)
    calls = _count_group_products(monkeypatch)
    trace = g.solve(problem, cfg, w_star=w_star, mats=mats)
    assert len(trace.records) == 7
    assert calls == {"x": 8, "y": 8}


# ---------------------------------------------------------------------------
# solve against repeated single steps
# ---------------------------------------------------------------------------

def _stepped(problem, cfg, w_star, mats):
    """The solve loop written with the test `step`, which computes each
    H-distance afresh where `solve` carries it: final iterate, records and
    the oracle kernels they shared."""
    kernels = engine.block_kernels(problem, cfg)
    state, records = engine.initial_point(problem), []
    for k in range(cfg.max_iters):
        state, rec = step(problem, cfg, state, mats=mats, w_star=w_star, k=k, kernels=kernels)
        records.append(rec)
        if max(rec.d_inf, rec.feasibility_inf) <= cfg.tol:
            break
    return state, records, kernels


STEPPED_CASES = {
    "qp1": ("qp1", {}),
    "l1": ("l1-p1q2n2-s5", {"max_iters": 300, "tol": -1.0}),
    "boxqp": ("boxqp-p2q1n3-s13", {"max_iters": 300, "tol": 1e-10}),
    "outside-D": ("qp1", {"tau": 1.5, "s": 0.3, "region_policy": "G", "max_iters": 300}),
}


@pytest.mark.parametrize("case", STEPPED_CASES)
def test_solve_bit_identical_to_repeated_steps(case, catalog):
    name, overrides = STEPPED_CASES[case]
    bundle = next(b for b in catalog if b.name == name)
    problem, w_star = bundle.problem, bundle.w_star
    cfg = g.default_config(problem, **overrides)
    mats = g.assemble(problem, cfg)
    trace = g.solve(problem, cfg, w_star=w_star, mats=mats)
    final, records, kernels = _stepped(problem, cfg, w_star, mats)
    assert len(records) == len(trace.predictions) > 0
    assert (trace.termination == engine.CONVERGED) == (len(records) < cfg.max_iters)
    for k, rec in enumerate(records):
        assert rec.w.stack().tobytes() == trace.iterates[k].tobytes(), k
        assert rec.w_tilde.stack().tobytes() == trace.predictions[k].tobytes(), k
        for col in engine.RECORD_SCALARS:
            assert np.float64(getattr(rec, col)).tobytes() == trace.columns[col][k].tobytes(), (col, k)
        residual = max(rec.d_inf, rec.feasibility_inf)
        assert np.float64(residual).tobytes() == trace.columns["residual"][k].tobytes(), k
    assert final.stack().tobytes() == trace.w_final.stack().tobytes() == trace.iterates[-1].tobytes()
    stepped_stats = [dataclasses.astuple(kernel.stats) for group in kernels for kernel in group]
    assert stepped_stats == [dataclasses.astuple(stats) for stats in trace.oracle_stats]


def test_diverging_solve_and_steps_raise_at_same_iteration(qp1):
    problem, _, w_star = qp1
    cfg = SolverConfig(tau=-0.5, s=-0.3, sigma1=0.5, sigma2=0.5, max_iters=5000, tol=-1.0)
    mats = g.assemble(problem, cfg)
    errors = []
    with np.errstate(all="ignore"):
        for run in (lambda: g.solve(problem, cfg, w_star=w_star, mats=mats, validate=False),
                    lambda: _stepped(problem, cfg, w_star, mats)):
            with pytest.raises(engine.NonFiniteIterate) as exc:
                run()
            errors.append(str(exc.value))
    assert errors[0] == errors[1] and errors[0].startswith("non-finite iterate at iteration ")


# ---------------------------------------------------------------------------
# solve against the per-block reference iteration
# ---------------------------------------------------------------------------

def _atlas(tau, s, **overrides):
    bundle = g.gen_quadratic(2, 2, [2, 2], [2, 2], 3, seed=42)
    return bundle, g.default_config(bundle.problem, tau=tau, s=s, region_policy="G", **overrides)


PER_BLOCK_CASES = {
    "qp1": "qp1",
    "p3q2n4-s7": "quadratic-p3q2n4-s7",   # x dims [1, 2, 2], y dims [2, 1]
    "p2q2n3-s42": "quadratic-p2q2n3-s42",
    "l1": "l1-p1q2n2-s5",
    "boxqp": "boxqp-p2q1n3-s13",
    "atlas-D": (0.3, 0.3, {}),
    "atlas-G": (1.2, 0.0, {}),
    "atlas-diverging": (-0.9, -0.3, {"max_iters": 5000, "tol": -1.0}),
}


@pytest.mark.parametrize("case", PER_BLOCK_CASES)
def test_solve_bit_identical_to_per_block_reference(case, catalog, monkeypatch):
    spec = PER_BLOCK_CASES[case]
    if isinstance(spec, str):
        bundle = next(b for b in catalog if b.name == spec)
        cfg = g.default_config(bundle.problem, max_iters=2000, tol=-1.0)
    else:
        bundle, cfg = _atlas(spec[0], spec[1], **spec[2])
    problem, w_star = bundle.problem, bundle.w_star
    mats = g.assemble(problem, cfg)

    def run(reference):
        with monkeypatch.context() as mp:
            if reference:
                mp.setattr(engine, "advance", reference_verdict.advance)
                mp.setattr(engine.Plan, "start", reference_verdict.start)
            with np.errstate(all="ignore"):
                try:
                    return g.solve(problem, cfg, w_star=w_star, mats=mats, validate=False)
                except engine.NonFiniteIterate as exc:
                    return str(exc)

    fast, ref = run(False), run(True)
    if case == "atlas-diverging":
        assert fast == ref and fast.startswith("non-finite iterate at iteration ")
        return
    assert fast.termination == ref.termination
    assert fast.iterates.tobytes() == ref.iterates.tobytes()
    assert fast.predictions.tobytes() == ref.predictions.tobytes()
    assert fast.columns.keys() == ref.columns.keys()
    for name, column in fast.columns.items():
        assert column.tobytes() == ref.columns[name].tobytes(), name
    assert fast.oracle_stats == ref.oracle_stats


# ---------------------------------------------------------------------------
# Fixed points and group snapshots
# ---------------------------------------------------------------------------

def test_fixed_point_stays(qp1):
    problem, cfg, w_star = qp1
    nxt, rec = step(problem, cfg, w_star)
    assert np.allclose(nxt.stack(), w_star.stack(), atol=1e-14)
    assert rec.feasibility <= 1e-14
    assert rec.d_norm_sq <= 1e-28
    assert rec.correction_residual <= 1e-28


def test_group_update_reads_snapshot_only():
    rng = np.random.default_rng(21)
    blocks = []
    for _ in range(3):
        gauss = rng.standard_normal((3, 2))
        u, _ = np.linalg.qr(gauss)
        blocks.append(Block(Quadratic(np.eye(2), rng.standard_normal(2)), u, Free()))
    problem = BlockProblem(tuple(blocks), (Block(Quadratic([[2.0]], [0.0]), np.ones((3, 1)) / np.sqrt(3), Free()),), rng.standard_normal(3))
    perm_problem = BlockProblem((blocks[2], blocks[0], blocks[1]), problem.y_blocks, problem.c)
    cfg = SolverConfig(sigma1=problem.p - 1 + 0.5, sigma2=0.5)
    w = Iterate(tuple(rng.standard_normal(2) for _ in range(3)), (rng.standard_normal(1),), rng.standard_normal(3))
    w_perm = Iterate((w.x[2], w.x[0], w.x[1]), w.y, w.lam)

    def x_sweep(prob, state):
        kernels = engine.block_kernels(prob, cfg)[0]
        wk, out = state.stack(), np.zeros(prob.total_dim)
        base = prob.c - reference_verdict.apply_B(prob, wk) + state.lam / cfg.beta
        steps = oracles.sweep_steps(prob.batches[0], kernels)
        engine.group_sweep(steps, prob.products(0, wk), reference_verdict.apply_A(prob, wk), base, cfg.sigma1, out)
        return [out[sl] for sl in prob.block_slices[:prob.p]]

    out = x_sweep(problem, w)
    out_perm = x_sweep(perm_problem, w_perm)
    for i, j in ((0, 1), (1, 2), (2, 0)):
        assert np.max(np.abs(out[i] - out_perm[j])) <= 1e-14 * (1 + np.max(np.abs(out[i])))


def test_feasibility_decomposition_along_run(qp1_run):
    bundle, cfg, _, trace = qp1_run
    for rec in trace.records:
        err = feasibility_decomposition_error(bundle.problem, cfg, rec)
        assert err <= 1e-10


# ---------------------------------------------------------------------------
# Driver loop
# ---------------------------------------------------------------------------

def test_solve_qp1_converges(qp1_run):
    bundle, _, _, trace = qp1_run
    assert trace.termination == engine.CONVERGED
    assert len(trace.records) <= 500
    assert np.allclose(trace.w_final.stack(), [0.5, 0.5, 1.0], atol=1e-8)
    assert trace.records[-1].dist_H <= 1e-8


def test_solve_zero_iteration_cap(qp1):
    problem, cfg, _ = qp1
    trace = g.solve(problem, SolverConfig(sigma1=0.5, sigma2=0.5, max_iters=0))
    assert trace.termination == engine.ITERATION_CAP
    assert trace.records == []
    assert np.array_equal(trace.w_final.stack(), np.zeros(3))


def test_solve_infinite_tolerance_stops_after_one_step(qp1):
    problem, _, _ = qp1
    trace = g.solve(problem, SolverConfig(sigma1=0.5, sigma2=0.5, tol=np.inf))
    assert trace.termination == engine.CONVERGED
    assert len(trace.records) == 1


def test_solve_negative_tolerance_runs_to_cap(qp1):
    problem, _, _ = qp1
    trace = g.solve(problem, SolverConfig(sigma1=0.5, sigma2=0.5, tol=-1.0, max_iters=40))
    assert trace.termination == engine.ITERATION_CAP
    assert len(trace.records) == 40


def test_solve_validates_inputs(qp1):
    problem, _, _ = qp1
    with pytest.raises(ValueError):
        g.solve(problem, SolverConfig(sigma1=-0.5, sigma2=0.5))
    with pytest.raises(ValueError):
        g.solve(problem, SolverConfig(sigma1=0.5, sigma2=0.5, tau=1.5, s=0.3))


def test_solve_projects_initial_point():
    bundle = g.generators.boxqp_1d()
    w0 = Iterate((np.array([9.0]),), (np.array([0.0]),), np.array([0.0]))
    trace = g.solve(bundle.problem, g.default_config(bundle.problem, max_iters=1, tol=-1.0), w0=w0)
    assert trace.records[0].w.x[0][0] == 0.3  # clamped into [0, 0.3]


def test_non_finite_iterate_raises(qp1):
    # negative dual stepsizes push the multiplier the wrong way; the iterates
    # blow up and the overflow is caught rather than silently propagated
    problem, _, _ = qp1
    cfg = SolverConfig(tau=-0.5, s=-0.3, sigma1=0.5, sigma2=0.5, max_iters=5000, tol=-1.0)
    with pytest.raises(engine.NonFiniteIterate), np.errstate(all="ignore"):
        g.solve(problem, cfg, validate=False)


def test_identity_error_bound_on_catalog(catalog_runs):
    for bundle, cfg, mats, trace in catalog_runs["runs"]:
        for rec in trace.records:
            bound = 1e-10 * (1.0 + float(np.linalg.norm(rec.w.stack())))
            assert rec.identity_error <= bound, bundle.name


def _box_bundles():
    catalog = [b for b in g.standard_catalog() if b.name.startswith("boxqp")]
    return catalog + [g.gen_box_qp(1, 1, [5], [3], 5, seed=seed) for seed in (1, 2, 3)]


@pytest.mark.parametrize("bundle", _box_bundles(), ids=lambda b: b.name)
def test_solve_bit_identical_to_reference_oracle(bundle, monkeypatch):
    cfg = g.default_config(bundle.problem, max_iters=2000, tol=1e-10)
    mats = g.assemble(bundle.problem, cfg)
    fast = g.solve(bundle.problem, cfg, w_star=bundle.w_star, mats=mats)
    monkeypatch.setattr(engine, "prox_solve", reference_prox_solve)
    ref = g.solve(bundle.problem, cfg, w_star=bundle.w_star, mats=mats)
    assert len(fast.records) == len(ref.records)
    assert fast.termination == ref.termination
    for a, b in zip(fast.records, ref.records):
        for w_a, w_b in ((a.w, b.w), (a.w_tilde, b.w_tilde)):
            assert w_a.stack().tobytes() == w_b.stack().tobytes(), a.k
        for name in ("identity_error", "dist_H", "contraction_slack", "d_inf"):
            assert np.float64(getattr(a, name)).tobytes() == np.float64(getattr(b, name)).tobytes(), (name, a.k)
    assert fast.w_final.stack().tobytes() == ref.w_final.stack().tobytes()
    box = [s for s in fast.oracle_stats if s.set == "box"]
    assert box and all(s.calls == len(fast.records) for s in box)
