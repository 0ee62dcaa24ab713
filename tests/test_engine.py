import dataclasses
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import gsadmm as g
from gsadmm import engine, oracles
from gsadmm.harness import io
from gsadmm.harness.cli import main
from gsadmm.model import Block, BlockProblem, Box, Free, Iterate, Quadratic, SolverConfig, matvecs, rows_dot
from gridsearch import kkt_ok, reference_prox_solve
import reference_verdict
from reference_verdict import feasibility_decomposition_error, residual, step

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import contract  # noqa: E402


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
    the products inside `engine.d_components`, and of `engine.d_components`
    calls ("d")."""
    calls = {"x": 0, "y": 0, "d": 0}
    in_d = []
    products, d_components = BlockProblem.products, engine.d_components

    def counted_products(self, group, w):
        if not in_d:
            calls["y" if group else "x"] += 1
        return products(self, group, w)

    def uncounted_d(*args):
        calls["d"] += 1
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
    calls = _count_group_products(monkeypatch)
    step(problem, cfg, Iterate.zeros(problem), mats=mats, w_star=w_star)
    assert calls == {"x": 2, "y": 2, "d": 1}


def test_solve_forms_each_group_product_twice_per_iteration(catalog, monkeypatch):
    # a sweep iteration forms the stacks of A_i x_i and B_j y_j of w_k and of
    # w_{k+1} from their rows, and carries nothing; d is one matrix, formed
    # by a single `d_components` call per solve
    bundle = next(b for b in catalog if b.name == "l1-p1q2n2-s5")
    cfg = g.default_config(bundle.problem, max_iters=7, tol=-1.0)
    mats = g.assemble(bundle.problem, cfg)
    calls = _count_group_products(monkeypatch)
    _sweep_only(monkeypatch)
    trace = g.solve(bundle.problem, cfg, w_star=bundle.w_star, mats=mats)
    assert len(trace.records) == 7 and trace.step_path == "sweep"
    assert calls == {"x": 14, "y": 14, "d": 1}


@pytest.mark.parametrize("iterations", [7, 14])
def test_affine_solve_forms_no_group_product_or_prox_per_iteration(catalog, monkeypatch, iterations):
    # on an all-free-quadratic instance an iteration is one stacked
    # matrix-vector product: no group product, no oracle call; each kernel
    # still counts one call per iteration
    bundle = next(b for b in catalog if b.name == "quadratic-p3q2n4-s7")
    cfg = g.default_config(bundle.problem, max_iters=iterations, tol=-1.0)
    mats = g.assemble(bundle.problem, cfg)
    calls = _count_group_products(monkeypatch)
    prox_calls = []
    prox_solve = engine.prox_solve
    monkeypatch.setattr(engine, "prox_solve", lambda *args: prox_calls.append(1) or prox_solve(*args))
    trace = g.solve(bundle.problem, cfg, w_star=bundle.w_star, mats=mats)
    assert len(trace.records) == iterations and trace.step_path == "affine"
    assert calls == {"x": 0, "y": 0, "d": 1} and prox_calls == []
    assert [s.calls for s in trace.oracle_stats] == [iterations] * 5


# ---------------------------------------------------------------------------
# solve against repeated single steps
# ---------------------------------------------------------------------------

def _contract_record(trace, mats, w_star, enumerations=True):
    """The equivalence contract's record of a trace (tools/contract.py);
    without the enumeration counters (`patterns`, `loose`) of
    each block when enumerations is False, for a run on the piecewise step,
    which enumerates only on its sweep iterations."""
    record = {**contract.run_record(trace, w_star),
              **contract.verdict_record(trace.problem, trace.config, mats, trace, w_star)}
    if not enumerations:
        record["oracle"] = [counters[:1] for counters in record["oracle"]]
    return record


def _assert_piecewise_contract(piecewise, sweep, mats, w_star):
    """A run on the piecewise step keeps the equivalence contract with the
    same run forced onto the sweep: every contract rule, the same oracle
    calls, and no more enumerated patterns."""
    assert piecewise.affine_iters > 0 and sweep.affine_iters == 0
    assert contract.violations(_contract_record(piecewise, mats, w_star, enumerations=False),
                               _contract_record(sweep, mats, w_star, enumerations=False)) == []
    for fast, ref in zip(piecewise.oracle_stats, sweep.oracle_stats):
        assert fast.calls == ref.calls and fast.patterns <= ref.patterns


def _free_block(blk) -> bool:
    return isinstance(blk.objective, Quadratic) and isinstance(blk.set, Free)


def _all_free(problem) -> bool:
    """Whether every block is free-quadratic: the instance has no patterned
    kernel, and its empty pattern holds from the first iteration."""
    return all(map(_free_block, problem.x_blocks + problem.y_blocks))


def _stepped(problem, cfg, w_star, mats):
    """The solve loop written with the test `step`, which computes each
    H-distance afresh and always sweeps: final iterate, records and the
    oracle kernels they shared."""
    plan = engine.Plan(problem, cfg, mats, w_star)
    state, records = engine.initial_point(problem), []
    for k in range(cfg.max_iters):
        state, rec = step(problem, cfg, state, mats=mats, w_star=w_star, k=k, plan=plan)
        records.append(rec)
        if max(rec.d_inf, rec.feasibility_inf) <= cfg.tol:
            break
    return state, records, plan.kernels


def _stepped_trace(problem, cfg, final, records, kernels) -> engine.Trace:
    """The stepped run as a Trace."""
    columns = {col: np.array([getattr(rec, col) for rec in records]) for col in engine.RECORD_SCALARS}
    columns["residual"] = np.array([max(rec.d_inf, rec.feasibility_inf) for rec in records])
    return engine.Trace(
        problem, cfg, engine.CONVERGED if len(records) < cfg.max_iters else engine.ITERATION_CAP,
        tuple(kernel.stats for group in kernels for kernel in group),
        np.array([rec.w.stack() for rec in records] + [final.stack()]),
        np.array([rec.w_tilde.stack() for rec in records]), columns)


STEPPED_CASES = {
    "qp1": ("qp1", {}),
    "l1": ("l1-p1q2n2-s5", {"max_iters": 300, "tol": -1.0}),
    "boxqp": ("boxqp-p2q1n3-s13", {"max_iters": 300, "tol": 1e-10}),
    "outside-D": ("qp1", {"tau": 1.5, "s": 0.3, "region_policy": "G", "max_iters": 300}),
}


@pytest.mark.parametrize("case", STEPPED_CASES)
def test_solve_bit_identical_to_repeated_steps(case, catalog, monkeypatch):
    # `step` always sweeps. Forced onto the sweep, the solve must match it
    # bit for bit; on the affine step, which rounds differently, it must keep
    # the equivalence contract (an all-free instance steps on the affine map
    # from the first iteration, an l1 or box one once its pattern has held)
    name, overrides = STEPPED_CASES[case]
    bundle = next(b for b in catalog if b.name == name)
    problem, w_star = bundle.problem, bundle.w_star
    cfg = g.default_config(problem, **overrides)
    mats = g.assemble(problem, cfg)
    trace = g.solve(problem, cfg, w_star=w_star, mats=mats)
    final, records, kernels = _stepped(problem, cfg, w_star, mats)
    assert len(records) == len(trace.predictions) > 0
    assert (trace.termination == engine.CONVERGED) == (len(records) < cfg.max_iters)
    stepped = _stepped_trace(problem, cfg, final, records, kernels)
    assert trace.step_path == "affine"
    if _all_free(problem):
        stepped_stats = [dataclasses.astuple(kernel.stats) for group in kernels for kernel in group]
        assert stepped_stats == [dataclasses.astuple(stats) for stats in trace.oracle_stats]
        assert contract.violations(_contract_record(trace, mats, w_star),
                                   _contract_record(stepped, mats, w_star)) == []
        return
    _assert_piecewise_contract(trace, stepped, mats, w_star)
    _sweep_only(monkeypatch)
    trace = g.solve(problem, cfg, w_star=w_star, mats=mats)
    assert trace.step_path == "sweep"
    stepped_stats = [dataclasses.astuple(kernel.stats) for group in kernels for kernel in group]
    assert stepped_stats == [dataclasses.astuple(stats) for stats in trace.oracle_stats]
    for k, rec in enumerate(records):
        assert rec.w.stack().tobytes() == trace.iterates[k].tobytes(), k
        assert rec.w_tilde.stack().tobytes() == trace.predictions[k].tobytes(), k
        for col in engine.RECORD_SCALARS:
            assert np.float64(getattr(rec, col)).tobytes() == trace.columns[col][k].tobytes(), (col, k)
        residual = max(rec.d_inf, rec.feasibility_inf)
        assert np.float64(residual).tobytes() == trace.columns["residual"][k].tobytes(), k
    assert final.stack().tobytes() == trace.w_final.stack().tobytes() == trace.iterates[-1].tobytes()


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


def test_diverging_affine_solve_hands_over_to_sweep(qp1):
    # past 1e300 the affine solve goes on by the sweep, which counts its own
    # oracle calls from there
    problem, _, _ = qp1
    cfg = SolverConfig(tau=-0.5, s=-0.3, sigma1=0.5, sigma2=0.5, max_iters=2085, tol=-1.0)
    with np.errstate(all="ignore"):
        trace = g.solve(problem, cfg, validate=False)
    assert trace.step_path == "affine"
    assert trace.step_fallback.startswith("iterate past 1e+300 at iteration ")
    assert np.isfinite(trace.iterates).all() and np.abs(trace.iterates[-1]).max() > 1e300
    assert [s.calls for s in trace.oracle_stats] == [2085, 2085]


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


def _sweep_only(mp):
    """Make every solve step on the sweep: no pattern gets a step operator,
    the empty pattern of an all-free instance included."""
    mp.setattr(engine.Plan, "operator", lambda plan, patterns: None)
    mp.setattr(engine.Plan, "pattern", lambda plan, row: ())  # not read without an operator


@pytest.mark.parametrize("case", PER_BLOCK_CASES)
def test_solve_bit_identical_to_per_block_reference(case, catalog, monkeypatch):
    # the reference always sweeps; the engine must match it bit for bit on
    # the sweep, and keep the equivalence contract on the affine step
    spec = PER_BLOCK_CASES[case]
    if isinstance(spec, str):
        bundle = next(b for b in catalog if b.name == spec)
        cfg = g.default_config(bundle.problem, max_iters=2000, tol=-1.0)
    else:
        bundle, cfg = _atlas(spec[0], spec[1], **spec[2])
    problem, w_star = bundle.problem, bundle.w_star
    mats = g.assemble(problem, cfg)

    def run(reference, sweep_only=False):
        with monkeypatch.context() as mp:
            if reference:
                mp.setattr(engine, "advance", reference_verdict.advance)
            if reference or sweep_only:
                _sweep_only(mp)
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
    assert ref.step_path == "sweep" and fast.step_path == "affine"
    if _all_free(problem):
        assert fast.oracle_stats == ref.oracle_stats
        assert contract.violations(_contract_record(fast, mats, w_star), _contract_record(ref, mats, w_star)) == []
        return
    # an l1 or box instance: the piecewise step under the contract, the sweep bit for bit
    _assert_piecewise_contract(fast, ref, mats, w_star)
    fast = run(False, sweep_only=True)
    assert fast.oracle_stats == ref.oracle_stats
    assert fast.step_path == "sweep"
    assert fast.iterates.tobytes() == ref.iterates.tobytes()
    assert fast.predictions.tobytes() == ref.predictions.tobytes()
    assert fast.columns.keys() == ref.columns.keys()
    for name, column in fast.columns.items():
        assert column.tobytes() == ref.columns[name].tobytes(), name


# ---------------------------------------------------------------------------
# One d matrix for both steps
# ---------------------------------------------------------------------------

def _box_enum(seed):
    return g.gen_box_qp(1, 1, [5], [3], 5, seed=seed)


def test_every_row_d_is_the_plan_matrix_product(catalog):
    # sweep and affine rows alike, d_k is `Plan.D @ (w~_k - w_k)` of the
    # stored rows, so both steps give the same bits for the same difference
    bundles = [(b.name, b) for b in catalog] + [(f"box-enum-{seed}", _box_enum(seed)) for seed in (1, 2, 3, 9)]
    mixed = 0
    for name, b in bundles:
        cfg = g.default_config(b.problem, max_iters=2000, tol=1e-10)
        mats = g.assemble(b.problem, cfg)
        trace = g.solve(b.problem, cfg, w_star=b.w_star, mats=mats)
        plan = engine.Plan(b.problem, cfg, mats, None)
        d = matvecs(plan.D, trace.predictions - trace.iterates[:-1])
        assert trace.columns["d_norm_sq"].tobytes() == rows_dot(d).tobytes(), name
        assert trace.columns["d_inf"].tobytes() == np.abs(d).max(axis=1).tobytes(), name
        mixed += 0 < trace.affine_iters < len(trace.predictions)
    assert mixed >= 4  # runs that take both steps, on the l1 and box instances


def test_plan_D_columns_are_the_per_block_d(catalog):
    # column k of the one d matrix has the bits of the per-block d formula
    # on the k-th unit vector
    p3 = next(b for b in catalog if b.name == "quadratic-p3q2n4-s7").problem
    problems = [(b.name, b.problem) for b in catalog]
    problems += [(f"box-enum-{seed}", _box_enum(seed).problem) for seed in (1, 2, 3, 9)]
    cases = [(name, problem, g.default_config(problem)) for name, problem in problems]
    for case in ("atlas-D", "atlas-G", "atlas-diverging"):
        tau, s, overrides = PER_BLOCK_CASES[case]
        bundle, cfg = _atlas(tau, s, **overrides)
        cases.append((case, bundle.problem, cfg))
    cases.append(("p3q2n4-s7-sigma", p3, g.default_config(p3, sigma1=3.0, sigma2=2.0)))
    assert len(cases) == 21
    for name, problem, cfg in cases:
        plan = engine.Plan(problem, cfg, g.assemble(problem, cfg), None)
        assert plan.D.shape == (plan.m, plan.N), name
        for k, unit in enumerate(np.eye(plan.N)):
            ref = reference_verdict.d_components(problem, cfg, unit)
            assert plan.D[:, k].tobytes() == ref.tobytes(), (name, k)


def test_record_scalars_are_the_record_fields_in_order():
    # `Records` builds each record from the columns in this order, and the
    # engine writes each column by its name
    assert engine.RECORD_SCALARS == tuple(f.name for f in dataclasses.fields(engine.IterationRecord))[3:]


def test_records_build_one_record_per_access(qp1_run, monkeypatch):
    # `len(trace.records)` builds no record, so callers may take it on long
    # runs inside timed code; indexing builds exactly the record it returns
    built = []
    record = engine.IterationRecord
    monkeypatch.setattr(engine, "IterationRecord", lambda *args: built.append(args[0]) or record(*args))
    trace = qp1_run[3]
    assert len(trace.records) == len(trace.predictions) > 3 and built == []
    assert trace.records[3].k == 3 and built == [3]


# ---------------------------------------------------------------------------
# solve against the per-row reference: batched certification, bit for bit
# ---------------------------------------------------------------------------

def _assert_same_run(fast, ref):
    """Two solves, or the errors they raised, are the same bit for bit."""
    if isinstance(ref, Exception):
        assert type(fast) is type(ref) and str(fast) == str(ref)
        return
    assert not isinstance(fast, Exception), fast
    assert (fast.termination, fast.step_path, fast.step_fallback) == (ref.termination, ref.step_path, ref.step_fallback)
    assert (fast.pattern_misses, len(fast.operators)) == (ref.pattern_misses, len(ref.operators))
    assert fast.affine_rows.tobytes() == ref.affine_rows.tobytes()
    assert fast.oracle_stats == ref.oracle_stats
    assert fast.iterates.tobytes() == ref.iterates.tobytes()
    assert fast.predictions.tobytes() == ref.predictions.tobytes()
    assert fast.columns.keys() == ref.columns.keys()
    for name, column in fast.columns.items():
        assert column.tobytes() == ref.columns[name].tobytes(), name


def _against_per_row(problem, cfg, w_star, w0=None, **errstate):
    """engine.solve and `reference_verdict.solve` of one instance under one
    errstate (all ignored by default), each its trace or the error it raised."""
    mats = g.assemble(problem, cfg)
    runs = []
    for run in (lambda: g.solve(problem, cfg, w0=w0, w_star=w_star, mats=mats, validate=False),
                lambda: reference_verdict.solve(problem, cfg, mats, w0=w0, w_star=w_star)):
        with np.errstate(**(errstate or {"all": "ignore"})):
            try:
                runs.append(run())
            except (engine.NonFiniteIterate, FloatingPointError) as exc:
                runs.append(exc)
    return runs


ALL_FREE = ("qp1", "quadratic-p1q1n2-s3", "quadratic-p2q1n3-s5", "quadratic-p2q2n3-s42",
            "quadratic-p3q2n4-s7", "quadratic-p1q3n4-s11")
# (catalog instance, config overrides, whether the run knows w*)
PER_ROW_CASES = {
    **{f"{name}-forced": (name, {"max_iters": 2000, "tol": -1.0}, True) for name in ALL_FREE},
    **{f"{name}-tol": (name, {"tol": 1e-10}, True) for name in ALL_FREE},  # stops mid-chunk
    "l1": ("l1-p1q2n2-s5", {"max_iters": 300, "tol": -1.0}, True),
    "l1-tol": ("l1-p1q2n2-s5", {"tol": 1e-10}, True),
    "boxqp-tol": ("boxqp-p2q1n3-s13", {"max_iters": 2000, "tol": 1e-10}, True),
    "no-w-star": ("quadratic-p2q2n3-s42", {"max_iters": 300, "tol": 1e-10}, False),
    "no-w-star-sweep": ("l1-p1q2n2-s5", {"max_iters": 300, "tol": 1e-10}, False),
    "outside-D": ("qp1", {"tau": 1.5, "s": 0.3, "region_policy": "G", "max_iters": 300}, True),
    "outside-D-sweep": ("l1-1d", {"tau": 1.5, "s": 0.3, "region_policy": "G", "max_iters": 300}, True),
    **{f"max-iters-{n}{suffix}": (name, {"max_iters": n, "tol": -1.0}, True)
       for n in (0, 1, engine.CHUNK - 1, engine.CHUNK, engine.CHUNK + 1)
       for name, suffix in (("quadratic-p2q2n3-s42", ""), ("l1-p1q2n2-s5", "-sweep"))},
}


@pytest.mark.parametrize("case", PER_ROW_CASES)
def test_solve_bit_identical_to_per_row_reference(case, catalog):
    # the loop steps a chunk and certifies its rows afterwards in stacked
    # calls; the per-row reference certifies each iteration as it goes
    name, overrides, with_w_star = PER_ROW_CASES[case]
    bundle = next(b for b in catalog if b.name == name)
    cfg = g.default_config(bundle.problem, **overrides)
    fast, ref = _against_per_row(bundle.problem, cfg, bundle.w_star if with_w_star else None)
    _assert_same_run(fast, ref)
    # only the forced runs long enough to reach their cycle copy its rows
    assert (fast.repeat is not None) == (case.endswith("-forced") or case == "l1")
    if case.endswith("-tol"):
        assert ref.termination == engine.CONVERGED and len(ref.predictions) % engine.CHUNK
    if with_w_star and cfg.max_iters:
        assert np.isnan(ref.columns["contraction_slack"]).all() == ("outside" in case)
    else:
        assert np.isnan(ref.columns["dist_H"]).all()


def test_solve_bit_identical_to_per_row_reference_on_atlas():
    bundle, solved, filled = g.gen_quadratic(2, 2, [2, 2], [2, 2], 3, seed=42), 0, []
    for tau in np.linspace(-1.5, 1.5, 11):
        for s in np.linspace(-1.5, 1.5, 11):
            cfg = g.default_config(bundle.problem, tau=float(tau), s=float(s), region_policy="G")
            try:
                g.assemble(bundle.problem, cfg)
            except g.SingularM:
                continue
            fast, ref = _against_per_row(bundle.problem, cfg, bundle.w_star)
            _assert_same_run(fast, ref)
            if not isinstance(fast, Exception) and fast.repeat is not None:
                filled.append((round(float(tau), 2), round(float(s), 2)))
            solved += 1
    assert solved == 116
    # the one grid point whose iterate repeats: tau + s = 0 up to rounding, so
    # the two dual updates cancel and the run stalls at residual 1.94
    assert filled == [(-0.9, 0.9)]


def test_handover_mid_chunk_matches_per_row_reference(qp1, monkeypatch):
    # the affine chunk steps past the first iterate beyond HANDOVER_MAX; those
    # rows are discarded and the sweep goes on from that iteration
    problem, _, w_star = qp1
    cfg = SolverConfig(tau=-0.5, s=-0.3, sigma1=0.5, sigma2=0.5, max_iters=300, tol=-1.0)
    monkeypatch.setattr(engine, "HANDOVER_MAX", 1e3)
    fast, ref = _against_per_row(problem, cfg, w_star)
    _assert_same_run(fast, ref)
    k = int(ref.step_fallback.split("at iteration ")[1].split(";")[0])
    assert 0 < k < 300 and k % engine.CHUNK != 0
    assert [s.calls for s in fast.oracle_stats] == [300, 300]
    assert fast.repeat is None


def _cycle_entry(trace, period):
    """The start of the trace's last run of affine iterations, and the first
    iteration e from there on with w_e = w_{e+period} bit for bit."""
    sweep = np.flatnonzero(~trace.affine_rows)
    start = int(sweep[-1]) + 1 if len(sweep) else 0
    bits = trace.iterates.view(np.uint64)
    same = (bits[start:-period] == bits[start + period:]).all(axis=1)
    assert same.any()
    return start, start + int(np.argmax(same))


@pytest.mark.parametrize("seed", [None, 3], ids=["zero", "seed3"])
@pytest.mark.parametrize("name", [b.name for b in g.standard_catalog()])
def test_repeat_fill_bit_identical_to_per_row_reference(name, seed, catalog, monkeypatch):
    # every forced catalog run reaches an iterate that repeats an earlier one
    # bit for bit, and the solve copies the rest of the run from that cycle;
    # the per-row reference steps and certifies every row. With the chunk
    # ending on the cycle's first repeated row, the rows j and j + 1 differ
    # outside w, so a fill that starts from row j shows
    bundle, w0 = _drawn_start(catalog, name, seed) if seed else (next(b for b in catalog if b.name == name), None)
    cfg = g.default_config(bundle.problem, max_iters=2000, tol=-1.0)
    mats = g.assemble(bundle.problem, cfg)
    ref = reference_verdict.solve(bundle.problem, cfg, mats, w0=w0, w_star=bundle.w_star)
    period = 7 if (name, seed) == ("quadratic-p2q2n3-s42", 3) else 1
    start, entry = _cycle_entry(ref, period)
    first = entry + period - start  # the chunk that ends on the first repeated row
    for chunk, j in ((engine.CHUNK, None), (first, entry), (first + 1, entry + 1)):
        monkeypatch.setattr(engine, "CHUNK", chunk)
        fast = g.solve(bundle.problem, cfg, w0=w0, w_star=bundle.w_star, mats=mats)
        _assert_same_run(fast, ref)
        assert fast.repeat is not None and fast.repeat[1] == period, (chunk, fast.repeat)
        assert j is None or fast.repeat[0] == j, (chunk, fast.repeat)


def _scale_D(monkeypatch, factor):
    """Scale each solve's d matrix `Plan.D` by factor once it is formed."""
    init = engine.Plan.__init__

    def scaled(plan, *args):
        init(plan, *args)
        with np.errstate(all="ignore"):
            plan.D = plan.D * factor

    monkeypatch.setattr(engine.Plan, "__init__", scaled)


# (catalog instance, beta, stepsizes)
OVERFLOW_CASES = {
    f"{name}-beta{beta:g}{suffix}": (name, beta, steps)
    for name in ("qp1", "l1-1d", "l1-p1q2n2-s5", "boxqp-p2q1n3-s13")
    for beta in (1e100, 1e200, 1e250)
    for suffix, steps in (("", {}), ("-diverging", {"tau": -0.5, "s": -0.3}))
}
# the first two cases keep their ids
OVERFLOW_CASES["qp1"] = OVERFLOW_CASES.pop("qp1-beta1e+200")
OVERFLOW_CASES["l1_1d"] = OVERFLOW_CASES.pop("l1-1d-beta1e+200")


@pytest.mark.parametrize("case", OVERFLOW_CASES)
def test_overflow_in_certification_raises_as_per_row(case, catalog):
    # a large beta overflows the record's quadratic forms or the step: the
    # batched pass raises the same error as the per-iteration certification
    name, beta, steps = OVERFLOW_CASES[case]
    bundle = next(b for b in catalog if b.name == name)
    cfg = g.default_config(bundle.problem, beta=beta, **steps)
    fast, ref = _against_per_row(bundle.problem, cfg, bundle.w_star, over="raise", invalid="raise", divide="raise")
    if (beta, steps) == (1e100, {}):  # nothing overflows before the cap
        assert ref.termination == engine.ITERATION_CAP
    else:
        assert isinstance(ref, FloatingPointError) and str(ref).startswith("overflow")
    _assert_same_run(fast, ref)


def test_non_finite_D_raises_as_per_row(catalog, monkeypatch):
    # every d is NaN, so no row converges and every row is kept: their D
    # product is formed once more under the caller's errstate and raises as
    # the per-iteration product does
    bundle = next(b for b in catalog if b.name == "qp1")
    _scale_D(monkeypatch, np.inf)
    cfg = g.default_config(bundle.problem)
    fast, ref = _against_per_row(bundle.problem, cfg, bundle.w_star, over="raise", invalid="raise", divide="raise")
    assert isinstance(ref, FloatingPointError) and str(ref) == "invalid value encountered in matmul"
    _assert_same_run(fast, ref)


SPECULATIVE_CASES = {
    **{name: (name, {"tol": 1e-10}) for name in ALL_FREE + ("l1-p1q2n2-s5",)},
    "boxqp-p2q1n3-s13": ("boxqp-p2q1n3-s13", {"tol": 1e-10, "max_iters": 2000}),
    # stops after one iteration; the 63 rows stepped past it overflow
    "qp1-diverging": ("qp1", {"tau": -100.0, "s": -100.0, "tol": np.inf, "max_iters": 500}),
    # as above, and the d vectors of those rows overflow too
    "qp1-diverging-D1e150": ("qp1", {"tau": -100.0, "s": -100.0, "tol": np.inf, "max_iters": 500}, 1e150),
}


@pytest.mark.parametrize("case", SPECULATIVE_CASES)
def test_rows_past_convergence_never_raise(case, catalog, monkeypatch):
    name, overrides, *scale = SPECULATIVE_CASES[case]
    bundle = next(b for b in catalog if b.name == name)
    cfg = dataclasses.replace(g.default_config(bundle.problem), **overrides)
    mats = g.assemble(bundle.problem, cfg)
    if scale:
        _scale_D(monkeypatch, *scale)
    traces = []
    for mode in ("raise", "warn", "ignore"):
        with np.errstate(all=mode), warnings.catch_warnings():
            warnings.simplefilter("error")
            traces.append(g.solve(bundle.problem, cfg, w_star=bundle.w_star, mats=mats, validate=False))
    assert traces[0].termination == engine.CONVERGED
    for trace in traces[1:]:
        _assert_same_run(traces[0], trace)


def test_certify_block_matches_per_row_formula(catalog):
    # one stacked pass over a block of rows against the per-iteration formula,
    # with non-finite entries planted: Python's max keeps its first argument
    # unless a later one is strictly greater, also with NaN
    bundle = next(b for b in catalog if b.name == "l1-p1q2n2-s5")
    problem = bundle.problem
    cfg = g.default_config(problem, max_iters=8, tol=-1.0)
    plan = engine.Plan(problem, cfg, g.assemble(problem, cfg), bundle.w_star)
    block = np.empty((9, plan.d.stop))
    block[0, :plan.N] = engine.initial_point(problem).stack()
    for k in range(8):
        engine.advance(plan, k, block[k, :plan.N], block[k + 1])
    # row k + 1 holds iteration k's r and d
    block[2, plan.r] = np.nan           # iteration 1: feasibility NaN, d finite
    block[3, plan.d] = np.nan           # iteration 2: d NaN, feasibility finite
    block[4, plan.r.start] = np.inf
    block[5, :plan.N] = bundle.w_star.stack()  # w_5 = w*
    out = np.empty((8, len(engine.RECORD_SCALARS) + 1))
    engine.residuals(plan, block, out)
    engine.certify(plan, block, out)
    dist_sq = plan.mats.h_norm_sq(block[0, :plan.N] - plan.ws)
    for k in range(8):
        expected = np.empty(len(engine.RECORD_SCALARS) + 1)
        w_tilde = plan.predictions(block[k + 1:k + 2])[0]
        dist_sq, _ = reference_verdict.certify(plan, dist_sq, block[k, :plan.N], block[k + 1, :plan.N], w_tilde,
                                               block[k + 1, plan.r], block[k + 1, plan.d], expected)
        assert expected.tobytes() == out[k].tobytes(), k
    assert np.isnan(out[1, 1]) and not np.isnan(out[1, -1]) and np.isnan(out[2, -1])


# ---------------------------------------------------------------------------
# The affine step and its operator identity
# ---------------------------------------------------------------------------

def _exact_maps(problem, cfg, pattern=None):
    """(T, P, M, u) of one iteration on a 1 x 1 instance (p = q = n = 1) as
    maps of (x, y, lambda, 1), in exact arithmetic from the float data, with
    u the x block's prox point. Each block update solves its canonical prox
    problem argmin f(z) + (rho/2) (a z - u)^2, rho = (1 + sigma) beta, with
    u = (c - a_o z_o + lambda/beta + sigma a z)/(1 + sigma): a quadratic
    block as (P + rho a^2) z+ = rho a u - r; a box or l1 x block on its held
    pattern, at its bound when active, by the quadratic formula when free
    (box), as u/a - pattern weight/(rho a^2) (l1)."""
    (bx,), (by,), c = problem.x_blocks, problem.y_blocks, Fraction(problem.c[0])
    beta, tau, s, sig1, sig2 = (Fraction(v) for v in (cfg.beta, cfg.tau, cfg.s, cfg.sigma1, cfg.sigma2))
    A, B = Fraction(bx.A[0, 0]), Fraction(by.A[0, 0])
    unit = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    x, y, lam, one = (np.array(row, dtype=object) for row in unit)

    def update(blk, a, u, sigma):
        rho = (1 + sigma) * beta
        if isinstance(blk.objective, g.L1):
            return (u / a - pattern * Fraction(blk.objective.weight) / (rho * a * a) * one) if pattern else 0 * one
        if pattern and blk is bx:
            return Fraction((blk.set.lo if pattern == 1 else blk.set.hi)[0]) * one
        P, r = Fraction(blk.objective.P[0, 0]), Fraction(blk.objective.r[0])
        return (rho * a * u - r * one) / (P + rho * a * a)

    u = (c * one - B * y + lam / beta + sig1 * A * x) / (1 + sig1)
    x_new = update(bx, A, u, sig1)
    r_half = A * x_new + B * y - c * one
    lam_half = lam - tau * beta * r_half
    y_new = update(by, B, (c * one - A * x_new + lam_half / beta + sig2 * B * y) / (1 + sig2), sig2)
    lam_new = lam_half - s * beta * (A * x_new + B * y_new - c * one)
    T = np.array([x_new, y_new, lam_new])
    P = np.array([x_new, y_new, lam - beta * r_half])
    M = np.array([[1, 0, 0], [0, 1, 0], [0, -s * beta * B, tau + s]], dtype=object)
    return T, P, M, u


def _step_operator(problem, cfg, mats):
    """The engine's step operator of an all-free instance."""
    return engine.step_operator(engine.Plan(problem, cfg, mats, None))


def test_step_operator_identity_exact_on_qp1(qp1):
    # T = I - M (I - P) with zero error in rational arithmetic, offsets
    # included; the engine's float maps and the structural M agree with the
    # exact ones to rounding
    problem, cfg, _ = qp1
    T, P, M, _ = _exact_maps(problem, cfg)
    eye = np.array([[Fraction(int(i == j)) for j in range(4)] for i in range(3)], dtype=object)
    assert (T == eye - M.dot(eye - P)).all()
    mats = g.assemble(problem, cfg)
    op = _step_operator(problem, cfg, mats)
    assert op.why is None and op.error <= op.bound
    K = np.column_stack((op.K, op.k0))
    assert np.abs(K[:3] - T.astype(float)).max() <= 1e-15
    assert np.abs(K[3] - P[2].astype(float)).max() <= 1e-15
    assert np.abs(mats.M - M.astype(float)).max() <= 1e-15


def _assembled_operators(catalog):
    """Step operators of every all-free catalog instance under its default
    config, and of every assembled point of the atlas's 11 x 11 stepsize
    grid."""
    for b in catalog:
        if _all_free(b.problem):
            cfg = g.default_config(b.problem)
            yield b.name, _step_operator(b.problem, cfg, g.assemble(b.problem, cfg))
    bundle = g.gen_quadratic(2, 2, [2, 2], [2, 2], 3, seed=42)
    for tau in np.linspace(-1.5, 1.5, 11):
        for s in np.linspace(-1.5, 1.5, 11):
            cfg = g.default_config(bundle.problem, tau=float(tau), s=float(s))
            try:
                mats = g.assemble(bundle.problem, cfg)
            except g.SingularM:
                continue
            yield f"atlas {tau:.2f} {s:.2f}", _step_operator(bundle.problem, cfg, mats)


def test_step_operator_identity_on_all_free_catalog_and_atlas(catalog):
    names = []
    for name, op in _assembled_operators(catalog):
        assert op.why is None, (name, op.why)
        assert op.error <= op.bound <= 1e-13, name
        names.append(name)
    assert len(names) == 6 + 116  # M is singular (tau + s = 0) at 5 grid points


def test_mixed_instance_has_no_step_operator(catalog):
    # an instance with an l1 or box block has no step operator until its
    # pattern has held: a one-iteration solve sweeps and builds none; a
    # free-quadratic one has the empty pattern's operator from the start
    for b in catalog:
        cfg = g.default_config(b.problem, max_iters=1, tol=-1.0)
        trace = g.solve(b.problem, cfg)
        free = b.name == "qp1" or b.name.startswith("quadratic-")
        assert _all_free(b.problem) == free, b.name
        assert (trace.step_path, len(trace.operators), trace.affine_iters) == \
            (("affine", 1, 1) if free else ("sweep", 0, 0)), b.name
        assert trace.step_fallback is None, b.name


def _solution_operator(bundle, cfg, mats):
    """The plan of one solve and the step operator of the pattern that one
    sweep iteration from w* holds."""
    problem = bundle.problem
    plan = engine.Plan(problem, cfg, mats, None)
    row = np.empty(plan.d.stop)
    start = bundle.w_star.stack()
    engine.advance(plan, 0, start, row)
    return plan, engine.step_operator(plan, plan.pattern(row))


def test_every_catalog_pattern_at_the_solution_has_a_checked_operator(catalog):
    # the box, nonnegative and l1 blocks are the patterned kernels; the
    # operator of the pattern at w* passes the identity and stationarity
    # checks, its rows reproduce one sweep iteration from w*, and w* is its
    # fixed point
    for b in catalog:
        cfg = g.default_config(b.problem)
        mats = g.assemble(b.problem, cfg)
        plan, op = _solution_operator(b, cfg, mats)
        assert (plan.patterned == ()) == _all_free(b.problem), b.name
        assert [kernel.set for kernel, _ in plan.patterned] == \
            [blk.set for blk in b.problem.x_blocks + b.problem.y_blocks if not _free_block(blk)], b.name
        assert op.why is None and op.error <= op.bound <= 1e-13, (b.name, op.why)
        assert plan.misses(op, (op.K @ b.w_star.stack() + op.k0)[None]).tolist() == [False], b.name
        ws = b.w_star.stack()
        assert np.abs(op.K[:plan.N] @ ws + op.k0[:plan.N] - ws).max() <= 1e-12, b.name


def test_failed_operator_check_falls_back_to_sweep(catalog, monkeypatch):
    # a step operator that fails its identity check is not used: the solve
    # sweeps, bit for bit as on a non-free instance, and says why
    bundle = next(b for b in catalog if b.name == "quadratic-p2q2n3-s42")
    cfg = g.default_config(bundle.problem, max_iters=300, tol=-1.0)
    mats = g.assemble(bundle.problem, cfg)
    with monkeypatch.context() as mp:
        _sweep_only(mp)
        ref = g.solve(bundle.problem, cfg, w_star=bundle.w_star, mats=mats)
    monkeypatch.setattr(engine, "OPERATOR_RTOL", -1.0)
    fell = g.solve(bundle.problem, cfg, w_star=bundle.w_star, mats=mats)
    assert fell.step_path == ref.step_path == "sweep"
    assert fell.step_fallback.startswith("step operator identity error ")
    assert fell.iterates.tobytes() == ref.iterates.tobytes()
    for name, column in fell.columns.items():
        assert column.tobytes() == ref.columns[name].tobytes(), name


@pytest.mark.parametrize("name, held", [("boxqp-1d", 0), ("boxqp-1d", 2), ("l1-1d", 0), ("l1-1d", 1), ("l1-1d", -1)])
def test_held_pattern_operator_exact(name, held):
    # on a held pattern the iteration is affine: T = I - M (I - P) with zero
    # error in rational arithmetic, and both blocks are stationary at w~,
    # the x block only where its pattern leaves it free (with Q's shift);
    # the engine's operator, its test rows included, agrees to rounding
    bundle = getattr(g.generators, name.replace("-", "_"))()
    problem, cfg = bundle.problem, g.default_config(bundle.problem)
    (bx,), (by,) = problem.x_blocks, problem.y_blocks
    T, P, M, u = _exact_maps(problem, cfg, held)
    eye = np.array([[Fraction(int(i == j)) for j in range(4)] for i in range(3)], dtype=object)
    assert (T == eye - M.dot(eye - P)).all()
    beta, tau, sig1, sig2 = (Fraction(v) for v in (cfg.beta, cfg.tau, cfg.sigma1, cfg.sigma2))
    A, B, zero = Fraction(bx.A[0, 0]), Fraction(by.A[0, 0]), Fraction(0)
    Q = np.array([[sig1 * beta * A * A, zero, zero], [zero, (sig2 + 1) * beta * B * B, -tau * B],
                  [zero, -B, 1 / beta]], dtype=object)
    shift, one = Q.dot(P - eye), np.array([zero, zero, zero, Fraction(1)], dtype=object)
    Py, ry = Fraction(by.objective.P[0, 0]), Fraction(by.objective.r[0])
    assert (Py * P[1] + ry * one - B * P[2] + shift[1] == 0).all()
    if isinstance(bx.objective, g.L1):
        grad_x = held * Fraction(bx.objective.weight) * one
    else:
        grad_x = Fraction(bx.objective.P[0, 0]) * P[0] + Fraction(bx.objective.r[0]) * one
    if held != 0 if isinstance(bx.objective, g.L1) else held == 0:
        assert (grad_x - A * P[2] + shift[0] == 0).all()
    else:  # an active or zero component is a constant
        assert (P[0][:3] == 0).all()
    mats = g.assemble(problem, cfg)
    assert np.abs(mats.Q - Q.astype(float)).max() <= 1e-15
    plan = engine.Plan(problem, cfg, mats, None)
    op = engine.step_operator(plan, (np.array([held], dtype=np.int8),))
    assert op.why is None and op.error <= op.bound
    K = np.column_stack((op.K, op.k0))
    assert np.abs(K[:3] - T.astype(float)).max() <= 1e-15
    assert np.abs(K[3] - P[2].astype(float)).max() <= 1e-15
    tests = K[plan.tests]
    rho = (1 + sig1) * beta
    if isinstance(bx.objective, g.L1):
        expected = [u / A]
    else:
        geff = Fraction(bx.objective.r[0]) * one - rho * A * u
        expected = [geff, (Fraction(bx.objective.P[0, 0]) + rho * A * A) * P[0] + geff]
    assert np.abs(tests - np.array(expected).astype(float)).max() <= 1e-15


def _halved_answer(mp):
    """A prox map error: every block's affine answer (free-quadratic, box or
    l1) responds to u by half."""
    affine = oracles.ProxKernel.affine

    def halved(kernel, pattern):
        L, V = affine(kernel, pattern)
        L[:, :-1] *= 0.5
        return L, V
    mp.setattr(oracles.ProxKernel, "affine", halved)


@pytest.mark.parametrize("name", ["quadratic-p2q2n3-s42", "l1-p1q2n2-s5", "boxqp-p2q1n3-s13"])
def test_prox_map_error_fails_stationarity_and_sweeps(name, catalog, monkeypatch):
    # the paper's identity cannot see an error in a block's answer; the
    # stationarity check of the primal rows does, on the all-free operator
    # and on the piecewise one, and the solve stays on the sweep, bit for bit,
    # building each held pattern's operator once
    bundle = next(b for b in catalog if b.name == name)
    cfg = g.default_config(bundle.problem, max_iters=300, tol=-1.0)
    mats = g.assemble(bundle.problem, cfg)
    with monkeypatch.context() as mp:
        _sweep_only(mp)
        ref = g.solve(bundle.problem, cfg, w_star=bundle.w_star, mats=mats)
    _halved_answer(monkeypatch)
    _, op = _solution_operator(bundle, cfg, mats)
    assert op.error <= op.bound and op.why.startswith("step operator stationarity residual ")
    built, step_operator = [], engine.step_operator
    monkeypatch.setattr(engine, "step_operator", lambda *args: built.append(engine._key(args[-1]))
                        or step_operator(*args))
    fell = g.solve(bundle.problem, cfg, w_star=bundle.w_star, mats=mats)
    assert fell.step_path == "sweep" and fell.affine_iters == 0
    assert fell.step_fallback.startswith("step operator stationarity residual ")
    assert len(built) == len(set(built)) == len(fell.operators) >= 1
    assert fell.iterates.tobytes() == ref.iterates.tobytes()
    for column, values in fell.columns.items():
        assert values.tobytes() == ref.columns[column].tobytes(), column


@pytest.mark.parametrize("name", ["quadratic-p2q2n3-s42", "l1-p1q2n2-s5", "boxqp-p2q1n3-s13"])
def test_check_fails_stationarity_on_prox_map_error(name, catalog, tmp_path, capsys, monkeypatch):
    # `gsadmm check` certifies the operator of the pattern held at w*, and
    # fails it on an error in a block's answer
    bundle = next(b for b in catalog if b.name == name)
    path = tmp_path / "instance.txt"
    io.write_instance(path, bundle.problem, bundle.w_star)
    _halved_answer(monkeypatch)
    assert main(["check", "--instance", str(path)]) == 1
    (line,) = [ln for ln in capsys.readouterr().out.splitlines() if "FAIL" in ln]
    assert line.startswith("check step-operator-identity: FAIL (step operator stationarity residual ")


def test_singular_free_kernel_falls_back_and_raises_unbounded():
    # a rank-deficient free block (validation would reject it) has a singular
    # kernel: no affine step, and the sweep raises Unbounded as before
    problem = BlockProblem((Block(Quadratic(np.zeros((2, 2)), np.zeros(2)), [[1.0, 1.0]], Free()),),
                           (Block(Quadratic([[2.0]], [0.0]), [[1.0]], Free()),), [1.0])
    cfg = SolverConfig(sigma1=0.5, sigma2=0.5)
    mats = g.assemble(problem, cfg)
    plan = engine.Plan(problem, cfg, mats, None)
    assert plan.operator(()) is None
    (op,) = plan.operators.values()
    assert op.why.startswith("singular proximal system")
    with pytest.raises(oracles.Unbounded):
        g.solve(problem, cfg, mats=mats, validate=False)


# ---------------------------------------------------------------------------
# The piecewise-affine step: entering, missing and leaving a pattern
# ---------------------------------------------------------------------------

def _drawn_start(catalog, name, seed):
    """A catalog instance and its start point as the benchmark's catalog
    workload draws it for seed: SplitMix64(seed) normals in catalog order."""
    rng = g.SplitMix64(seed)
    for b in catalog:
        w0 = Iterate.from_stack(b.problem, rng.normals(b.problem.total_dim))
        if b.name == name:
            return b, w0


# runs whose pattern changes after an operator for it exists
MISS_CASES = {
    "l1-p1q2n2-s5-seed7": ("l1-p1q2n2-s5", 7, {"max_iters": 300, "tol": -1.0}),
    "boxqp-p2q1n3-s13-seed7": ("boxqp-p2q1n3-s13", 7, {"max_iters": 300, "tol": -1.0}),
    "boxqp-p1q1n5-s9": (None, None, {"max_iters": 2000, "tol": 1e-10}),
}


@pytest.mark.parametrize("case", MISS_CASES)
def test_pattern_miss_goes_to_the_sweep_and_accepted_rows_pass_kkt(case, catalog, monkeypatch):
    name, seed, overrides = MISS_CASES[case]
    bundle, w0 = _drawn_start(catalog, name, seed) if name else (g.gen_box_qp(1, 1, [5], [3], 5, seed=9), None)
    problem = bundle.problem
    cfg = g.default_config(problem, **overrides)
    mats = g.assemble(problem, cfg)
    trace = g.solve(problem, cfg, w0=w0, w_star=bundle.w_star, mats=mats)
    assert trace.pattern_misses and len(trace.operators) >= 2 and trace.step_fallback is None
    plan = engine.Plan(problem, cfg, mats, bundle.w_star)
    points = {}
    prox_solve = engine.prox_solve
    monkeypatch.setattr(engine, "prox_solve", lambda kernel, u: points.__setitem__(id(kernel), u.copy())
                        or prox_solve(kernel, u))
    W, N, row = trace.iterates, plan.N, np.empty(plan.d.stop)
    for k in range(len(trace.predictions)):
        engine.advance(plan, k, W[k], row)
        if k in trace.pattern_misses:  # stepped by the sweep, bit for bit
            assert not trace.affine_rows[k]
            assert row[:N].tobytes() == W[k + 1].tobytes(), k
            assert plan.predictions(row[None])[0].tobytes() == trace.predictions[k].tobytes(), k
        if not trace.affine_rows[k]:
            continue
        for kernel, cols in plan.patterned:  # the scalar KKT test of the sweep's prox point
            u, z = points[id(kernel)], W[k + 1][cols]
            if isinstance(kernel.objective, g.L1):
                closed = kernel._solve(u)
                assert np.array_equal(np.sign(z), np.sign(closed)), k
                assert np.abs(z - closed).max() <= 1e-12 * (1.0 + np.abs(u).max()), k
                continue
            lo, hi = oracles.bounds(kernel.set, kernel.dim)
            pattern = np.where(z == lo, 1, np.where(z == hi, 2, 0)).astype(np.int8)
            assert kkt_ok(kernel._Heff, oracles._geff(kernel, u), lo, hi, pattern, z, oracles.KKT_TIERS[0]), k


@pytest.mark.parametrize("case", MISS_CASES)
def test_pattern_misses_bit_identical_to_per_row_reference(case, catalog):
    # a miss discards the rest of its chunk and redoes the iteration on the
    # sweep, as the per-iteration solve does on meeting it
    name, seed, overrides = MISS_CASES[case]
    bundle, w0 = _drawn_start(catalog, name, seed) if name else (g.gen_box_qp(1, 1, [5], [3], 5, seed=9), None)
    fast, ref = _against_per_row(bundle.problem, g.default_config(bundle.problem, **overrides), bundle.w_star, w0)
    _assert_same_run(fast, ref)
    assert ref.pattern_misses
    assert fast.repeat is None or fast.repeat[0] > ref.pattern_misses[-1]  # no copy reaches back past a miss


@pytest.mark.parametrize("name", [b.name for b in g.standard_catalog() if b.name.startswith(("l1", "boxqp"))])
def test_catalog_pattern_instances_step_affine(name, catalog):
    # from the zero start every l1 and box catalog instance settles its
    # pattern within a few iterations and takes the affine step from there
    bundle = next(b for b in catalog if b.name == name)
    cfg = g.default_config(bundle.problem, max_iters=2000, tol=-1.0)
    trace = g.solve(bundle.problem, cfg, w_star=bundle.w_star)
    assert trace.step_path == "affine" and trace.affine_iters >= 1990, trace.affine_iters
    assert trace.affine_rows[-1] and len(trace.operators) <= len(trace.pattern_misses) + 1


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
        wk, out = state.stack(), np.zeros(prob.total_dim)
        base = prob.c - reference_verdict.apply_B(prob, wk) + state.lam / cfg.beta
        steps = engine.Plan(prob, cfg, g.assemble(prob, cfg), None).steps[0]
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


# boxqp_1d, whose box block is the x block, and a 2-dim box y block, which
# sees the overflowed x block of its own iteration
NON_FINITE_BOX_CASES = {
    "boxqp-1d": (lambda: g.generators.boxqp_1d().problem, 3087),
    "y-box": (lambda: BlockProblem(
        (Block(Quadratic(2.0 * np.eye(2), [0.0, 0.0]), [[1.0, 2.0], [0.0, 1.0]], Free()),),
        (Block(Quadratic(2.0 * np.eye(2), [0.0, 0.0]), [[1.0, 1.0], [1.0, -1.0]], Box([-1.0, -1.0], [1.0, 1.0])),),
        [1.0, 0.5]), 1674),
}


@pytest.mark.parametrize("case", NON_FINITE_BOX_CASES)
def test_non_finite_box_iterate_raises(case):
    # a diverging run through the box enumeration: non-finite points pass
    # the enumeration's tests as in the reference, so the solve stops with
    # NonFiniteIterate rather than Unbounded
    problem, k = NON_FINITE_BOX_CASES[case]
    cfg = SolverConfig(tau=-0.5, s=-0.3, sigma1=0.5, sigma2=0.5, max_iters=5000, tol=-1.0)
    with pytest.raises(engine.NonFiniteIterate, match=f"at iteration {k}$"), np.errstate(all="ignore"):
        g.solve(problem(), cfg, validate=False)


def _certified_ranges(monkeypatch) -> list:
    """Wrap engine.certify; returns the list to which each call appends the
    iterations it certifies, as (first, stop)."""
    ranges, certify = [], engine.certify

    def recorded(plan, block, out):
        first = (out.ctypes.data - out.base.ctypes.data) // out.strides[0]
        assert (block.ctypes.data - block.base.ctypes.data) // block.strides[0] == first
        assert len(block) == len(out) + 1
        ranges.append((first, first + len(out)))
        return certify(plan, block, out)

    monkeypatch.setattr(engine, "certify", recorded)
    return ranges


# (instance, config overrides); the runs of NON_FINITE_BOX_CASES join them
CERTIFY_ONCE_CASES = {
    # forced; the rest of the run is copied from its cycle
    "fill": ("qp1", {"max_iters": 2000, "tol": -1.0}),
    # pattern misses: the run moves between the sweep and the affine step
    "misses": ("boxqp-p1q1n5-s9", {"max_iters": 2000, "tol": 1e-10}),
    # diverging: the sweep from the handover on, and buffers grown twice
    "handover": ("qp1", {"tau": -0.5, "s": -0.3, "max_iters": 2085, "tol": -1.0}),
}


@pytest.mark.parametrize("case", [*CERTIFY_ONCE_CASES, *NON_FINITE_BOX_CASES])
def test_every_kept_row_is_certified_once(case, catalog, monkeypatch):
    # the loop certifies the kept rows in stacked calls, before a buffer
    # grows, before a fill and at the end: the iterations they certify are
    # disjoint, in order, and cover every stepped iteration, also those
    # before a step that raised; the filled ones are copies of certified ones
    ranges = _certified_ranges(monkeypatch)
    if case in NON_FINITE_BOX_CASES:
        problem, stepped = NON_FINITE_BOX_CASES[case]
        cfg = SolverConfig(tau=-0.5, s=-0.3, sigma1=0.5, sigma2=0.5, max_iters=5000, tol=-1.0)
        with pytest.raises(engine.NonFiniteIterate, match=f"at iteration {stepped}$"), np.errstate(all="ignore"):
            g.solve(problem(), cfg, validate=False)
    else:
        name, overrides = CERTIFY_ONCE_CASES[case]
        bundle = _box_enum(9) if name.startswith("boxqp-p1q1n5") else next(b for b in catalog if b.name == name)
        cfg = g.default_config(bundle.problem, region_policy="G", **overrides)
        with np.errstate(all="ignore"):
            trace = g.solve(bundle.problem, cfg, w_star=bundle.w_star, validate=False)
        stepped = sum(trace.repeat) if trace.repeat else len(trace.predictions)
        assert {"fill": trace.repeat is not None and stepped < len(trace.predictions),
                "misses": bool(trace.pattern_misses) and not trace.affine_rows.all() and trace.affine_iters > 0,
                "handover": (trace.step_fallback or "").startswith("iterate past")}[case]
    assert ranges[0][0] == 0 and ranges[-1][1] == stepped, ranges
    assert all(first < stop for first, stop in ranges), ranges
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:])), ranges
    assert len(ranges) == 1 + sum(stepped > cap for cap in (1024, 2048)), ranges


def _built_operators(catalog):
    """The plan and step operator of every passing operator that the
    catalog (forced, 2000 iterations), box-enum (seeds 1-10 at tol 1e-10) and
    atlas (the 11 x 11 grid on seed 42) solves build."""
    built, operator = {}, engine.Plan.operator

    def recorded(plan, patterns):
        op = operator(plan, patterns)
        if op is not None:
            built[id(op)] = plan, op
        return op

    runs = [(b, g.default_config(b.problem, max_iters=2000, tol=-1.0)) for b in catalog]
    runs += [(b, g.default_config(b.problem, max_iters=2000, tol=1e-10)) for b in map(_box_enum, range(1, 11))]
    atlas = g.gen_quadratic(2, 2, [2, 2], [2, 2], 3, seed=42)
    runs += [(atlas, g.default_config(atlas.problem, tau=float(tau), s=float(s), region_policy="G"))
             for tau in np.linspace(-1.5, 1.5, 11) for s in np.linspace(-1.5, 1.5, 11)]
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(engine.Plan, "operator", recorded)
        for bundle, cfg in runs:
            try:
                g.solve(bundle.problem, cfg, w_star=bundle.w_star, validate=False)
            except g.SingularM:  # tau + s = 0
                continue
    return list(built.values())


def test_step_loop_has_the_bits_of_the_1d_product(catalog):
    # the affine chunk steps each row as np.dot into the row's view, then
    # adds k0 in place; for every operator the three workloads build, each
    # row has the bytes of the 1-d `K @ w + k0`
    shapes = set()
    scalars = np.empty((engine.CHUNK, len(engine.RECORD_SCALARS) + 1))
    for plan, op in _built_operators(catalog):
        rows = np.zeros((engine.CHUNK + 1, plan.d.stop))
        rows[0, :plan.N] = plan.ws
        rows[0, :plan.N] += np.linspace(-1.0, 1.0, plan.N)
        with np.errstate(all="ignore"):
            engine._affine_chunk(plan, op, rows, scalars, 0, engine.CHUNK, -1.0)
            for k in range(engine.CHUNK):
                expected = op.K @ rows[k, :plan.N].copy() + op.k0
                assert rows[k + 1, :plan.d.start].tobytes() == expected.tobytes(), (op.K.shape, k)
        shapes.add(op.K.shape)
    assert len(shapes) == 12, shapes


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
    # C9 on the sweep, where every iteration calls the enumeration; the
    # piecewise step keeps the equivalence contract with it
    cfg = g.default_config(bundle.problem, max_iters=2000, tol=1e-10)
    mats = g.assemble(bundle.problem, cfg)
    piecewise = g.solve(bundle.problem, cfg, w_star=bundle.w_star, mats=mats)
    _sweep_only(monkeypatch)
    fast = g.solve(bundle.problem, cfg, w_star=bundle.w_star, mats=mats)
    _assert_piecewise_contract(piecewise, fast, mats, bundle.w_star)
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
