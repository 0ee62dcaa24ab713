"""The column-batched post-hoc checks against the record-at-a-time reference.

Every report field must be equal, value and type, to what the reference
loops in `reference_verdict.py` compute from `trace.records`; no tolerance.
"""
import dataclasses

import numpy as np
import pytest

import gsadmm as g
from gsadmm import diagnostics
from gsadmm.model import Iterate
import reference_verdict as ref


def _run(bundle, w0=None, **overrides):
    cfg = g.default_config(bundle.problem, **overrides)
    mats = g.assemble(bundle.problem, cfg)
    return bundle, cfg, mats, g.solve(bundle.problem, cfg, w0=w0, w_star=bundle.w_star, mats=mats)


def _seed3_start(bundle):
    return Iterate.from_stack(bundle.problem, g.SplitMix64(3).normals(bundle.problem.total_dim))


RUNS = {
    "qp1": lambda: _run(g.generators.qp1()),
    "l1": lambda: _run(g.gen_l1(1, 2, [2, 1], 2, seed=5), max_iters=5000, tol=1e-12),
    "boxqp": lambda: _run(g.gen_box_qp(2, 1, [2, 1], [2], 3, seed=13), max_iters=5000, tol=1e-12),
    "forced-2000": lambda: _run(g.gen_quadratic(2, 2, [2, 2], [2, 2], 3, seed=42), max_iters=2000, tol=-1.0),
    "seed3-start": lambda: (lambda b: _run(b, w0=_seed3_start(b), max_iters=2000))(
        g.gen_box_qp(1, 1, [5], [3], 5, seed=3)),
    "max-iters-0": lambda: _run(g.generators.qp1(), max_iters=0),
    "one-record": lambda: _run(g.generators.l1_1d(), max_iters=1, tol=-1.0),
}


def _assert_same(new, old):
    if isinstance(old, tuple):
        assert type(new) is tuple and len(new) == len(old)
        pairs = zip(new, old)
    else:
        assert type(new) is type(old)
        pairs = ((getattr(new, name), getattr(old, name)) for name in old.__dataclass_fields__)
    for a, b in pairs:
        assert type(a) is type(b) and a == b, (new, old)


def _outcome(check, *args):
    try:
        return check(*args)
    except (g.InsufficientTrace, g.RegionNotCertified) as exc:
        return type(exc)


@pytest.mark.parametrize("name", RUNS)
def test_checks_equal_reference(name):
    bundle, cfg, mats, trace = RUNS[name]()
    problem, w_star = bundle.problem, bundle.w_star
    constants = g.rate_constants(problem, cfg)
    _assert_same(g.pointwise_residual_check(problem, cfg, trace), ref.pointwise_residual_check(problem, cfg, trace))
    _assert_same(g.nonergodic_check(mats, trace, w_star), ref.nonergodic_check(mats, trace, w_star))
    _assert_same(diagnostics.error_bound_check(problem, mats, trace, constants),
                 ref.error_bound_check(problem, mats, trace, constants))
    new = _outcome(g.linear_rate_check, mats, trace, w_star, constants)
    old = _outcome(ref.linear_rate_check, mats, trace, w_star, constants)
    if isinstance(old, type):
        assert new is old
    else:
        _assert_same(new, old)


def test_feasibility_square_as_python_pow():
    # Python's f ** 2 (C pow) and numpy's square round this value differently
    # on a libm whose pow is not correctly rounded
    bundle, cfg, _, trace = RUNS["one-record"]()
    feasibility = np.array([float.fromhex("0x1.ffa6085cd6edap-22")])
    trace = dataclasses.replace(trace, columns={**trace.columns, "feasibility": feasibility})
    _assert_same(g.pointwise_residual_check(bundle.problem, cfg, trace),
                 ref.pointwise_residual_check(bundle.problem, cfg, trace))


@pytest.mark.parametrize("name", ["l1", "boxqp", "forced-2000"])
def test_error_map_rows_equal_per_point(name):
    bundle, _, _, trace = RUNS[name]()
    rows = diagnostics.error_map_rows(bundle.problem, trace.iterates)
    for row, w in zip(rows, trace.iterates):
        expected = ref.error_map_residual(bundle.problem, Iterate.from_stack(bundle.problem, w))
        assert row.tobytes() == expected.tobytes()


def test_records_view_and_carried_distance():
    bundle, _, mats, trace = RUNS["qp1"]()
    ws = bundle.w_star.stack()
    recs = trace.records
    assert len(recs) == len(trace.predictions) == len(trace.iterates) - 1
    assert recs[-1].k == len(recs) - 1
    assert recs[-1].w.stack().tobytes() == trace.iterates[-2].tobytes()
    assert trace.iterates[-1].tobytes() == trace.w_final.stack().tobytes()
    # the distance each step carries over equals a fresh computation, bit for bit
    for rec in recs:
        assert rec.dist_H == mats.dist_H(rec.w.stack(), ws)
    assert [r.k for r in recs[2:5]] == [2, 3, 4]
    with pytest.raises(IndexError):
        recs[len(recs)]
    with pytest.raises(ValueError):
        trace.iterates[0, 0] = 1.0


def test_outside_triangle_still_raises(qp1_bundle):
    problem, w_star = qp1_bundle.problem, qp1_bundle.w_star
    cfg = g.default_config(problem, tau=1.5, s=0.3, region_policy="G")
    mats = g.assemble(problem, cfg)
    trace = g.solve(problem, cfg, w_star=w_star, mats=mats)
    constants = g.rate_constants(problem, cfg)
    for check in (g.nonergodic_check, ref.nonergodic_check):
        with pytest.raises(g.RegionNotCertified):
            check(mats, trace, w_star)
    for check in (diagnostics.error_bound_check, ref.error_bound_check):
        with pytest.raises(g.RegionNotCertified):
            check(problem, mats, trace, constants)
    for check in (g.linear_rate_check, ref.linear_rate_check):
        with pytest.raises(g.RegionNotCertified):
            check(mats, trace, w_star, constants)
    _assert_same(g.pointwise_residual_check(problem, cfg, trace), ref.pointwise_residual_check(problem, cfg, trace))


@pytest.mark.parametrize("tau_idx, s_idx, side", [(0, 0, "d"), (2, 4, "bound")])
def test_pointwise_check_fails_diverging_run(tau_idx, s_idx, side):
    # outside both stepsize regions the iterates grow while staying finite
    # for all 500 iterations; ||d||^2 (at (-1.5, -1.5), first at k = 264) or
    # the bound theta_hat ||w - w~||^2 (at (-0.9, -0.3)) overflows to inf,
    # and inf <= inf must not pass
    grid = np.linspace(-1.5, 1.5, 11)
    bundle = g.gen_quadratic(2, 2, [2, 2], [2, 2], 3, seed=42)
    problem = bundle.problem
    cfg = g.default_config(problem, tau=float(grid[tau_idx]), s=float(grid[s_idx]))
    with np.errstate(over="ignore", invalid="ignore"):
        trace = g.solve(problem, cfg, validate=False)
        report = g.pointwise_residual_check(problem, cfg, trace)
        _assert_same(report, ref.pointwise_residual_check(problem, cfg, trace))
    assert len(trace.records) == 500 and np.all(np.isfinite(trace.iterates))
    d_sq = trace.columns["d_norm_sq"]
    if side == "d":
        assert int(np.flatnonzero(~np.isfinite(d_sq))[0]) == 264
    else:
        assert np.all(np.isfinite(d_sq))
    assert report.theta_hat_ok is False
