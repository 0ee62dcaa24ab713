"""The copy map of a filled run, and the post-hoc checks that read it.

A forced run that reaches its cycle is filled from `Trace.repeat` = (j, p):
iteration k >= j repeats iteration `diagnostics.copy_source(k)`. The checks
form their per-row values on iterations 0 .. j + p - 1 only, so their reports
must equal, bit for bit, the reports on the same trace with `repeat` dropped
(every row read) and the record-at-a-time reference.
"""
import dataclasses
import math

import numpy as np
import pytest

import gsadmm as g
from gsadmm import diagnostics
from gsadmm.diagnostics import copy_source
from gsadmm.model import Iterate
import reference_verdict as ref

CATALOG = [b.name for b in g.standard_catalog()]


def _forced(catalog, name, seed):
    """The forced catalog run of name (2000 iterations, tol -1), from zero or
    from the start that SplitMix64(seed) draws for it in catalog order."""
    rng = g.SplitMix64(seed) if seed else None
    for bundle in catalog:
        w0 = Iterate.from_stack(bundle.problem, rng.normals(bundle.problem.total_dim)) if seed else None
        if bundle.name == name:
            cfg = g.default_config(bundle.problem, max_iters=2000, tol=-1.0)
            mats = g.assemble(bundle.problem, cfg)
            return bundle, cfg, mats, g.solve(bundle.problem, cfg, w0=w0, w_star=bundle.w_star, mats=mats)


def _reports(checks, problem, cfg, mats, trace, w_star):
    """The four reports of a verdict as one repr, which tells every float's
    bits apart (-0.0 from 0.0 included); a check that refuses the trace gives
    its exception type."""
    constants = g.rate_constants(problem, cfg)
    out = [checks.pointwise_residual_check(problem, cfg, trace)]
    for check, args in ((checks.nonergodic_check, (mats, trace, w_star)),
                        (checks.error_bound_check, (problem, mats, trace, constants)),
                        (checks.linear_rate_check, (mats, trace, w_star, constants))):
        try:
            out.append(check(*args))
        except (g.InsufficientTrace, g.RegionNotCertified) as exc:
            out.append(type(exc))
    return repr(out)


def _assert_copies(trace):
    """Every copied row of the iterates (the last one too), of the predictions
    and of every column has the bytes of the row the copy map names."""
    j, p = trace.repeat
    for rows in (trace.iterates, trace.predictions, *trace.columns.values()):
        k = np.arange(j, len(rows))
        assert rows[k].tobytes() == rows[copy_source(k, trace.repeat)].tobytes()
    k = np.arange(len(trace.iterates))
    assert (copy_source(k, trace.repeat)[:j + p] == k[:j + p]).all()


@pytest.mark.parametrize("seed", [None, 3], ids=["zero", "seed3"])
@pytest.mark.parametrize("name", CATALOG)
def test_filled_run_reports_equal_every_row_and_reference(name, seed, catalog):
    bundle, cfg, mats, trace = _forced(catalog, name, seed)
    assert trace.repeat is not None
    assert trace.repeat[1] == (7 if (name, seed) == ("quadratic-p2q2n3-s42", 3) else 1)
    _assert_copies(trace)
    args = (bundle.problem, cfg, mats)
    filled = _reports(diagnostics, *args, trace, bundle.w_star)
    assert filled == _reports(diagnostics, *args, dataclasses.replace(trace, repeat=None), bundle.w_star)
    assert filled == _reports(ref, *args, trace, bundle.w_star)


def test_filled_atlas_point_reports_equal_every_row_and_reference():
    # the one atlas grid point whose iterate repeats; it lies outside the
    # triangle region, so only the pointwise check applies
    bundle = g.gen_quadratic(2, 2, [2, 2], [2, 2], 3, seed=42)
    grid = np.linspace(-1.5, 1.5, 11)
    cfg = g.default_config(bundle.problem, tau=float(grid[2]), s=float(grid[8]), region_policy="G")
    mats = g.assemble(bundle.problem, cfg)
    trace = g.solve(bundle.problem, cfg, w_star=bundle.w_star, mats=mats, validate=False)
    assert trace.repeat == (319, 1)
    _assert_copies(trace)
    args = (bundle.problem, cfg, mats)
    filled = _reports(diagnostics, *args, trace, bundle.w_star)
    assert filled.count("RegionNotCertified") == 3
    assert filled == _reports(diagnostics, *args, dataclasses.replace(trace, repeat=None), bundle.w_star)
    assert filled == _reports(ref, *args, trace, bundle.w_star)


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


@pytest.fixture(scope="module")
def period_7(catalog):
    return _forced(catalog, "quadratic-p2q2n3-s42", 3)


@pytest.mark.parametrize("special", [-1.5, 0.0, -0.0, math.inf, -math.inf, math.nan], ids=repr)
def test_scaled_sups_of_a_filled_trace_equal_every_row(special, period_7):
    # the scaled sups read the distinct iterations and the last period only;
    # each column below holds a special value at the first iteration, before
    # the cycle, inside it or everywhere, or is negative with one inside it
    bundle, cfg, mats, trace = period_7
    j, p = trace.repeat
    n, iters = j + p, len(trace.predictions)
    names = ("d_norm_sq", "feasibility", "correction_residual")
    for where in ([0], [5], [j], [j + 3], [n - 1], [0, j + 1], slice(None), "negated"):
        columns = dict(trace.columns)
        for name in names:
            distinct = columns[name][:n].copy()
            if where == "negated":
                distinct = -np.abs(distinct)
                distinct[j + 2] = special
            else:
                distinct[where] = special
            # the copies, as the engine's fill writes them
            columns[name] = np.concatenate((distinct, distinct[j:][np.arange(iters - n) % p]))
        filled = dataclasses.replace(trace, columns=columns)
        full = dataclasses.replace(filled, repeat=None)
        pointwise = [g.pointwise_residual_check(bundle.problem, cfg, t) for t in (filled, full)]
        nonergodic = [g.nonergodic_check(mats, t, bundle.w_star) for t in (filled, full)]
        for a, b in (pointwise, nonergodic):
            for field in a.__dataclass_fields__:
                assert _bits(getattr(a, field)) == _bits(getattr(b, field)), (where, field, a, b)
        assert repr(pointwise[1]) == repr(ref.pointwise_residual_check(bundle.problem, cfg, filled))
        assert repr(nonergodic[1]) == repr(ref.nonergodic_check(mats, filled, bundle.w_star))


def test_nonergodic_flags_of_a_filled_trace_read_the_wrap_pair_and_the_last_period(period_7):
    # monotone_ok fails only on the pair (j + p - 1, j + p), where the cycle
    # starts again; xi_bound_ok fails only in the last period
    bundle, cfg, mats, trace = period_7
    j, p = trace.repeat
    n, iters = j + p, len(trace.predictions)
    assert n + p < iters
    h0 = mats.h_norm_sq(trace.iterates[0] - bundle.w_star.stack())
    wrap = np.linspace(2.0, 1.0, n)  # decreasing over the distinct iterations
    late = np.full(n, h0 / (mats.xi * (iters - p // 2)))  # (k + 1) xi v passes h0 from k = iters - 3
    for distinct, flag in ((wrap, "monotone_ok"), (late, "xi_bound_ok")):
        ms = np.concatenate((distinct, distinct[j:][np.arange(iters - n) % p]))
        filled = dataclasses.replace(trace, columns=dict(trace.columns, correction_residual=ms))
        full = dataclasses.replace(filled, repeat=None)
        reports = [g.nonergodic_check(mats, t, bundle.w_star) for t in (filled, full)]
        assert not getattr(reports[1], flag)
        assert repr(reports[0]) == repr(reports[1]) == repr(ref.nonergodic_check(mats, filled, bundle.w_star))
        # the distinct iterations alone would pass the flag
        head = dataclasses.replace(full, columns=dict(full.columns, correction_residual=ms[:n]))
        assert getattr(g.nonergodic_check(mats, head, bundle.w_star), flag)


def test_theta_hat_block_norm_is_first_singular_value(catalog):
    # norm(block, 2) takes the largest of the same singular values that
    # theta_hat reads first
    for bundle in catalog:
        problem, cfg = bundle.problem, g.default_config(bundle.problem)
        N = problem.total_dim
        D = diagnostics.d_components(problem, cfg, np.eye(N)).T
        cols = problem.block_slices + (slice(N - problem.n, N),)
        blocks = [D[rows, sl] for rows in problem.block_slices for sl in cols if D[rows, sl].any()]
        assert blocks
        for block in blocks:
            assert _bits(np.linalg.svd(block, compute_uv=False)[0]) == _bits(np.linalg.norm(block, 2))
        norms = float(sum(np.linalg.norm(block, 2) ** 2 for block in blocks))
        assert _bits(diagnostics.theta_hat(problem, cfg)) == _bits(norms)
