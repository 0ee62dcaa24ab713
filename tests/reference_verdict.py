"""Record-at-a-time reference for the engine and the post-hoc checks.

`solve` is `engine.solve` one iteration at a time, as it would run without
chunks: the per-iteration `certify` and `affine_advance` (one
`K @ w_k + k0`, with its HANDOVER_MAX test and its pattern test),
`sweep_advance` (one `engine.advance`, then `certify`), the pattern held
over consecutive sweep iterations, the H-distance carried from one iteration
to the next, and the residual test after every iteration. `engine.solve`
must reproduce it bit for bit: rows, columns, termination, oracle counts,
the step path with its fallback, which iterations took the affine step and
which missed their pattern (`tests/test_engine.py`).

`step` is one iteration as an (Iterate, IterationRecord) pair:
`sweep_advance` (the sweep, on every instance) from a stacked start point,
whose H-distance to w* it computes afresh. Repeated steps must reproduce
`engine.solve` bit for bit where it sweeps, and keep the equivalence
contract of `tools/contract.py` where it takes the affine step.

`advance` is the sweep one block at a time: `group_sweep` forms each
block's product and prox point on its own and solves a free-quadratic block
with its own `np.linalg.solve`, and `apply_A`/`apply_B` sum the group
products block by block. `engine.solve` driven by it (`engine.advance`
replaced, and the affine step turned off) must reproduce the engine's sweep,
whose prox points and group sums are stacked, bit for bit. `d_components` loops over the
blocks; every column of `engine.Plan.D` must have its bits on the unit
vector of that column. `closed_form_theta_hat` is the coefficient sum that
`diagnostics.theta_hat` replaced by the blocks of `Plan.D`.

The checks below are the loops `diagnostics` ran over `trace.records` before
the checks read the trace's columns: one `IterationRecord` at a time, 1-d
matrix-vector products, the natural residual per point. The column-batched
checks must reproduce every report field bit for bit (`tests/test_verdict.py`).

`feasibility_decomposition_error` is the test-only identity behind
acceptance criterion C6.
"""
import math

import numpy as np

from gsadmm import engine, oracles, structure
from gsadmm.diagnostics import (
    ERROR_BOUND_ABS_FLOOR,
    ERROR_BOUND_RTOL,
    MONOTONE_RTOL,
    XI_BOUND_RTOL,
    InsufficientTrace,
    NonergodicReport,
    PointwiseReport,
    RateReport,
    _require_region,
    theta_hat,
)
from gsadmm.model import L1, Free, Iterate, Quadratic
from gsadmm.oracles import l1_subgradient, project, prox_solve


def certify(plan, dist_sq, wk, w_next, w_tilde, r_new, d_stack, scalars):
    """The record scalars of iteration k (RECORD_SCALARS, then the residual)
    into scalars, from w_k, w_{k+1}, w~_k, the feasibility residual and the d
    vector of w~_k, and ||w_k - w*||_H^2. Returns ||w_{k+1} - w*||_H^2 and the
    residual max(d_inf, feasibility_inf)."""
    mats = plan.mats
    dw = wk - w_tilde
    mdw = mats.M @ dw
    correction_residual = mats.h_norm_sq(mdw)
    gap = w_next - (wk - mdw)
    d_inf = float(np.abs(d_stack).max(initial=0.0))

    dist_h = dist_next = slack = float("nan")
    ws = plan.ws
    if ws is not None:
        dist_next = mats.h_norm_sq(w_next - ws)
        dist_h = math.sqrt(max(dist_sq, 0.0))
        if plan.in_D:
            slack = dist_sq - dist_next - float(dw @ mats.G @ dw)

    feasibility_inf = float(np.abs(r_new).max(initial=0.0))
    residual = max(d_inf, feasibility_inf)
    scalars[:] = (math.sqrt(r_new @ r_new), feasibility_inf, correction_residual,
                  float(d_stack @ d_stack), d_inf, math.sqrt(gap @ gap),
                  dist_h, slack, residual)
    return dist_next, residual


class Handover(Exception):
    """The affine step's w_{k+1} is past HANDOVER_MAX or not finite."""


class Miss(Exception):
    """The affine step's row of w_{k+1} fails its pattern."""


def affine_advance(plan, op, dist_sq, k, wk, w_next, w_tilde, scalars):
    """One iteration on the affine step of op: one stacked matrix-vector
    product gives w_{k+1}, lambda~_k, the feasibility residual and the test
    rows, and the d vector is taken of the difference w~_k - w_k as stored.
    The state is ||w_k - w*||_H^2."""
    N, m = wk.shape[0], plan.m
    z = np.empty(plan.d.stop)
    z[:plan.d.start] = op.K @ wk + op.k0
    w_next[:] = z[:N]
    w_tilde[:m] = z[:m]
    w_tilde[m:] = z[plan.lam_tilde]
    if not np.abs(w_next).max() <= engine.HANDOVER_MAX:  # also when not finite
        raise Handover
    if plan.misses(op, z[None])[0]:
        raise Miss
    return certify(plan, dist_sq, wk, w_next, w_tilde, z[plan.r], plan.D @ (w_tilde - wk), scalars)


def sweep_advance(plan, dist_sq, k, wk, w_next, w_tilde, scalars):
    """One iteration on the sweep: `engine.advance`, then `certify`. The state
    is ||w_k - w*||_H^2."""
    z = np.empty(plan.d.stop)
    engine.advance(plan, k, wk, z)
    w_next[:] = z[:plan.N]
    w_tilde[:plan.m] = w_next[:plan.m]
    w_tilde[plan.m:] = z[plan.lam_tilde]
    return certify(plan, dist_sq, wk, w_next, w_tilde, z[plan.r], z[plan.d], scalars)


def _dist_sq(plan, row):
    """||row - w*||_H^2, nan without w*."""
    return float("nan") if plan.ws is None else plan.mats.h_norm_sq(row - plan.ws)


def solve(problem, config, mats, w0=None, w_star=None):
    """`engine.solve` (without validation) one iteration at a time: on the
    affine step of the held pattern while its rows pass, on the sweep
    otherwise, entering a pattern once it has held for HOLD_ITERS sweep
    iterations."""
    plan = engine.Plan(problem, config, mats, w_star)
    kernels = plan.kernels
    N = problem.total_dim
    iterates, predictions, table, affine = [engine.initial_point(problem, w0).stack()], [], [], []
    op = None if plan.patterned else plan.operator(())
    state = _dist_sq(plan, iterates[0])
    termination, handover, misses, held, run = engine.ITERATION_CAP, None, [], None, 0
    for k in range(config.max_iters):
        rows = np.empty(N), np.empty(N), np.empty(len(engine.RECORD_SCALARS) + 1)
        stepped = False
        if op is not None:
            try:
                state, residual = affine_advance(plan, op, state, k, iterates[k], *rows)
                stepped = True
                for kernel in kernels[0] + kernels[1]:  # one oracle call per block and iteration
                    kernel.stats.calls += 1
            except (Handover, Miss) as exc:
                if isinstance(exc, Handover):
                    handover = f"iterate past {engine.HANDOVER_MAX:g} at iteration {k}; the sweep from there"
                else:
                    misses.append(k)
                op, held, run = None, None, 0
        if not stepped:
            state, residual = sweep_advance(plan, state, k, iterates[k], *rows)
            if residual > config.tol and plan.patterned and handover is None:
                pattern = plan.pattern(rows[0])
                run = run + 1 if held is not None and engine._key(pattern) == engine._key(held) else 1
                held = pattern
                if run >= engine.HOLD_ITERS:
                    op = plan.operator(pattern)
        iterates.append(rows[0])
        predictions.append(rows[1])
        table.append(rows[2])
        affine.append(stepped)
        if residual <= config.tol:
            termination = engine.CONVERGED
            break
    count = len(predictions)
    columns = np.array(table).reshape(count, len(engine.RECORD_SCALARS) + 1).T.copy()
    return engine.Trace(problem, config, termination, tuple(kernel.stats for group in kernels for kernel in group),
                        np.array(iterates), np.array(predictions).reshape(count, N),
                        dict(zip(engine.RECORD_SCALARS + ("residual",), columns)),
                        operators=tuple(plan.operators.values()), handover=handover,
                        affine_rows=np.array(affine, dtype=bool), pattern_misses=tuple(misses))


def step(problem, config, state, mats=None, w_star=None, k=0, plan=None):
    """One iteration from the Iterate state; returns (next Iterate, record).

    `plan` (an `engine.Plan` of mats and w_star, whose kernels count the
    oracle calls) and `mats` are built here when omitted.
    """
    if mats is None:
        mats = structure.assemble(problem, config)
    if plan is None:
        plan = engine.Plan(problem, config, mats, w_star)
    rows = np.empty((3, problem.total_dim))  # w_k, w_{k+1}, w~_k
    rows[0] = state.stack()
    scalars = np.empty(len(engine.RECORD_SCALARS) + 1)
    sweep_advance(plan, _dist_sq(plan, rows[0]), k, rows[0], rows[1], rows[2], scalars)
    record = engine.IterationRecord(k, state, Iterate.from_stack(problem, rows[2]), *scalars[:-1].tolist())
    return Iterate.from_stack(problem, rows[1]), record


def apply_A(problem, w):
    """A x = sum_i A_i x_i of the stacked point w, block by block."""
    out = np.zeros(problem.n)
    for blk, sl in zip(problem.x_blocks, problem.block_slices):
        out += blk.A @ w[sl]
    return out


def apply_B(problem, w):
    """B y = sum_j B_j y_j of the stacked point w, block by block."""
    out = np.zeros(problem.n)
    for blk, sl in zip(problem.y_blocks, problem.block_slices[problem.p:]):
        out += blk.A @ w[sl]
    return out


def _prox(kernel, u):
    """prox_solve, with a free-quadratic block solved by its own np.linalg.solve."""
    if not (isinstance(kernel.objective, Quadratic) and isinstance(kernel.set, Free)):
        return prox_solve(kernel, u)
    kernel.stats.calls += 1
    A, rho, obj = kernel.A, kernel.rho, kernel.objective
    try:
        return np.linalg.solve(rho * (A.T @ A) + obj.P, -(-rho * (A.T @ u) + obj.r))
    except np.linalg.LinAlgError as exc:
        raise oracles.Unbounded("singular proximal system; coupling matrix rank deficient") from exc


def group_sweep(blocks, kernels, slices, wk, own_sum, base, sigma, out):
    """Jacobian sweep over one group, one block at a time."""
    for blk, kernel, sl in zip(blocks, kernels, slices):
        a_z = blk.A @ wk[sl]
        v = base - (own_sum - a_z)
        u = (v + sigma * a_z) / (1.0 + sigma)
        out[sl] = _prox(kernel, u)


def d_components(problem, config, delta):
    """The stacked d vector, one block at a time."""
    beta, sigma1, sigma2, tau = config.beta, config.sigma1, config.sigma2, config.tau
    slices, p = problem.block_slices, problem.p
    ax_deltas = [blk.A @ delta[sl] for blk, sl in zip(problem.x_blocks, slices)]
    sx = np.zeros(problem.n)
    for d in ax_deltas:
        sx += d
    dlam = delta[delta.shape[0] - problem.n:]
    shared = (sigma1 - 1.0) * sx
    parts = [beta * (blk.A.T @ (shared + a_d)) for blk, a_d in zip(problem.x_blocks, ax_deltas)]
    for blk, sl in zip(problem.y_blocks, slices[p:]):
        parts.append((sigma2 + 1.0) * beta * (blk.A.T @ (blk.A @ delta[sl])) - tau * (blk.A.T @ dlam))
    return np.concatenate(parts)


def closed_form_theta_hat(problem, config):
    """The coefficient of `diagnostics.theta_hat` from d's closed form: the
    squared spectral norm of each coefficient matrix of the d formula."""
    beta, sigma1, sigma2, tau = config.beta, config.sigma1, config.sigma2, config.tau
    total = 0.0
    for i, bi in enumerate(problem.x_blocks):
        for l, bl in enumerate(problem.x_blocks):
            coef = sigma1 if l == i else sigma1 - 1.0
            total += (beta * coef * np.linalg.norm(bi.A.T @ bl.A, 2)) ** 2
    for bj in problem.y_blocks:
        total += ((sigma2 + 1.0) * beta * np.linalg.norm(bj.A.T @ bj.A, 2)) ** 2
        total += (tau * np.linalg.norm(bj.A, 2)) ** 2
    return float(total)


def advance(plan, k, wk, z):
    """`engine.advance`, one block at a time."""
    problem, config, c, m, N = plan.problem, plan.config, plan.problem.c, plan.m, plan.N
    x_slices, y_slices = problem.block_slices[:problem.p], problem.block_slices[problem.p:]
    beta = config.beta
    lam = wk[m:]
    ax, by = apply_A(problem, wk), apply_B(problem, wk)
    group_sweep(problem.x_blocks, plan.kernels[0], x_slices, wk, ax, c - by + lam / beta,
                config.sigma1, z)
    ax_new = apply_A(problem, z)
    r_half = ax_new + by - c
    lambda_half = lam - plan.tau_beta * r_half
    group_sweep(problem.y_blocks, plan.kernels[1], y_slices, wk, by, c - ax_new + lambda_half / beta,
                config.sigma2, z)
    by_new = apply_B(problem, z)
    r_new = ax_new + by_new - c
    z[m:N] = lambda_half - plan.s_beta * r_new
    z[plan.lam_tilde] = lam - beta * r_half
    z[plan.r] = r_new
    if not np.isfinite(z[:N]).all():
        raise engine.NonFiniteIterate(f"non-finite iterate at iteration {k}")
    z[plan.d] = plan.D @ (np.concatenate((z[:m], z[plan.lam_tilde])) - wk)


def residual(problem, xs, ys):
    """Constraint residual A x + B y - c of the blocks xs and ys."""
    w = Iterate(xs, ys, np.zeros(problem.n)).stack()
    return apply_A(problem, w) + apply_B(problem, w) - problem.c


def error_map_residual(problem, w):
    """Natural residual e(w, 1) of one point, block by block."""
    parts = []
    for blk, z in zip(list(problem.x_blocks) + list(problem.y_blocks), list(w.x) + list(w.y)):
        t = blk.A.T @ w.lam
        if isinstance(blk.objective, L1):
            g = l1_subgradient(blk.objective.weight, z, t)
        else:
            g = blk.objective.gradient(z)
        parts.append(z - project(blk.set, z - (g - t)))
    parts.append(residual(problem, w.x, w.y))
    return np.concatenate(parts)


def nonergodic_check(mats, trace, w_star):
    _require_region(mats, "nonergodic check")
    recs = trace.records
    if not recs:
        return NonergodicReport(True, True, 0.0)
    ms = [r.correction_residual for r in recs]
    m0 = ms[0]
    monotone_ok = all(
        ms[k + 1] <= ms[k] + MONOTONE_RTOL * (1.0 + m0) for k in range(len(ms) - 1)
    )
    h0 = mats.h_norm_sq(recs[0].w.stack() - w_star.stack())
    envelope = max((k + 1) * mk for k, mk in enumerate(ms))
    xi = mats.xi
    xi_bound_ok = (
        math.isfinite(xi)
        and xi > 0.0
        and all((k + 1) * xi * mk <= h0 * (1.0 + XI_BOUND_RTOL) for k, mk in enumerate(ms))
    )
    return NonergodicReport(monotone_ok, xi_bound_ok, envelope)


def pointwise_residual_check(problem, config, trace):
    th = theta_hat(problem, config)
    sup_d = 0.0
    sup_f = 0.0
    ok = True
    for k, rec in enumerate(trace.records):
        dw = rec.w.stack() - rec.w_tilde.stack()
        bound = th * float(dw @ dw) * (1.0 + ERROR_BOUND_RTOL) + 1e-300
        ok = ok and math.isfinite(rec.d_norm_sq) and math.isfinite(bound) and rec.d_norm_sq <= bound
        sup_d = max(sup_d, (k + 1) * rec.d_norm_sq)
        sup_f = max(sup_f, (k + 1) * rec.feasibility ** 2)
    return PointwiseReport(sup_d, sup_f, th, bool(ok))


def error_bound_check(problem, mats, trace, constants):
    _require_region(mats, "projection-residual bound")
    coef = constants.delta * max(max(constants.mu_tilde), max(constants.nu_tilde), 1.0)
    coef /= mats.lambda_min_G
    ok = True
    worst = 0.0
    recs = trace.records
    w_next = [rec.w for rec in recs[1:]] + [trace.w_final]
    for rec, wn in zip(recs, w_next):
        left = float(np.sum(error_map_residual(problem, wn) ** 2))
        wk = rec.w.stack()
        dw = wk - rec.w_tilde.stack()
        right = coef * float(dw @ mats.G @ dw)
        bound = right * (1.0 + ERROR_BOUND_RTOL) + ERROR_BOUND_ABS_FLOOR * (1.0 + float(wk @ wk))
        ok = ok and left <= bound
        if right > 0.0:
            worst = max(worst, left / right)
    return ok, worst


def linear_rate_check(mats, trace, w_star, constants):
    _require_region(mats, "linear rate check")
    recs = trace.records
    if len(recs) < 20:
        raise InsufficientTrace(f"{len(recs)} iterations; need at least 20")
    eb_ok, eb_worst = error_bound_check(trace.problem, mats, trace, constants)

    tol = trace.config.tol
    t_conv = len(recs) - 1
    for k, rec in enumerate(recs):
        if max(rec.d_inf, rec.feasibility_inf) <= 10.0 * tol:
            t_conv = k
            break
    start = t_conv // 2
    ws = w_star.stack()
    ks, logs = [], []
    for k in range(start, t_conv + 1):
        dh = mats.dist_H(recs[k].w.stack(), ws)
        if dh > 0.0 and math.isfinite(dh):
            ks.append(k)
            logs.append(math.log(dh))
    if len(ks) < 20:
        raise InsufficientTrace(
            f"fit window [{start}, {t_conv}] has {len(ks)} usable points; need at least 20"
        )
    slope = float(np.polyfit(np.asarray(ks, dtype=float), np.asarray(logs), 1)[0])
    r_hat = math.exp(slope)
    dist0 = mats.dist_H(recs[0].w.stack(), ws)
    if 0.0 < r_hat < 1.0 and dist0 > 0.0:
        big_c = 2.0 * dist0 / (1.0 - r_hat)
        envelope_ok = all(
            math.exp(lg) <= big_c * r_hat ** k * (1.0 + XI_BOUND_RTOL)
            for k, lg in zip(ks, logs)
        )
    else:
        envelope_ok = False
    return RateReport(
        error_bound_ok=eb_ok,
        error_bound_worst_ratio=eb_worst,
        linear_ratio_fit=slope,
        r_hat=r_hat,
        envelope_ok=envelope_ok,
        fit_start=ks[0],
        fit_end=ks[-1],
    )


def feasibility_decomposition_error(problem, config, record):
    """Relative error of A x~ + B y~ - c = (lambda - lambda~)/beta - sum_j B_j (y_j - y~_j)."""
    lhs = residual(problem, record.w_tilde.x, record.w_tilde.y)
    rhs = (record.w.lam - record.w_tilde.lam) / config.beta
    for blk, yk, yt in zip(problem.y_blocks, record.w.y, record.w_tilde.y):
        rhs = rhs - blk.A @ (yk - yt)
    denom = 1.0 + max(float(np.linalg.norm(lhs)), float(np.linalg.norm(rhs)))
    return float(np.linalg.norm(lhs - rhs)) / denom
