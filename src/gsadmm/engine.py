"""The grouped symmetric ADMM iteration.

One iteration runs a Jacobian sweep over the x group, a half dual update with
stepsize tau, a Jacobian sweep over the y group against the half-updated
multiplier, and a full dual update with stepsize s. Both sweeps are one
`group_sweep`; `step` forms each group product A x_k, B y_k, A x+, B y+ once
and derives every other vector from them:

    x_i+ = argmin_{x_i in X_i} L_beta(x_1..x_i..x_p, y, lambda)
           + (sigma1 beta/2) ||A_i (x_i - x_i_k)||^2          (i = 1..p)
    r_half = A x+ + B y_k - c
    lambda_half = lambda - tau beta r_half,   lambda~ = lambda - beta r_half
    y_j+ = argmin_{y_j in Y_j} L_beta(x+, y_1..y_j..y_q, lambda_half)
           + (sigma2 beta/2) ||B_j (y_j - y_j_k)||^2          (j = 1..q)
    r_new = A x+ + B y+ - c
    lambda+ = lambda_half - s beta r_new

The predicted point w~ = (x+, y+, lambda~) is an `Iterate` like w. Each step
verifies online that the computed step equals the linear correction
w_k - M (w_k - w~_k), which cross-validates the engine against the
structural matrices every iteration; r_new is also the feasibility residual
of w~.

`solve` builds one oracle kernel per block before the first iteration (the
penalty rho of each group is fixed under one config) and passes them to
every step. It carries ||w_{k+1} - w*||_H^2 from one step into the next, so
each step forms three H/G quadratic forms. The trace it returns is columnar:
the iterates and predictions as row arrays and one array per record scalar;
`Trace.records` builds each `IterationRecord` on access from them.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from . import structure
from .diagnostics import d_components
from .model import (
    BlockProblem,
    Iterate,
    SolverConfig,
    validate_config,
    validate_problem,
)
from .oracles import OracleStats, ProxKernel, project, prox_solve

CONVERGED = "converged"
ITERATION_CAP = "iteration-cap"


class NonFiniteIterate(RuntimeError):
    """NaN or infinity in an iterate; bad conditioning or an invalid config."""


@dataclass(frozen=True, eq=False)
class IterationRecord:
    """Residuals and identity checks for the transition w_k -> w_{k+1}."""

    k: int
    w: Iterate
    w_tilde: Iterate          # predicted point (x+, y+, lambda~)
    feasibility: float        # ||A x~ + B y~ - c||
    feasibility_inf: float
    correction_residual: float  # ||M (w - w~)||_H^2
    d_norm_sq: float
    d_inf: float
    identity_error: float     # ||w_{k+1} - (w - M (w - w~))||
    dist_H: float             # ||w_k - w*||_H when a reference point is known
    next_dist_sq: float       # ||w_{k+1} - w*||_H^2, carried into the next step
    contraction_slack: float  # nan without a reference point or outside the triangle


# The scalar fields of a record, in order; each is one column of a Trace.
RECORD_SCALARS = tuple(f.name for f in fields(IterationRecord) if f.name not in ("k", "w", "w_tilde"))
_record_scalars = operator.attrgetter(*RECORD_SCALARS)


@dataclass(frozen=True, eq=False)
class Trace:
    """A run as columns: row k of `iterates` is w_k (the last row, one past the
    last record, is `w_final`), row k of `predictions` is w~_k, and `columns`
    maps each name in RECORD_SCALARS, plus "residual" = max(d_inf,
    feasibility_inf), to one value per iteration. All arrays are read-only."""

    problem: BlockProblem
    config: SolverConfig
    termination: str
    w_final: Iterate
    oracle_stats: tuple[OracleStats, ...]  # x blocks, then y blocks
    iterates: np.ndarray      # (iterations + 1, N)
    predictions: np.ndarray   # (iterations, N)
    columns: dict[str, np.ndarray]

    @property
    def records(self) -> "Records":
        return Records(self)


class Records(Sequence):
    """Read-only sequence of a trace's IterationRecords, each built on access;
    its `w` and `w_tilde` parts are views of the trace's rows."""

    def __init__(self, trace: Trace):
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace.predictions)

    def __getitem__(self, idx):
        k = range(len(self))[idx]  # IndexError and negative indices as for a list
        if isinstance(k, range):
            return [self[i] for i in k]
        t = self._trace
        return IterationRecord(
            k, Iterate.from_stack(t.problem, t.iterates[k]), Iterate.from_stack(t.problem, t.predictions[k]),
            *(float(t.columns[name][k]) for name in RECORD_SCALARS))

    def __eq__(self, other):
        return isinstance(other, Sequence) and list(self) == list(other)


def block_kernels(problem: BlockProblem, config: SolverConfig):
    """Oracle kernels (x blocks, y blocks) at rho = (1 + sigma) beta."""
    rho_x = (1.0 + config.sigma1) * config.beta
    rho_y = (1.0 + config.sigma2) * config.beta
    return (tuple(ProxKernel(blk.objective, blk.set, blk.A, rho_x) for blk in problem.x_blocks),
            tuple(ProxKernel(blk.objective, blk.set, blk.A, rho_y) for blk in problem.y_blocks))


def group_sweep(blocks, kernels, zs, own_sum, base, sigma):
    """Jacobian sweep over one group; every block reads the same snapshot.

    Block i solves its prox at u_i = (base - (own_sum - A_i z_i) + sigma A_i z_i) / (1 + sigma),
    where own_sum is the group's product at the snapshot zs.
    """
    out = []
    for blk, kernel, z in zip(blocks, kernels, zs):
        a_z = blk.A @ z
        v = base - (own_sum - a_z)
        u = (v + sigma * a_z) / (1.0 + sigma)
        out.append(prox_solve(kernel, u))
    return out


def step(problem: BlockProblem, config: SolverConfig, state: Iterate,
         mats: structure.StructuralMatrices | None = None,
         w_star: Iterate | None = None, k: int = 0, kernels=None,
         dist_sq: float | None = None):
    """One full iteration; returns (next iterate, record with identity checks).

    `kernels` is the pair from `block_kernels`; built here when omitted.
    `dist_sq` is ||w_k - w*||_H^2 when the caller already has it (`solve`
    passes the previous record's `next_dist_sq`); computed here when omitted.
    """
    if mats is None:
        mats = structure.assemble(problem, config)
    if kernels is None:
        kernels = block_kernels(problem, config)
    beta, c = config.beta, problem.c

    ax = problem.apply_A(state.x)
    by = problem.apply_B(state.y)
    x_new = group_sweep(problem.x_blocks, kernels[0], state.x, ax,
                        c - by + state.lam / beta, config.sigma1)
    ax_new = problem.apply_A(x_new)
    r_half = ax_new + by - c
    lambda_half = state.lam - config.tau * beta * r_half
    y_new = group_sweep(problem.y_blocks, kernels[1], state.y, by,
                        c - ax_new + lambda_half / beta, config.sigma2)
    r_new = ax_new + problem.apply_B(y_new) - c
    nxt = Iterate(x_new, y_new, lambda_half - config.s * beta * r_new)
    pred = Iterate(nxt.x, nxt.y, state.lam - beta * r_half)

    wk = state.stack()
    wt = pred.stack()
    wn = nxt.stack()
    if not np.all(np.isfinite(wn)):
        raise NonFiniteIterate(f"non-finite iterate at iteration {k}")

    dw = wk - wt
    mdw = mats.apply_M(dw)
    correction_residual = mats.h_norm_sq(mdw)
    gap = wn - (wk - mdw)
    identity_error = math.sqrt(gap @ gap)

    d_stack = np.concatenate(d_components(problem, config, state, pred))
    d_norm_sq = float(d_stack @ d_stack)
    d_inf = float(np.abs(d_stack).max(initial=0.0))

    dist_h = next_dist_sq = slack = float("nan")
    if w_star is not None:
        ws = w_star.stack()
        if dist_sq is None:
            dist_sq = mats.h_norm_sq(wk - ws)
        next_dist_sq = mats.h_norm_sq(wn - ws)
        dist_h = float(np.sqrt(max(dist_sq, 0.0)))
        if mats.in_D:
            slack = dist_sq - next_dist_sq - mats.g_norm_sq(dw)

    record = IterationRecord(
        k=k, w=state, w_tilde=pred,
        feasibility=math.sqrt(r_new @ r_new),
        feasibility_inf=float(np.abs(r_new).max(initial=0.0)),
        correction_residual=correction_residual,
        d_norm_sq=d_norm_sq, d_inf=d_inf,
        identity_error=identity_error,
        dist_H=dist_h, next_dist_sq=next_dist_sq, contraction_slack=slack,
    )
    return nxt, record


def initial_point(problem: BlockProblem, w0: Iterate | None = None) -> Iterate:
    """Default all-zeros start, projected blockwise onto the feasible sets."""
    if w0 is None:
        w0 = Iterate.zeros(problem)
    xs = tuple(project(blk.set, xi) for blk, xi in zip(problem.x_blocks, w0.x))
    ys = tuple(project(blk.set, yj) for blk, yj in zip(problem.y_blocks, w0.y))
    return Iterate(xs, ys, w0.lam)


def solve(problem: BlockProblem, config: SolverConfig, w0: Iterate | None = None,
          w_star: Iterate | None = None,
          mats: structure.StructuralMatrices | None = None,
          validate: bool = True) -> Trace:
    """Iterate until max(||d||_inf, ||A x~ + B y~ - c||_inf) <= tol or the cap.

    A negative tol disables the residual test entirely (the loop always runs
    to max_iters). Raises ValueError on validation failures unless
    validate=False (used by parameter sweeps that deliberately leave the
    certified stepsize regions).
    """
    if validate:
        report = validate_problem(problem)
        if not report.ok:
            raise ValueError("invalid problem: " + "; ".join(report.violations))
        report = validate_config(config, problem)
        if not report.ok:
            raise ValueError("invalid config: " + "; ".join(report.violations))
    if mats is None:
        mats = structure.assemble(problem, config)
    state = initial_point(problem, w0)
    kernels = block_kernels(problem, config)
    rows, tilde_rows, scalars = [state.stack()], [], []
    dist_sq = None
    termination = ITERATION_CAP
    for k in range(config.max_iters):
        state, record = step(problem, config, state, mats=mats, w_star=w_star, k=k, kernels=kernels,
                             dist_sq=dist_sq)
        dist_sq = record.next_dist_sq
        residual = max(record.d_inf, record.feasibility_inf)
        rows.append(state.stack())
        tilde_rows.append(record.w_tilde.stack())
        scalars.append((*_record_scalars(record), residual))
        if residual <= config.tol:
            termination = CONVERGED
            break
    table = np.array(scalars, dtype=float).reshape(-1, len(RECORD_SCALARS) + 1).T.copy()
    arrays = (np.array(rows), np.array(tilde_rows).reshape(-1, problem.total_dim), table)
    for arr in arrays:
        arr.flags.writeable = False
    return Trace(problem=problem, config=config, termination=termination, w_final=state,
                 oracle_stats=tuple(kernel.stats for group in kernels for kernel in group),
                 iterates=arrays[0], predictions=arrays[1],
                 columns=dict(zip(RECORD_SCALARS + ("residual",), table)))
