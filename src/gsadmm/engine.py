"""The grouped symmetric ADMM iteration.

One iteration runs a Jacobian sweep over the x group, a half dual update with
stepsize tau, a Jacobian sweep over the y group against the half-updated
multiplier, and a full dual update with stepsize s. Both sweeps are one
`group_sweep`; every other vector is derived from the group products A x_k,
B y_k, A x+, B y+:

    x_i+ = argmin_{x_i in X_i} L_beta(x_1..x_i..x_p, y, lambda)
           + (sigma1 beta/2) ||A_i (x_i - x_i_k)||^2          (i = 1..p)
    r_half = A x+ + B y_k - c
    lambda_half = lambda - tau beta r_half,   lambda~ = lambda - beta r_half
    y_j+ = argmin_{y_j in Y_j} L_beta(x+, y_1..y_j..y_q, lambda_half)
           + (sigma2 beta/2) ||B_j (y_j - y_j_k)||^2          (j = 1..q)
    r_new = A x+ + B y+ - c
    lambda+ = lambda_half - s beta r_new

The predicted point is w~ = (x+, y+, lambda~). Each iteration verifies online
that the computed step equals the linear correction w_k - M (w_k - w~_k),
which cross-validates the engine against the structural matrices every
iteration; r_new is also the feasibility residual of w~.

`solve` iterates on the stacked point w = (x, y, lambda), the only form of
an iterate inside the engine. Before the first iteration it builds a `Plan`
of everything that stays fixed over the solve: one oracle kernel per block
(the penalty rho of each group is fixed under one config), the structural
matrices, each group's sweep steps, the stacked reference point and the
config's scalars. `advance` is one iteration. It reads w_k from its trace
row, each block writes its prox answer straight into the row of w_{k+1}, and
w~_k takes its primal part from there. It forms the stacks of A_i x_i+ and
B_j y_j+ once each and carries them and their sums into the next iteration,
and carries ||w_{k+1} - w*||_H^2 the same way, so an iteration forms each
group product once and three H/G quadratic forms. Blocks go in batches
(`BlockProblem.batches`): one stacked call per batch for products, prox
points and free-quadratic solves, with the bits of the per-block iteration
in tests/reference_verdict.py. `IterationRecord`s are built only at the
API edge: `Trace.records` builds each record on access.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from . import structure
from .diagnostics import d_components
from .model import (
    BlockProblem,
    Iterate,
    SolverConfig,
    block_sum,
    validate_config,
    validate_problem,
)
from .oracles import OracleStats, ProxKernel, project, prox_solve, sweep_steps

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
    contraction_slack: float  # nan without a reference point or outside the triangle


# The scalar fields of a record, in order; each is one column of a Trace.
RECORD_SCALARS = tuple(f.name for f in fields(IterationRecord) if f.name not in ("k", "w", "w_tilde"))


@dataclass(frozen=True, eq=False)
class Trace:
    """A run as columns: row k of `iterates` is w_k (the last row, one past the
    last record, is `w_final`), row k of `predictions` is w~_k, and `columns`
    maps each name in RECORD_SCALARS, plus "residual" = max(d_inf,
    feasibility_inf), to one value per iteration. All arrays are read-only."""

    problem: BlockProblem
    config: SolverConfig
    termination: str
    oracle_stats: tuple[OracleStats, ...]  # x blocks, then y blocks
    iterates: np.ndarray      # (iterations + 1, N)
    predictions: np.ndarray   # (iterations, N)
    columns: dict[str, np.ndarray]

    @property
    def w_final(self) -> Iterate:
        return Iterate.from_stack(self.problem, self.iterates[-1])

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


def group_sweep(steps, AZ, own_sum, base, sigma, out):
    """Jacobian sweep over one group; every block reads the same snapshot z.

    Row i of AZ is A_i z_i and own_sum their sum; all prox points
    u_i = (base - (own_sum - A_i z_i) + sigma A_i z_i) / (1 + sigma) are formed
    at once, and each step of `sweep_steps` writes its answers into out[cols].
    """
    U = (base - (own_sum - AZ) + sigma * AZ) / (1.0 + sigma)
    for kernel, rows, cols in steps:
        out[cols] = prox_solve(kernel, U[rows])


class Plan:
    """What every iteration of one solve reads and none changes: the problem,
    the config and its scalars, the oracle kernels, the structural matrices,
    each group's sweep steps, and the stacked reference point (None without
    one)."""

    def __init__(self, problem: BlockProblem, config: SolverConfig,
                 mats: structure.StructuralMatrices, w_star: Iterate | None, kernels):
        self.problem, self.config, self.mats, self.kernels = problem, config, mats, kernels
        self.steps = tuple(map(sweep_steps, problem.batches, kernels))
        self.m = problem.total_dim - problem.n  # lambda is w[m:]
        # tau beta and s beta, grouped as the dual updates evaluate them
        self.tau_beta, self.s_beta = config.tau * config.beta, config.s * config.beta
        self.in_D = mats.in_D
        self.ws = None if w_star is None else w_star.stack()

    def start(self, row: np.ndarray) -> tuple:
        """The state `advance` reads for the stacked point row: the stacks of
        A_i x_i and B_j y_j, A x, B y, and ||w - w*||_H^2 (nan without w*)."""
        AX, BY = self.problem.products(0, row), self.problem.products(1, row)
        dist_sq = float("nan") if self.ws is None else self.mats.h_norm_sq(row - self.ws)
        return AX, block_sum(AX), BY, block_sum(BY), dist_sq


def advance(plan: Plan, state: tuple, k: int, wk: np.ndarray, w_next: np.ndarray,
            w_tilde: np.ndarray, scalars: np.ndarray):
    """Iteration k from the row wk and its `state` (see `Plan.start`).

    Writes w_{k+1} into the row w_next, w~_k into the row w_tilde, and the
    record's scalars (RECORD_SCALARS, then the residual) into scalars.
    Returns the state of w_{k+1} and the residual max(d_inf, feasibility_inf).
    """
    AX, ax, BY, by, dist_sq = state
    problem, config, c, m = plan.problem, plan.config, plan.problem.c, plan.m
    beta = config.beta
    lam = wk[m:]
    group_sweep(plan.steps[0], AX, ax, c - by + lam / beta, config.sigma1, w_next)
    AX_new = problem.products(0, w_next)
    ax_new = block_sum(AX_new)
    r_half = ax_new + by - c
    lambda_half = lam - plan.tau_beta * r_half
    group_sweep(plan.steps[1], BY, by, c - ax_new + lambda_half / beta, config.sigma2, w_next)
    BY_new = problem.products(1, w_next)
    by_new = block_sum(BY_new)
    r_new = ax_new + by_new - c
    w_next[m:] = lambda_half - plan.s_beta * r_new
    w_tilde[:m] = w_next[:m]
    w_tilde[m:] = lam - beta * r_half
    if not np.isfinite(w_next).all():
        raise NonFiniteIterate(f"non-finite iterate at iteration {k}")

    mats = plan.mats
    dw = wk - w_tilde
    mdw = mats.M @ dw
    correction_residual = mats.h_norm_sq(mdw)
    gap = w_next - (wk - mdw)
    d_stack = d_components(problem, config, w_tilde - wk)
    d_inf = float(np.abs(d_stack).max(initial=0.0))

    dist_h = dist_next = slack = float("nan")
    ws = plan.ws
    if ws is not None:
        dist_next = mats.h_norm_sq(w_next - ws)
        dist_h = math.sqrt(max(dist_sq, 0.0))
        if plan.in_D:
            slack = dist_sq - dist_next - mats.g_norm_sq(dw)

    feasibility_inf = float(np.abs(r_new).max(initial=0.0))
    residual = max(d_inf, feasibility_inf)
    scalars[:] = (math.sqrt(r_new @ r_new), feasibility_inf, correction_residual,
                  float(d_stack @ d_stack), d_inf, math.sqrt(gap @ gap),
                  dist_h, slack, residual)
    return (AX_new, ax_new, BY_new, by_new, dist_next), residual


def initial_point(problem: BlockProblem, w0: Iterate | None = None) -> Iterate:
    """Default all-zeros start, projected blockwise onto the feasible sets."""
    if w0 is None:
        w0 = Iterate.zeros(problem)
    xs = tuple(project(blk.set, xi) for blk, xi in zip(problem.x_blocks, w0.x))
    ys = tuple(project(blk.set, yj) for blk, yj in zip(problem.y_blocks, w0.y))
    return Iterate(xs, ys, w0.lam)


def _grown(rows: np.ndarray, count: int) -> np.ndarray:
    out = np.empty((count,) + rows.shape[1:])
    out[:len(rows)] = rows
    return out


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
    kernels = block_kernels(problem, config)
    plan = Plan(problem, config, mats, w_star, kernels)
    # row buffers, doubled when full: w_0 .. w_K, w~_0 .. w~_{K-1}, scalars
    cap = min(config.max_iters, 1024)
    iterates = np.empty((cap + 1, problem.total_dim))
    predictions = np.empty((cap, problem.total_dim))
    scalars = np.empty((cap, len(RECORD_SCALARS) + 1))
    iterates[0] = initial_point(problem, w0).stack()
    state = plan.start(iterates[0])
    termination, count = ITERATION_CAP, 0
    for k in range(config.max_iters):
        if k == cap:
            cap *= 2
            iterates, predictions, scalars = (
                _grown(iterates, cap + 1), _grown(predictions, cap), _grown(scalars, cap))
        state, residual = advance(plan, state, k, iterates[k], iterates[k + 1], predictions[k], scalars[k])
        count = k + 1
        if residual <= config.tol:
            termination = CONVERGED
            break
    table = scalars[:count].T.copy()
    arrays = (iterates[:count + 1].copy(), predictions[:count].copy(), table)
    for arr in arrays:
        arr.flags.writeable = False
    return Trace(problem=problem, config=config, termination=termination,
                 oracle_stats=tuple(kernel.stats for group in kernels for kernel in group),
                 iterates=arrays[0], predictions=arrays[1],
                 columns=dict(zip(RECORD_SCALARS + ("residual",), table)))
