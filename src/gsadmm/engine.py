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

The predicted point is w~ = (x+, y+, lambda~). Every iteration is certified
against the linear correction w_k - M (w_k - w~_k), which cross-validates the
engine against the structural matrices; r_new is also the feasibility
residual of w~.

`solve` iterates on the stacked point w = (x, y, lambda), the only form of
an iterate inside the engine. Before the first iteration it builds a `Plan`
of everything that stays fixed over the solve: one oracle kernel per block
at its group's rho = (1 + sigma) beta, the structural matrices, each group's
sweep steps, the stacked reference point, the config's scalars, the layout
of a solve row and the step operators. Every box, nonnegative and
l1 block's answer has a pattern (`ProxKernel.pattern`: the active set, or
the signs), and on a fixed pattern an iteration is an affine map of w. Each
iteration takes one of two steps, chosen from the run's own patterns:

- affine: one matrix-vector product `K @ w_k + k0` for w_{k+1}, lambda~_k,
  the feasibility residual and the rows that each pattern's KKT test reads.
  `Plan.operator` builds K for a pattern once per solve and checks it once
  (`step_operator`): the multiplier rows as the identity T = I - M (I - P),
  the primal rows as each block's stationarity at w~ with `structure`'s Q.
  A pattern whose operator fails a check (or whose kernel is singular) is
  never tried again in that solve. After each chunk the rows are tested
  against their pattern (`Plan.misses`); the first that fails, and every
  later one, is discarded and its iteration redone on the sweep. An iterate
  past HANDOVER_MAX (a diverging run) sends the rest of the solve to the
  sweep. The trace keeps every operator built (`Trace.operators`); its
  `step_fallback` says why the run handed over or an operator failed.
- sweep, the cold path and the reference: `advance` runs both group sweeps
  from the row of w_k alone, each block writing its prox answer into the
  row of w_{k+1}, and forms the feasibility residual and the d vector with
  the same `Plan.D` product as the affine step; the stopping test reads
  them through `residuals`, one row at a time. Once the run's pattern has
  held for HOLD_ITERS consecutive sweep iterations the solve goes on by that
  pattern's affine step.

An all-free-quadratic instance has the empty pattern, which holds from the
first iteration, so it steps on the affine map throughout unless its check
fails.

The loop steps CHUNK iterations at a time, each writing the solve row of
w_{k+1} (the iterate, lambda~_k, r_k, the test rows and d_k; see `Plan`),
and then only decides: `residuals` gives the stopping test, the affine step
its pattern tests and handover (it discards the rows past convergence, a
handover or a miss), and `_repeat` looks for a cycle. Arithmetic on rows that
may be discarded runs under np.errstate(all="ignore"). The other record
scalars are formed once per kept row by `certify`, in one stacked call under
the caller's errstate over the rows kept since the last: before a buffer
grows (its temporaries stay within the old size), before a repeat fill (it
copies certified scalars) and at the end, also when a step raised. Each
stacked product runs the BLAS kernel of its per-iteration form, so every
value keeps the bits of the per-iteration certification in
tests/reference_verdict.py. A buffer that would grow, with the trace's
copies, past TRACE_BYTES_MAX bytes raises MemoryError instead.
`Trace.records` builds each `IterationRecord` on access.

A run forced past convergence reaches the roundoff floor long before its cap,
and there the affine step starts to reproduce its own input. After an affine
chunk lo .. hi - 1 that kept every row, did not meet the tolerance and ends
before the cap, `_repeat` looks for the last w_j of the chunk with the bits
of w_hi. The step, the pattern test, D and the certification read only w_k
and the row of w_{k+1}, so the run is periodic from there with period
p = hi - j: iteration k >= hi repeats iteration `diagnostics.copy_source(k)`
= j + (k - j) % p, its record scalars and its row k + 1 alike. The rest of the
run is copied, bit for bit what stepping it would write, and counted as affine
iterations and oracle calls; `Trace.repeat` is (j, p).
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from . import structure
from .diagnostics import copy_source, d_components
from .model import (
    L1,
    BlockProblem,
    Iterate,
    Quadratic,
    SolverConfig,
    block_sum,
    matvecs,
    rows_dot,
    validate_config,
    validate_problem,
)
from .structure import row_forms
from .oracles import OracleStats, ProxKernel, Unbounded, bounds, project, prox_solve

CONVERGED = "converged"
ITERATION_CAP = "iteration-cap"


class NonFiniteIterate(RuntimeError):
    """NaN or infinity in an iterate; bad conditioning or an invalid config."""


# An affine solve whose iterate grows past this hands over to the sweep, so
# that a diverging run overflows at the iteration where the sweep's own
# arithmetic does.
HANDOVER_MAX = 1e300

# Iterations stepped between two decisions of the loop (`solve`).
CHUNK = 64

# A solve's buffers and its trace's copies of them take at most this many
# bytes together; a buffer that would grow past it raises MemoryError
# before anything is allocated (`_grown`).
TRACE_BYTES_MAX = 2 * 1024 ** 3


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


# The scalar fields of a record, in order: the columns of a Trace and of a solve's scalar buffer (then the residual).
RECORD_SCALARS = ("feasibility", "feasibility_inf", "correction_residual", "d_norm_sq", "d_inf",
                  "identity_error", "dist_H", "contraction_slack")


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
    operators: tuple[StepOperator, ...] = ()  # every step operator the solve built, in build order
    handover: str | None = None  # why the run handed over to the sweep, when it did
    step_s: float = 0.0      # wall seconds stepping, affine rows and sweeps
    certify_s: float = 0.0   # the loop's other wall seconds: chunk tails, certification, fill, growth
    affine_rows: np.ndarray | None = None  # whether each iteration took the affine step
    pattern_misses: tuple[int, ...] = ()   # iterations whose affine row failed its pattern
    repeat: tuple[int, int] | None = None  # (j, period) when w_{j+period} repeated w_j and the rest was copied

    @property
    def step_path(self) -> str:  # "affine" when a step operator passed its checks, else "sweep"
        return "affine" if any(op.why is None for op in self.operators) else "sweep"

    @property
    def step_fallback(self) -> str | None:  # the handover, else the first failed operator check
        return self.handover or next((op.why for op in self.operators if op.why is not None), None)

    @property
    def affine_iters(self) -> int:
        return 0 if self.affine_rows is None else int(self.affine_rows.sum())

    @property
    def w_final(self) -> Iterate:
        return Iterate.from_stack(self.problem, self.iterates[-1])

    @property
    def records(self) -> "Records":
        return Records(self)


class Records(Sequence):
    """Read-only sequence of a trace's IterationRecords, each built on access;
    its `w` and `w_tilde` parts are views of the trace's rows. Lazy, so that
    `len` builds none: a list built up front costs about a second a catalog pass."""

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


def group_sweep(steps, AZ, own_sum, base, sigma, out):
    """Jacobian sweep over one group; every block reads the same snapshot z.

    Row i of AZ is A_i z_i and own_sum their sum; all prox points
    u_i = (base - (own_sum - A_i z_i) + sigma A_i z_i) / (1 + sigma) are formed
    at once, and step i, block i's (kernel, slice of w), writes its answer
    at u_i into out.
    """
    U = (base - (own_sum - AZ) + sigma * AZ) / (1.0 + sigma)
    for (kernel, cols), u in zip(steps, U):
        out[cols] = prox_solve(kernel, u)


# The step operator passes its checks when ||T - (I - M (I - P))||_max and
# the stationarity residual of its primal rows are each at most
# OPERATOR_RTOL * N * scale (see `step_operator`).
OPERATOR_RTOL = 10.0 * np.finfo(float).eps

# The sweep builds the operator of a pattern once the pattern has held for
# this many consecutive sweep iterations.
HOLD_ITERS = 2


@dataclass(frozen=True, eq=False)
class StepOperator:
    """One iteration on a fixed pattern as an affine map: K @ w_k + k0 stacks
    w_{k+1}, lambda~_k, the feasibility residual A x+ + B y+ - c and the test
    rows of each patterned kernel (`ProxKernel.affine`; K and k0 are None
    when a kernel is singular). `patterns` is the pattern of each kernel of
    `Plan.patterned`. `error` is the measured ||T - (I - M (I - P))||_max,
    `bound` its tolerance, and `why` says why the engine does not step on K
    (None when it does)."""

    K: np.ndarray | None
    k0: np.ndarray | None
    patterns: tuple
    error: float
    bound: float
    why: str | None


def step_operator(plan: Plan, patterns: tuple = ()) -> StepOperator:
    """The affine step of the plan's solve on the pattern held by each
    patterned kernel (`patterns`, in the order of `Plan.patterned`; empty
    when every block is free-quadratic), composed from the kernels' affine
    answers (`ProxKernel.affine`) as the x sweep, half dual update, y sweep
    and full dual update, each an (N+1) x (N+1) map of (w, 1), and checked
    once on every row.

    The multiplier rows are checked as the paper's identity against the
    structural M. The primal rows, where that identity holds whatever the
    answers are, are checked as the blocks' optimality conditions at the
    prediction w~ = P (w, 1): on every free (l1: nonzero) component the rows
    of grad f(P) - A' lambda~ + Q (P - I) vanish, with Q from `structure`,
    and every other component is the constant of its pattern.
    """
    problem, config, mats, steps = plan.problem, plan.config, plan.mats, plan.steps
    N, n, m, beta = plan.N, problem.n, plan.m, config.beta
    R = np.zeros((n, N + 1))  # (w, 1) -> A x + B y - c
    for blk, sl in zip(problem.x_blocks + problem.y_blocks, problem.block_slices):
        R[:, sl] = blk.A
    R[:, N] = -problem.c
    I = np.eye(N + 1)
    lam = I[m:N] / beta - R  # lambda/beta - (A x + B y - c)
    pending = iter(patterns)
    answers, tests = [], ([], [])  # (cols, pattern) of every block; test rows by group

    def dual(coef):  # lambda <- lambda - coef (A x + B y - c)
        S = I.copy()
        S[m:N] -= coef * R
        return S

    def sweep(group, sigma):  # z_i <- prox at u_i = (lambda/beta - R)/(1 + sigma) + A_i z_i
        S = I.copy()
        for kernel, c in steps[group]:
            pattern = next(pending) if kernel.patterned else None
            L, V = kernel.affine(pattern)
            U = lam / (1.0 + sigma)
            U[:, c] += kernel.A
            S[c] = L[:, :-1] @ U
            S[c, N] += L[:, -1]
            answers.append((c, pattern))
            if V is not None:
                test = V[:, :-1] @ U
                test[:, N] += V[:, -1]
                tests[group].append(test)
        return S

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            X = sweep(0, config.sigma1)
            Y = sweep(1, config.sigma2)
        except Unbounded as exc:
            return StepOperator(None, None, patterns, math.inf, 0.0, str(exc))
        half = dual(config.tau * beta)
        T = dual(config.s * beta) @ Y @ half @ X
        lam_tilde = X[m:N] - beta * (R @ X)
        rows = [T[:N], lam_tilde, R @ T, *tests[0]]
        if tests[1]:
            rows.append(np.vstack(tests[1]) @ (half @ X))
        K = np.vstack(rows)
        correction = I[:N] - np.vstack((T[:m], lam_tilde))  # I - P
        correction_max = float(np.abs(correction).max())
        error = float(np.abs(T[:N] - (I[:N] - mats.M @ correction)).max())
        scale = max(1.0, float(np.abs(T).max()), float(np.abs(mats.M).max() * correction_max))
        # the primal rows: stationarity of each block at w~
        shift = -(mats.Q[:m] @ correction)  # Q (P - I)
        residual, constant, grad_max, dual_max = np.zeros((m, N + 1)), True, 0.0, 0.0
        for blk, (c, pattern) in zip(problem.x_blocks + problem.y_blocks, answers):
            f, Z = blk.objective, T[c]
            # grad f(P) as a map of (w, 1); on an l1 block's nonzero components weight sign
            grad = f.P @ Z if isinstance(f, Quadratic) else np.zeros_like(Z)
            grad[:, N] += f.weight * pattern if isinstance(f, L1) else f.r
            pull = blk.A.T @ lam_tilde
            free = slice(None) if pattern is None else pattern != 0 if isinstance(f, L1) else pattern == 0
            residual[c][free] = (grad - pull + shift[c])[free]
            grad_max = max(grad_max, float(np.abs(grad[free]).max(initial=0.0)))
            dual_max = max(dual_max, float(np.abs(pull[free]).max(initial=0.0)))
            if pattern is not None:
                fixed = np.zeros(blk.dim) if isinstance(f, L1) else np.where(pattern == 1, *bounds(blk.set, blk.dim))
                constant = constant and not np.abs(Z[~free, :N]).any() and np.array_equal(Z[~free, N], fixed[~free])
        stationarity = float(np.abs(residual).max())
        primal_scale = max(1.0, grad_max, dual_max, float(np.abs(mats.Q[:m]).max() * correction_max))
    bound = OPERATOR_RTOL * N * scale
    primal_bound = OPERATOR_RTOL * N * primal_scale
    why = None
    if not (error <= bound and np.isfinite(K).all()):
        why = f"step operator identity error {error:.3e} exceeds {bound:.3e}"
    elif not stationarity <= primal_bound:
        why = f"step operator stationarity residual {stationarity:.3e} exceeds {primal_bound:.3e}"
    elif not constant:
        why = "step operator moves a component that its pattern holds constant"
    return StepOperator(np.ascontiguousarray(K[:, :N]), K[:, N].copy(), patterns, error, bound, why)


def _key(patterns) -> bytes:
    return b"".join(p.tobytes() for p in patterns)


class Plan:
    """What every iteration of one solve reads: the problem, the config and
    its scalars, the oracle kernels (`kernels`: x blocks, then y blocks, each
    built here at its group's rho = (1 + sigma) beta), each group's sweep
    steps (every block's kernel with its slice of w), the structural
    matrices, the stacked reference point (None without one), the layout of
    a solve row, the patterned kernels (`patterned`: the steps whose kernel
    is `ProxKernel.patterned`), and `D`, the d vector of w~ - w as a matrix
    (`d_components` of the identity's rows), which both steps multiply.

    The plan owns the solve's step operators: `operator(patterns)` builds a
    pattern's `step_operator` once per solve and returns it, or None when it
    failed a check; such a pattern is never tried again. `operators` holds
    every operator built, passed or not, by pattern in build order."""

    def __init__(self, problem: BlockProblem, config: SolverConfig,
                 mats: structure.StructuralMatrices, w_star: Iterate | None):
        self.problem, self.config, self.mats = problem, config, mats
        self.kernels = kernels = tuple(
            tuple(ProxKernel(blk.objective, blk.set, blk.A, (1.0 + sigma) * config.beta) for blk in blocks)
            for blocks, sigma in ((problem.x_blocks, config.sigma1), (problem.y_blocks, config.sigma2)))
        slices = problem.block_slices
        self.steps = (tuple(zip(kernels[0], slices[:problem.p])), tuple(zip(kernels[1], slices[problem.p:])))
        self.patterned = tuple(step for group in self.steps for step in group if step[0].patterned)
        N, n = problem.total_dim, problem.n
        self.N, self.m = N, N - n  # lambda is w[m:]
        # row k + 1 of a solve is w_{k+1}, lambda~_k, r_k = A x+ + B y+ - c and
        # the test rows (together the output z of the affine step), then d_k
        tests = N + 2 * n + sum(kernel.test_rows for kernel, _ in self.patterned)
        self.lam_tilde, self.r = slice(N, N + n), slice(N + n, N + 2 * n)
        self.tests, self.d = slice(N + 2 * n, tests), slice(tests, tests + N - n)
        # tau beta and s beta, grouped as the dual updates evaluate them
        self.tau_beta, self.s_beta = config.tau * config.beta, config.s * config.beta
        self.in_D = mats.in_D
        self.ws = None if w_star is None else w_star.stack()
        self.D = np.ascontiguousarray(d_components(problem, config, np.eye(N)).T)
        self.operators: dict[bytes, StepOperator] = {}

    def operator(self, patterns: tuple) -> StepOperator | None:
        """The step operator of the patterns (see the class docstring)."""
        key = _key(patterns)
        op = self.operators.get(key)
        if op is None:
            op = self.operators[key] = step_operator(self, patterns)
        return op if op.why is None else None

    def pattern(self, row: np.ndarray) -> tuple:
        """The pattern of each patterned kernel's answer in the solve row just
        written by the sweep (`ProxKernel.pattern`)."""
        return tuple(kernel.pattern(row[cols]) for kernel, cols in self.patterned)

    def misses(self, op: StepOperator, block: np.ndarray) -> np.ndarray:
        """Whether each solve row of block, stepped on op, fails its pattern
        (`ProxKernel.holds`)."""
        ok, at = np.ones(len(block), dtype=bool), self.tests.start
        for (kernel, cols), pattern in zip(self.patterned, op.patterns):
            ok &= kernel.holds(pattern, block[:, cols], block[:, at:at + kernel.test_rows])
            at += kernel.test_rows
        return ~ok

    def predictions(self, rows: np.ndarray) -> np.ndarray:
        """w~_k = (x+, y+, lambda~_k) of each solve row k + 1 in rows."""
        return np.concatenate((rows[:, :self.m], rows[:, self.lam_tilde]), axis=1)


def residuals(plan: Plan, block: np.ndarray, out: np.ndarray):
    """feasibility_inf, d_inf and the residual max(d_inf, feasibility_inf) of
    each iteration of a block of solve rows (see `certify`) into out."""
    feasibility_inf = np.abs(block[1:, plan.r]).max(axis=1, initial=0.0)
    d_inf = np.abs(block[1:, plan.d]).max(axis=1, initial=0.0)
    out[:, RECORD_SCALARS.index("feasibility_inf")], out[:, RECORD_SCALARS.index("d_inf")] = feasibility_inf, d_inf
    out[:, -1] = np.where(feasibility_inf > d_inf, feasibility_inf, d_inf)  # Python's max(d_inf, ...)


def certify(plan: Plan, block: np.ndarray, out: np.ndarray):
    """The record scalars of consecutive iterations (RECORD_SCALARS, then the
    residual) but those of `residuals` into the rows of out, from a block of
    solve rows: iteration i of the block goes from w_k in row i to row i + 1
    (see `Plan`).

    Each product is stacked (`matvecs`, `structure.row_forms`, `rows_dot`),
    so every value has the bits of the same formula taken one iteration at a
    time, and the operations run in that formula's order. The slack is
    h_k - h_{k+1} - ||w_k - w~_k||_G^2 with h_k = ||w_k - w*||_H^2, so no
    distance is carried from one iteration to the next.
    """
    mats, N = plan.mats, plan.N
    W, Wn = block[:-1, :N], block[1:, :N]
    R, Dd = block[1:, plan.r], block[1:, plan.d]
    DW = W - plan.predictions(block[1:])
    MDW = matvecs(mats.M, DW)
    correction_residual = row_forms(mats.H, MDW)
    gap = Wn - (W - MDW)
    dist_h = slack = np.full(len(W), np.nan)
    if plan.ws is not None:
        h = row_forms(mats.H, block[:, :N] - plan.ws)
        dist_h = np.sqrt(np.where(0.0 > h[:-1], 0.0, h[:-1]))  # Python's max(h, 0.0)
        if plan.in_D:
            g = row_forms(mats.G, DW)
            with np.errstate(all="ignore"):  # the scalar formula's float arithmetic never traps
                slack = h[:-1] - h[1:] - g
    names = ("feasibility", "correction_residual", "d_norm_sq", "identity_error", "dist_H", "contraction_slack")
    out[:, [RECORD_SCALARS.index(name) for name in names]] = np.column_stack(
        (np.sqrt(rows_dot(R)), correction_residual, rows_dot(Dd), np.sqrt(rows_dot(gap)), dist_h, slack))


def advance(plan: Plan, k: int, wk: np.ndarray, z: np.ndarray):
    """Iteration k from the row wk, by the two group sweeps.

    Writes the solve row of w_{k+1} into z (see `Plan`): the iterate,
    lambda~_k, the feasibility residual and the d vector `D @ (w~_k - w_k)`.
    `residuals` and `certify` form the record scalars from it afterwards.
    """
    problem, config, c, m, N = plan.problem, plan.config, plan.problem.c, plan.m, plan.N
    beta = config.beta
    lam = wk[m:]
    AX, BY = problem.products(0, wk), problem.products(1, wk)
    by = block_sum(BY)
    group_sweep(plan.steps[0], AX, block_sum(AX), c - by + lam / beta, config.sigma1, z)
    ax_new = block_sum(problem.products(0, z))
    r_half = ax_new + by - c
    lambda_half = lam - plan.tau_beta * r_half
    group_sweep(plan.steps[1], BY, by, c - ax_new + lambda_half / beta, config.sigma2, z)
    r_new = ax_new + block_sum(problem.products(1, z)) - c
    z[m:N] = lambda_half - plan.s_beta * r_new
    z[plan.lam_tilde] = lam - beta * r_half
    z[plan.r] = r_new
    if not np.isfinite(z[:N]).all():
        raise NonFiniteIterate(f"non-finite iterate at iteration {k}")
    z[plan.d] = plan.D @ (plan.predictions(z[None])[0] - wk)


def initial_point(problem: BlockProblem, w0: Iterate | None = None) -> Iterate:
    """Default all-zeros start, projected blockwise onto the feasible sets."""
    if w0 is None:
        w0 = Iterate.zeros(problem)
    xs = tuple(project(blk.set, xi) for blk, xi in zip(problem.x_blocks, w0.x))
    ys = tuple(project(blk.set, yj) for blk, yj in zip(problem.y_blocks, w0.y))
    return Iterate(xs, ys, w0.lam)


def _grown(plan: Plan, cap: int, *buffers: np.ndarray) -> tuple[np.ndarray, ...]:
    """The buffers (solve rows, record scalars, affine flags) grown to cap
    iterations; MemoryError when they and the trace's copies of them
    (iterates, predictions, columns, affine rows) would take more than
    TRACE_BYTES_MAX bytes."""
    columns = len(RECORD_SCALARS) + 1
    need = 8 * ((cap + 1) * (plan.d.stop + plan.N) + cap * (2 * columns + plan.N)) + 2 * cap
    if need > TRACE_BYTES_MAX:
        raise MemoryError(f"a trace of {cap + 1} rows needs {need} bytes, above the bound of {TRACE_BYTES_MAX}")
    out = tuple(np.empty((count,) + old.shape[1:], dtype=old.dtype) for old, count in zip(buffers, (cap + 1, cap, cap)))
    for new, old in zip(out, buffers):
        new[:len(old)] = old
    return out


def _repeat(rows: np.ndarray, N: int, lo: int, hi: int) -> int | None:
    """The last j in lo .. hi - 1 whose iterate w_j has the bits of w_hi, or
    None. Each iterate is compared as one string of bytes, so -0.0 and 0.0
    differ."""
    w = rows[lo:hi + 1, :N].view(f"V{rows.itemsize * N}")[:, 0]
    match = np.flatnonzero(w[:-1] == w[-1])
    return lo + int(match[-1]) if len(match) else None


def _affine_chunk(plan: Plan, op: StepOperator, rows: np.ndarray, scalars: np.ndarray, lo: int, hi: int, tol: float):
    """Iterations lo .. hi - 1 on the affine step, each one `K @ w_k + k0`
    into its solve row (a gemv into the row's view, then k0 added in place:
    the bytes of the 1-d product); then, under np.errstate(all="ignore"), the
    d vectors and `residuals` of those before `stop`, the first whose iterate is past
    HANDOVER_MAX or whose row fails its pattern (`Plan.misses`). Returns end,
    one past the last iteration kept (the first residual at most tol, else
    stop - 1), why iteration end leaves the affine step (None, "handover" or
    "miss") and the time the stepping ended."""
    N, dot, k0, add = plan.N, op.K.dot, op.k0, np.add
    with np.errstate(all="ignore"):
        for w, z in zip(list(rows[lo:hi, :N]), list(rows[lo + 1:hi + 1, :plan.d.start])):
            dot(w, z)  # np.dot(K, w, out=z) without its dispatcher
            add(z, k0, out=z)
        stepped = perf_counter()
        block = rows[lo + 1:hi + 1]
        past = ~(np.abs(block[:, :N]).max(axis=1) <= HANDOVER_MAX)  # also when not finite
        bad = np.flatnonzero(past | plan.misses(op, block)) if plan.patterned else np.flatnonzero(past)
        stop = lo + int(bad[0]) if len(bad) else hi
        block = rows[lo:stop + 1]
        block[1:, plan.d] = matvecs(plan.D, plan.predictions(block[1:]) - block[:-1, :N])
        residuals(plan, block, scalars[lo:stop])
    done = np.flatnonzero(scalars[lo:stop, -1] <= tol)
    end = lo + int(done[0]) + 1 if len(done) else stop
    kept = rows[lo:end + 1]
    if not np.isfinite(kept[1:, plan.d]).all():  # under the caller's errstate, as the per-row product
        matvecs(plan.D, plan.predictions(kept[1:]) - kept[:-1, :N])
    left = None if len(done) or end == hi else "handover" if past[end - lo] else "miss"
    return end, left, stepped


def solve(problem: BlockProblem, config: SolverConfig, w0: Iterate | None = None,
          w_star: Iterate | None = None,
          mats: structure.StructuralMatrices | None = None,
          validate: bool = True) -> Trace:
    """Iterate until max(||d||_inf, ||A x~ + B y~ - c||_inf) <= tol or the cap.

    A negative tol disables the residual test entirely (the loop always runs
    to max_iters). Raises ValueError on validation failures unless
    validate=False (used by parameter sweeps that deliberately leave the
    certified stepsize regions).

    Steps CHUNK iterations at a time and certifies each kept row once,
    before a buffer grows, before a repeat fill and at the end (see the
    module docstring): arithmetic on rows that may be discarded runs under
    np.errstate(all="ignore"), the certification under the caller's
    errstate. Once an affine iterate repeats an earlier one of its chunk bit
    for bit, the rest of the run is copied from the cycle instead of stepped
    (`Trace.repeat`). Raises MemoryError where the buffers would grow past
    TRACE_BYTES_MAX bytes.
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
    plan = Plan(problem, config, mats, w_star)
    N, tol = plan.N, config.tol
    # buffers, doubled when full: solve rows 0 .. K (see `Plan`), record
    # scalars, and whether each iteration took the affine step
    cap = min(config.max_iters, 1024)
    rows = np.empty((cap + 1, plan.d.stop))
    scalars = np.empty((cap, len(RECORD_SCALARS) + 1))
    affine = np.empty(cap, dtype=bool)
    rows[0, :N] = initial_point(problem, w0).stack()
    op = None if plan.patterned else plan.operator(())  # the empty pattern holds from the start
    termination, count, handover, repeat = ITERATION_CAP, 0, None, None
    misses, held, run = [], None, 0  # the sweep's last pattern and for how many iterations it held
    certified, step_s, began = 0, 0.0, perf_counter()  # iterations 0 .. certified - 1 are certified
    try:
        while count < config.max_iters and termination == ITERATION_CAP:
            lo, hi = count, min(count + CHUNK, config.max_iters)
            if hi > cap:  # certify first, so that its temporaries stay within the old buffers' size
                certify(plan, rows[certified:count + 1], scalars[certified:count])
                certified, cap = count, min(2 * cap, config.max_iters)
                rows, scalars, affine = _grown(plan, cap, rows, scalars, affine)
            start = perf_counter()
            if op is not None:
                count, left, stepped = _affine_chunk(plan, op, rows, scalars, lo, hi, tol)
                affine[lo:count] = True
                if left:  # iteration `count` goes to the sweep
                    if left == "handover":
                        handover = f"iterate past {HANDOVER_MAX:g} at iteration {count}; the sweep from there"
                    else:
                        misses.append(count)
                    op, held, run = None, None, 0
            else:
                for k in range(lo, hi):
                    advance(plan, k, rows[k, :N], rows[k + 1])
                    count = k + 1
                    residuals(plan, rows[k:k + 2], scalars[k:k + 1])
                    if scalars[k, -1] <= tol:
                        break
                    if plan.patterned and handover is None:
                        pattern = plan.pattern(rows[k + 1])
                        run = run + 1 if held is not None and _key(pattern) == _key(held) else 1
                        held = pattern
                        if run >= HOLD_ITERS and (op := plan.operator(pattern)) is not None:
                            break
                stepped = perf_counter()
                affine[lo:count] = False
            step_s += stepped - start
            if count > lo and scalars[count - 1, -1] <= tol:
                termination = CONVERGED
            elif count == hi < config.max_iters and affine[lo] and (j := _repeat(rows, N, lo, hi)) is not None:
                # w_hi = w_j, so iteration k >= hi repeats iteration src and
                # row k + 1 is row src + 1; the fill copies certified scalars
                certify(plan, rows[certified:count + 1], scalars[certified:count])
                certified, repeat = count, (j, hi - j)
                if cap < config.max_iters:
                    cap = config.max_iters
                    rows, scalars, affine = _grown(plan, cap, rows, scalars, affine)
                count = certified = config.max_iters
                src = copy_source(np.arange(hi, count), repeat)
                rows[hi + 1:count + 1] = rows[src + 1]
                scalars[hi:count] = scalars[src]
                affine[hi:count] = True
    finally:  # certify the kept rows not yet certified, also when a step raised
        if certified < count:
            certify(plan, rows[certified:count + 1], scalars[certified:count])
        certify_s = perf_counter() - began - step_s
    for kernel in plan.kernels[0] + plan.kernels[1]:  # one oracle call per block and affine iteration, as on the sweep
        kernel.stats.calls += int(affine[:count].sum())
    table = scalars[:count].T.copy()
    arrays = (rows[:count + 1, :N].copy(), plan.predictions(rows[1:count + 1]), table, affine[:count].copy())
    for arr in arrays:
        arr.flags.writeable = False
    return Trace(problem=problem, config=config, termination=termination,
                 oracle_stats=tuple(kernel.stats for group in plan.kernels for kernel in group),
                 iterates=arrays[0], predictions=arrays[1],
                 columns=dict(zip(RECORD_SCALARS + ("residual",), table)),
                 operators=tuple(plan.operators.values()), handover=handover,
                 step_s=step_s, certify_s=certify_s, affine_rows=arrays[3], pattern_misses=tuple(misses),
                 repeat=repeat)
