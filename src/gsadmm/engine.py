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
(the penalty rho of each group is fixed under one config), the structural
matrices, each group's sweep steps, the stacked reference point, the
config's scalars and the step path, chosen from the block kinds alone
(`all_free`):

- affine, when every block is free-quadratic: an iteration is an affine map
  of w, built once per solve and checked once as the operator identity
  T = I - M (I - P) (`step_operator`); a step is one matrix-vector product
  `K @ w_k + k0`. A failed check, a singular kernel or an iterate past
  HANDOVER_MAX (a diverging run) sends the solve to the sweep, and the
  trace's `step_fallback` says why.
- sweep, for every other instance: `advance` runs both group sweeps, each
  block writing its prox answer into the row of w_{k+1}, and forms the d
  vector and the feasibility residual that the stopping test reads. It
  carries the stacks of A_i x_i+ and B_j y_j+ and their sums into the next
  iteration, so an iteration forms each group product once. Blocks go in
  batches (`BlockProblem.batches`): one stacked call per batch for products,
  prox points and free-quadratic solves, with the bits of the per-block
  iteration in tests/reference_verdict.py.

The loop only steps, CHUNK iterations at a time, each writing the solve row
of w_{k+1} (the iterate, lambda~_k, r_k and d_k; see `Plan`). After a chunk,
one stacked pass (`certify`) forms every record scalar of its rows: the
identity gap, the H/G quadratic forms, the slack from the H-distances of
consecutive rows, the norms and the residual. Each stacked product runs the
BLAS kernel of its per-iteration form, so every value keeps the bits of the
per-iteration certification in tests/reference_verdict.py. The affine step
learns a chunk's residuals only after stepping it: rows past convergence or
past a handover are discarded, and their floating-point events with them.
`Trace.records` builds each `IterationRecord` on access.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from time import perf_counter

import numpy as np

from . import structure
from .diagnostics import d_components
from .model import (
    BlockProblem,
    Free,
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
from .oracles import OracleStats, ProxKernel, Unbounded, project, prox_solve, sweep_steps

CONVERGED = "converged"
ITERATION_CAP = "iteration-cap"


class NonFiniteIterate(RuntimeError):
    """NaN or infinity in an iterate; bad conditioning or an invalid config."""


# An all-free solve whose iterate grows past this hands over to the sweep, so
# that a diverging run overflows at the iteration where the sweep's own
# arithmetic does.
HANDOVER_MAX = 1e300

# Iterations stepped between two certification passes (`solve`).
CHUNK = 64


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
    step_path: str = "sweep"  # "affine" or "sweep" (see `Plan`)
    step_fallback: str | None = None  # why an all-free instance stepped on the sweep
    step_s: float = 0.0      # wall seconds in the stepping loop
    certify_s: float = 0.0   # wall seconds in the certification passes

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


# The step operator passes its check when ||T - (I - M (I - P))||_max is at
# most OPERATOR_RTOL * N * scale (see `step_operator`).
OPERATOR_RTOL = 10.0 * np.finfo(float).eps


def all_free(problem: BlockProblem) -> bool:
    """Whether every block is free-quadratic, which makes an iteration an
    affine map of w (`step_operator`)."""
    return all(isinstance(b.objective, Quadratic) and isinstance(b.set, Free)
               for b in problem.x_blocks + problem.y_blocks)


@dataclass(frozen=True, eq=False)
class StepOperator:
    """One iteration of an all-free-quadratic instance as an affine map:
    K @ w_k + k0 stacks w_{k+1}, lambda~_k and the feasibility residual
    A x+ + B y+ - c (K and k0 are None when a kernel is singular). `error` is
    the measured ||T - (I - M (I - P))||_max, `bound` its tolerance, and
    `why` says why the engine does not step on K (None when it does)."""

    K: np.ndarray | None
    k0: np.ndarray | None
    error: float
    bound: float
    why: str | None


def step_operator(problem: BlockProblem, config: SolverConfig,
                  mats: structure.StructuralMatrices, steps) -> StepOperator:
    """The affine step of an instance whose every block is free-quadratic
    (`all_free`), composed from the kernels' affine answers as the x sweep,
    half dual update, y sweep and full dual update, each an (N+1) x (N+1) map
    of (w, 1), and checked once as an operator identity against the
    structural M."""
    N, n, m, beta = problem.total_dim, problem.n, problem.total_dim - problem.n, config.beta
    R = np.zeros((n, N + 1))  # (w, 1) -> A x + B y - c
    for blk, sl in zip(problem.x_blocks + problem.y_blocks, problem.block_slices):
        R[:, sl] = blk.A
    R[:, N] = -problem.c

    def dual(coef):  # lambda <- lambda - coef (A x + B y - c)
        S = np.eye(N + 1)
        S[m:N] -= coef * R
        return S

    def sweep(group_steps, sigma):  # z_i <- prox at u_i = (lambda/beta - R)/(1 + sigma) + A_i z_i
        S = np.eye(N + 1)
        shared = (S[m:N] / beta - R) / (1.0 + sigma)
        for batch, _, cols in group_steps:
            for kernel, L, c in zip(batch.kernels, batch.affine(), cols):
                U = shared.copy()
                U[:, c] += kernel.A
                S[c] = L[:, :-1] @ U
                S[c, N] += L[:, -1]
        return S

    eye = np.eye(N, N + 1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            X = sweep(steps[0], config.sigma1)
            T = dual(config.s * beta) @ sweep(steps[1], config.sigma2) @ dual(config.tau * beta) @ X
        except Unbounded as exc:
            return StepOperator(None, None, math.inf, 0.0, str(exc))
        lam_tilde = X[m:N] - beta * (R @ X)
        K = np.vstack((T[:N], lam_tilde, R @ T))
        correction = eye - np.vstack((T[:m], lam_tilde))  # I - P
        error = float(np.abs(T[:N] - (eye - mats.M @ correction)).max())
        scale = max(1.0, float(np.abs(T).max()), float(np.abs(mats.M).max() * np.abs(correction).max()))
    bound = OPERATOR_RTOL * N * scale
    ok = error <= bound and np.isfinite(K).all()
    return StepOperator(np.ascontiguousarray(K[:, :N]), K[:, N].copy(), error, bound,
                        None if ok else f"step operator identity error {error:.3e} exceeds {bound:.3e}")


class Plan:
    """What every iteration of one solve reads and none changes: the problem,
    the config and its scalars, the oracle kernels, the structural matrices,
    each group's sweep steps, the stacked reference point (None without
    one), the layout of a solve row, and the affine step: (K, k0, D) of
    `step_operator` and the d vector as a matrix, or None on the sweep.
    `fallback` says why an all-free instance steps on the sweep (None
    otherwise)."""

    def __init__(self, problem: BlockProblem, config: SolverConfig,
                 mats: structure.StructuralMatrices, w_star: Iterate | None, kernels):
        self.problem, self.config, self.mats, self.kernels = problem, config, mats, kernels
        self.steps = tuple(map(sweep_steps, problem.batches, kernels))
        N, n = problem.total_dim, problem.n
        self.N, self.m = N, N - n  # lambda is w[m:]
        # row k + 1 of a solve is w_{k+1}, lambda~_k, r_k = A x+ + B y+ - c
        # (together the output z of the affine step), then d_k
        self.lam_tilde, self.r, self.d = slice(N, N + n), slice(N + n, N + 2 * n), slice(N + 2 * n, 2 * N + n)
        # tau beta and s beta, grouped as the dual updates evaluate them
        self.tau_beta, self.s_beta = config.tau * config.beta, config.s * config.beta
        self.in_D = mats.in_D
        self.ws = None if w_star is None else w_star.stack()
        self.affine = self.fallback = None
        if all_free(problem):
            op = step_operator(problem, config, mats, self.steps)
            self.fallback = op.why
            if op.why is None:
                # the d vector of w~ - w, `d_components` as a matrix
                D = np.column_stack([d_components(problem, config, e) for e in np.eye(N)])
                self.affine = op.K, op.k0, D

    def start(self, row: np.ndarray) -> tuple:
        """The state `advance` reads for the stacked point row: the stacks of
        A_i x_i and B_j y_j, A x and B y."""
        AX, BY = self.problem.products(0, row), self.problem.products(1, row)
        return AX, block_sum(AX), BY, block_sum(BY)

    def predictions(self, rows: np.ndarray) -> np.ndarray:
        """w~_k = (x+, y+, lambda~_k) of each solve row k + 1 in rows."""
        return np.concatenate((rows[:, :self.m], rows[:, self.lam_tilde]), axis=1)


def certify(plan: Plan, block: np.ndarray, out: np.ndarray):
    """The record scalars of consecutive iterations (RECORD_SCALARS, then the
    residual max(d_inf, feasibility_inf)) into the rows of out, from a block
    of solve rows: iteration i of the block goes from w_k in row i to row
    i + 1 (see `Plan`).

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
    d_inf = np.abs(Dd).max(axis=1, initial=0.0)
    dist_h = slack = np.full(len(W), np.nan)
    if plan.ws is not None:
        h = row_forms(mats.H, block[:, :N] - plan.ws)
        dist_h = np.sqrt(np.where(0.0 > h[:-1], 0.0, h[:-1]))  # Python's max(h, 0.0)
        if plan.in_D:
            g = row_forms(mats.G, DW)
            with np.errstate(all="ignore"):  # the scalar formula's float arithmetic never traps
                slack = h[:-1] - h[1:] - g
    feasibility_inf = np.abs(R).max(axis=1, initial=0.0)
    residual = np.where(feasibility_inf > d_inf, feasibility_inf, d_inf)  # Python's max(d_inf, ...)
    out[:] = np.column_stack((np.sqrt(rows_dot(R)), feasibility_inf, correction_residual, rows_dot(Dd),
                              d_inf, np.sqrt(rows_dot(gap)), dist_h, slack, residual))


def advance(plan: Plan, state: tuple, k: int, wk: np.ndarray, z: np.ndarray):
    """Iteration k from the row wk and its `state` (see `Plan.start`), by the
    two group sweeps.

    Writes the solve row of w_{k+1} into z (see `Plan`): the iterate,
    lambda~_k, the feasibility residual and the d vector of w~_k. Returns
    the state of w_{k+1} and the residual max(d_inf, feasibility_inf), which
    is all the stopping test needs; `certify` forms the rest afterwards.
    """
    AX, ax, BY, by = state
    problem, config, c, m, N = plan.problem, plan.config, plan.problem.c, plan.m, plan.N
    beta = config.beta
    lam = wk[m:]
    group_sweep(plan.steps[0], AX, ax, c - by + lam / beta, config.sigma1, z)
    AX_new = problem.products(0, z)
    ax_new = block_sum(AX_new)
    r_half = ax_new + by - c
    lambda_half = lam - plan.tau_beta * r_half
    group_sweep(plan.steps[1], BY, by, c - ax_new + lambda_half / beta, config.sigma2, z)
    BY_new = problem.products(1, z)
    by_new = block_sum(BY_new)
    r_new = ax_new + by_new - c
    z[m:N] = lambda_half - plan.s_beta * r_new
    z[plan.lam_tilde] = lam - beta * r_half
    z[plan.r] = r_new
    if not np.isfinite(z[:N]).all():
        raise NonFiniteIterate(f"non-finite iterate at iteration {k}")
    d = z[plan.d] = d_components(problem, config, plan.predictions(z[None])[0] - wk)
    return (AX_new, ax_new, BY_new, by_new), max(float(np.abs(d).max(initial=0.0)),
                                                 float(np.abs(r_new).max(initial=0.0)))


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


def _caught(work):
    """Run work() with every floating-point event that the caller's errstate
    does not ignore recorded instead of raised or warned; returns work's
    result and whether any such event occurred."""
    events = []
    modes = {kind: "ignore" if mode == "ignore" else "call" for kind, mode in np.geterr().items()}
    with np.errstate(call=lambda *_: events.append(True), **modes):
        return work(), bool(events)


def _replay(plan: Plan, rows: np.ndarray, lo: int, end: int, affine: bool = False, handover: bool = False):
    """Iterations lo .. end - 1 once more, one at a time under the caller's
    errstate, so that a floating-point event raises or warns at the
    iteration, and in the order, where the per-iteration solve meets it: on
    the affine step the step and the d vector, then `certify`; last the step
    of iteration `end` when it handed over to the sweep. The values are those
    already stored."""
    N, (K, k0, D) = plan.N, plan.affine or (None, None, None)
    scalars = np.empty((1, len(RECORD_SCALARS) + 1))
    for k in range(lo, end):
        if affine:
            K @ rows[k, :N] + k0
            D @ (plan.predictions(rows[k + 1:k + 2])[0] - rows[k, :N])
        certify(plan, rows[k:k + 2], scalars)
    if handover:
        K @ rows[end, :N] + k0


def _affine_chunk(plan: Plan, rows: np.ndarray, scalars: np.ndarray, lo: int, hi: int):
    """Iterations lo .. hi - 1 on the affine step, each one `K @ w_k + k0`
    into its solve row; then the d vectors and the record scalars
    (`certify`) of those before the first iterate past HANDOVER_MAX, `stop`.
    Returns stop and the time the stepping ended."""
    N, (K, k0, D) = plan.N, plan.affine
    W, Z = rows[:, :N], rows[:, :plan.d.start]
    for k in range(lo, hi):
        z = Z[k + 1]
        np.matmul(K, W[k], out=z)
        z += k0
    stepped = perf_counter()
    bad = np.flatnonzero(~(np.abs(W[lo + 1:hi + 1]).max(axis=1) <= HANDOVER_MAX))  # also when not finite
    stop = lo + int(bad[0]) if len(bad) else hi
    block = rows[lo:stop + 1]
    block[1:, plan.d] = matvecs(D, plan.predictions(block[1:]) - block[:-1, :N])
    certify(plan, block, scalars[lo:stop])
    return stop, stepped


def solve(problem: BlockProblem, config: SolverConfig, w0: Iterate | None = None,
          w_star: Iterate | None = None,
          mats: structure.StructuralMatrices | None = None,
          validate: bool = True) -> Trace:
    """Iterate until max(||d||_inf, ||A x~ + B y~ - c||_inf) <= tol or the cap.

    A negative tol disables the residual test entirely (the loop always runs
    to max_iters). Raises ValueError on validation failures unless
    validate=False (used by parameter sweeps that deliberately leave the
    certified stepsize regions).

    Steps CHUNK iterations at a time and certifies each chunk afterwards
    (see the module docstring). A floating-point event in a kept row raises
    or warns under the caller's errstate as the per-iteration order meets it
    (`_caught`, `_replay`); the trace records the seconds spent stepping and
    certifying.
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
    N, tol = plan.N, config.tol
    # buffers, doubled when full: solve rows 0 .. K (see `Plan`), record scalars
    cap = min(config.max_iters, 1024)
    rows = np.empty((cap + 1, plan.d.stop))
    scalars = np.empty((cap, len(RECORD_SCALARS) + 1))
    rows[0, :N] = initial_point(problem, w0).stack()
    state = None if plan.affine else plan.start(rows[0, :N])
    termination, count, affine_count, fallback = ITERATION_CAP, 0, 0, plan.fallback
    step_s = certify_s = 0.0
    while count < config.max_iters and termination == ITERATION_CAP:
        lo, hi = count, min(count + CHUNK, config.max_iters)
        if hi > cap:
            cap = min(2 * cap, config.max_iters)
            rows, scalars = _grown(rows, cap + 1), _grown(scalars, cap)
        start = perf_counter()
        if state is None:  # the affine step
            (stop, stepped), events = _caught(lambda: _affine_chunk(plan, rows, scalars, lo, hi))
            done = np.flatnonzero(scalars[lo:stop, -1] <= tol)
            end = lo + int(done[0]) + 1 if len(done) else stop
            handover = end < hi and not len(done)  # an iterate past HANDOVER_MAX
            if events:
                _replay(plan, rows, lo, end, affine=True, handover=handover)
            if handover:
                affine_count = end
                fallback = f"iterate past {HANDOVER_MAX:g} at iteration {end}; the sweep from there"
                state = plan.start(rows[end, :N])
        else:
            end = lo
            try:
                for k in range(lo, hi):
                    state, residual = advance(plan, state, k, rows[k, :N], rows[k + 1])
                    end = k + 1
                    if residual <= tol:
                        break
            finally:  # certify what was stepped, also when a step raised
                stepped = perf_counter()
                _, events = _caught(lambda: certify(plan, rows[lo:end + 1], scalars[lo:end]))
                if events:
                    _replay(plan, rows, lo, end)
        step_s += stepped - start
        certify_s += perf_counter() - stepped
        count = end
        if end > lo and scalars[end - 1, -1] <= tol:
            termination = CONVERGED
    if plan.affine is not None:  # one oracle call per block and iteration, as on the sweep
        for kernel in kernels[0] + kernels[1]:
            kernel.stats.calls += count if state is None else affine_count
    table = scalars[:count].T.copy()
    arrays = (rows[:count + 1, :N].copy(), plan.predictions(rows[1:count + 1]), table)
    for arr in arrays:
        arr.flags.writeable = False
    return Trace(problem=problem, config=config, termination=termination,
                 oracle_stats=tuple(kernel.stats for group in kernels for kernel in group),
                 iterates=arrays[0], predictions=arrays[1],
                 columns=dict(zip(RECORD_SCALARS + ("residual",), table)),
                 step_path="sweep" if plan.affine is None else "affine", step_fallback=fallback,
                 step_s=step_s, certify_s=certify_s)
