"""Convergence diagnostics computed from iteration traces.

Everything here is a pure function of (problem, config, trace) plus the
structural matrices: the per-iteration residual vector d, the O(1/t)
nonergodic envelope, the pointwise residual bound with its computable
coefficient, the projection-based natural residual whose vanishing
characterizes the solution set, the closed-form rate constants, and the
empirical linear-rate fit. The contraction slack is computed inline by the
engine (`IterationRecord.contraction_slack`).

The checks read a trace's columns (`Trace.iterates`, `Trace.predictions`,
`Trace.columns`) and evaluate each bound for all iterations at once. Every
per-row product is a stacked matrix-vector product (`matvecs`,
`structure.row_forms`), which runs the BLAS kernel of the 1-d product, and
every expression keeps its association order, so each value has the bits the
same formula gives one iteration at a time. The record-at-a-time reference
lives in tests/reference_verdict.py.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .model import BlockProblem, Iterate, L1, SolverConfig, block_sum, matvecs
from .oracles import l1_subgradient, project
from .structure import row_forms

if TYPE_CHECKING:  # avoid a runtime cycle; traces are duck-typed
    from .engine import Trace
    from .structure import StructuralMatrices

# Monotonicity of ||M(w - w~)||_H^2 is exact algebra; the tolerance is
# relative to the initial value so fixed-point traces at roundoff pass.
MONOTONE_RTOL = 1e-12
XI_BOUND_RTOL = 1e-8
# Both sides of the projection-residual inequality are formed from
# catastrophically cancelled differences near convergence, so the check
# carries an absolute floor at the square of measurement noise.
ERROR_BOUND_RTOL = 1e-9
ERROR_BOUND_ABS_FLOOR = 1e-24


class RegionNotCertified(RuntimeError):
    """(tau, s) lies outside the triangle region; the check is not covered."""


class InsufficientTrace(RuntimeError):
    """Too few usable iterations for an asymptotic rate fit."""


def _require_region(mats: "StructuralMatrices", what: str):
    if not mats.in_D:
        raise RegionNotCertified(
            f"{what} requires (tau, s) in the triangle region; got ({mats.tau}, {mats.s})"
        )


def _rows_dot(V: np.ndarray) -> np.ndarray:
    """v @ v for each row v of V, as stacked (1 x N)(N x 1) products."""
    return (V[:, None, :] @ V[:, :, None])[:, 0, 0]


def _running_max(values: np.ndarray, start: float) -> float:
    """max(start, v_0, v_1, ...) as Python's max takes it: the first of the
    largest, NaNs skipped after the first element."""
    return max([start, *values.tolist()])


# ---------------------------------------------------------------------------
# Per-iteration residual vector d
# ---------------------------------------------------------------------------

def d_components(problem: BlockProblem, config: SolverConfig, delta: np.ndarray) -> np.ndarray:
    """Stacked optimality-shift vector d of the predicted point w~ (x blocks,
    then y blocks), from the stacked difference delta = w~ - w.

    x components:  beta A_i' ((sigma1 - 1) sum_l A_l dx_l + A_i dx_i)
    y components:  (sigma2 + 1) beta B_j'B_j dy_j - tau B_j' dlam
    with dx, dy, dlam the block slices of delta; the subtraction is
    elementwise, so each slice has the bits of its per-block difference.
    One stacked product per batch (`BlockProblem.batches`) keeps those bits.
    """
    beta, sigma1, sigma2, tau = config.beta, config.sigma1, config.sigma2, config.tau
    m = delta.shape[0] - problem.n
    dlam = delta[m:]
    out = np.empty(m)
    AX = problem.products(0, delta)
    shared = (sigma1 - 1.0) * block_sum(AX)
    for rows, cols, _, AT in problem.batches[0]:
        out[cols] = beta * matvecs(AT, shared + AX[rows])
    BY = problem.products(1, delta)
    for rows, cols, _, AT in problem.batches[1]:
        out[cols] = (sigma2 + 1.0) * beta * matvecs(AT, BY[rows]) - tau * matvecs(AT, dlam)
    return out


def theta_hat(problem: BlockProblem, config: SolverConfig) -> float:
    """Computable coefficient with ||d||^2 <= theta_hat ||w - w~||^2.

    Sum over components of the squared spectral norms of the coefficient
    matrices in the d formula (Cauchy-Schwarz over the block partition).
    """
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


# ---------------------------------------------------------------------------
# Natural residual (projection-based error map)
# ---------------------------------------------------------------------------

def error_map_residual(problem: BlockProblem, w: Iterate) -> np.ndarray:
    """Stacked natural residual e(w, 1) of one point; zero exactly at solution points.

    The row-batched `error_map_rows` of the single stacked point.
    """
    return error_map_rows(problem, w.stack()[None, :])[0]


def error_map_rows(problem: BlockProblem, W: np.ndarray) -> np.ndarray:
    """Natural residual e(w, 1) of each row w of W (stacked points), shape (rows, N).

    Primal components are z - P_S[z - (g - A'lambda)] with g one subgradient
    element; the dual component is the constraint residual. For l1 blocks the
    selection minimizes each residual component over the subdifferential
    interval, which is closed form because the projection and the interval
    are both componentwise: at a zero component the minimizer is
    clip(A'lambda, -weight, weight).
    """
    lam = np.ascontiguousarray(W[:, W.shape[1] - problem.n:])
    parts = []
    group_sums = [np.zeros((len(W), problem.n)), np.zeros((len(W), problem.n))]  # A x, B y
    for idx, (blk, sl) in enumerate(zip(problem.x_blocks + problem.y_blocks, problem.block_slices)):
        z = np.ascontiguousarray(W[:, sl])
        t = matvecs(blk.A.T, lam)
        if isinstance(blk.objective, L1):
            g = l1_subgradient(blk.objective.weight, z, t)
        else:
            g = blk.objective.gradient(z)
        parts.append(z - project(blk.set, z - (g - t)))
        group_sums[idx >= problem.p] += matvecs(blk.A, z)
    parts.append(group_sums[0] + group_sums[1] - problem.c)
    return np.concatenate(parts, axis=1)


# ---------------------------------------------------------------------------
# Nonergodic rate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonergodicReport:
    monotone_ok: bool
    xi_bound_ok: bool
    sublinear_envelope: float  # max over t of (t+1) ||M(w_t - w~_t)||_H^2


def nonergodic_check(mats: "StructuralMatrices", trace: "Trace",
                     w_star: Iterate) -> NonergodicReport:
    """Monotone decay of ||M(w - w~)||_H^2 and the O(1/t) bound with the
    tightest spectral constant."""
    _require_region(mats, "nonergodic check")
    ms = trace.columns["correction_residual"]
    if not len(ms):
        return NonergodicReport(True, True, 0.0)
    m0 = float(ms[0])
    monotone_ok = bool(np.all(ms[1:] <= ms[:-1] + MONOTONE_RTOL * (1.0 + m0)))
    h0 = mats.h_norm_sq(trace.iterates[0] - w_star.stack())
    steps = np.arange(1.0, len(ms) + 1.0)  # k + 1
    envelope = max((steps * ms).tolist())
    xi = mats.xi
    xi_bound_ok = (
        math.isfinite(xi)
        and xi > 0.0
        and bool(np.all(steps * xi * ms <= h0 * (1.0 + XI_BOUND_RTOL)))
    )
    return NonergodicReport(monotone_ok, xi_bound_ok, envelope)


# ---------------------------------------------------------------------------
# Pointwise residual bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointwiseReport:
    sup_scaled_d_sq: float            # sup_t (t+1) ||d_t||^2
    sup_scaled_feasibility_sq: float  # sup_t (t+1) ||A x~ + B y~ - c||^2
    theta_hat: float
    theta_hat_ok: bool


def pointwise_residual_check(problem: BlockProblem, config: SolverConfig,
                             trace: "Trace") -> PointwiseReport:
    """Verify ||d_t||^2 <= theta_hat ||w_t - w~_t||^2 and collect the scaled sups.

    A non-finite side fails the check: a diverging run overflows ||d_t||^2 or
    the bound to inf while its iterates stay finite, and inf <= inf holds.
    """
    th = theta_hat(problem, config)
    cols = trace.columns
    d_sq = cols["d_norm_sq"]
    dw = trace.iterates[:-1] - trace.predictions
    bound = th * _rows_dot(dw) * (1.0 + ERROR_BOUND_RTOL) + 1e-300
    ok = bool(np.all(np.isfinite(d_sq) & np.isfinite(bound) & (d_sq <= bound)))
    steps = np.arange(1.0, len(d_sq) + 1.0)  # k + 1
    # Python's float ** 2 (C pow) and numpy's square differ in the last bit
    # on about 1 value in 1000, so the squares are taken one by one
    feas_sq = np.array([f ** 2 for f in cols["feasibility"].tolist()])
    return PointwiseReport(_running_max(steps * d_sq, 0.0), _running_max(steps * feas_sq, 0.0), th, ok)


# ---------------------------------------------------------------------------
# Rate constants and the linear-rate checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateConstants:
    """Spectral coefficients bounding the natural residual by ||w - w~||."""

    mu_tilde: tuple[float, ...]       # lambda_max(A_i'A_i)
    nu_tilde: tuple[float, ...]       # lambda_max(B_j'B_j)
    theta_bar: tuple[float, ...]
    vartheta_bar: tuple[float, ...]
    eta_bar: float
    delta: float


def rate_constants(problem: BlockProblem, config: SolverConfig) -> RateConstants:
    beta, sigma1, sigma2 = config.beta, config.sigma1, config.sigma2
    tau, s = config.tau, config.s
    p, q = problem.p, problem.q
    mu = tuple(float(np.linalg.eigvalsh(b.A.T @ b.A).max()) for b in problem.x_blocks)
    nu = tuple(float(np.linalg.eigvalsh(b.A.T @ b.A).max()) for b in problem.y_blocks)
    smu, snu = sum(mu), sum(nu)
    theta_bar = tuple(
        4.0 * p * (1.0 - sigma1) ** 2 * beta ** 2 * smu + 4.0 * beta ** 2 * mu_i
        for mu_i in mu
    )
    vartheta_bar = tuple(
        4.0 * q * (s * beta) ** 2 * smu
        + 3.0 * q * (s * beta) ** 2 * snu
        + 3.0 * (sigma2 + 1.0) ** 2 * beta ** 2 * nu_j
        + 2.0 * q
        for nu_j in nu
    )
    eta_bar = (
        4.0 * (tau + s - 1.0) ** 2 * smu
        + 3.0 * (s - 1.0) ** 2 * snu
        + 2.0 / beta ** 2
    )
    delta = max(max(theta_bar), max(vartheta_bar), eta_bar)
    return RateConstants(mu, nu, theta_bar, vartheta_bar, eta_bar, delta)


def error_bound_check(problem: BlockProblem, mats: "StructuralMatrices", trace: "Trace",
                   constants: RateConstants) -> tuple[bool, float]:
    """Pointwise bound of the squared natural residual at w_{k+1} by the
    G-norm of the prediction gap, both sides computed independently.

    Returns (all iterations pass, worst observed left/right ratio).
    """
    _require_region(mats, "projection-residual bound")
    coef = constants.delta * max(max(constants.mu_tilde), max(constants.nu_tilde), 1.0)
    coef /= mats.lambda_min_G
    W = trace.iterates[:-1]
    left = np.sum(error_map_rows(problem, trace.iterates[1:]) ** 2, axis=1)
    right = coef * row_forms(mats.G, W - trace.predictions)
    bound = right * (1.0 + ERROR_BOUND_RTOL) + ERROR_BOUND_ABS_FLOOR * (1.0 + _rows_dot(W))
    ok = bool(np.all(left <= bound))
    positive = right > 0.0
    return ok, _running_max(left[positive] / right[positive], 0.0)


@dataclass(frozen=True)
class RateReport:
    error_bound_ok: bool
    error_bound_worst_ratio: float
    linear_ratio_fit: float   # least-squares slope of log dist_H over the tail
    r_hat: float              # exp(slope), the fitted per-iteration factor
    envelope_ok: bool         # dist_H(w_k) <= C r_hat^k with C = 2 dist0/(1 - r_hat)
    fit_start: int
    fit_end: int


def linear_rate_check(mats: "StructuralMatrices", trace: "Trace", w_star: Iterate,
                      constants: RateConstants) -> RateReport:
    """Pointwise residual-bound verification plus an empirical R-linear fit.

    The fit window is [t_conv/2, t_conv] where t_conv is the first iteration
    whose composite residual reaches 10x the configured tolerance (the whole
    trace when it never does); windows shorter than 20 usable points raise
    InsufficientTrace.
    """
    _require_region(mats, "linear rate check")
    iters = len(trace.predictions)
    if iters < 20:
        raise InsufficientTrace(f"{iters} iterations; need at least 20")
    eb_ok, eb_worst = error_bound_check(trace.problem, mats, trace, constants)

    reached = np.flatnonzero(trace.columns["residual"] <= 10.0 * trace.config.tol)
    t_conv = int(reached[0]) if len(reached) else iters - 1
    start = t_conv // 2
    ws = w_star.stack()
    h = row_forms(mats.H, trace.iterates[start:t_conv + 1] - ws)
    dists = np.sqrt(np.where(0.0 > h, 0.0, h))  # mats.dist_H per row
    ks, logs = [], []
    for k, dh in enumerate(dists.tolist(), start):
        if dh > 0.0 and math.isfinite(dh):
            ks.append(k)
            logs.append(math.log(dh))
    if len(ks) < 20:
        raise InsufficientTrace(
            f"fit window [{start}, {t_conv}] has {len(ks)} usable points; need at least 20"
        )
    slope = float(np.polyfit(np.asarray(ks, dtype=float), np.asarray(logs), 1)[0])
    r_hat = math.exp(slope)
    dist0 = mats.dist_H(trace.iterates[0], ws)
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
