"""Exact solvers for the per-block subproblems.

Every block update of the iteration reduces, after completing the square, to
the canonical proximal form

    argmin_{z in S}  f(z) + (rho/2) ||A z - u||^2,

with rho > 0 and A of full column rank, so the minimizer is unique. Only
the combinations of the exact-oracle catalog (`model.oracle_violation`) are
admitted. Inexact inner solvers are deliberately not provided; the
per-iteration convergence checks assume exact subproblem solutions.

A `ProxKernel` holds everything that does not depend on u, so a solve builds
one per block and reuses it at every iteration: the curvature
Heff = rho A'A (+ P) for quadratic and linear blocks, the soft-threshold
constant for l1 blocks, and for box and nonnegative blocks a table of active
patterns.

Free-quadratic blocks call the gesv gufunc of `np.linalg.solve`, with its bits
but not its costly wrapper, several at once in a `FreeBatch`. gesv fails only
on an exact zero pivot of Heff, so a probe at construction decides `Unbounded`.

Box and nonnegative blocks are solved by KKT pattern enumeration. Each
component is interior, at its lower bound or at its upper bound; patterns are
tried in lexicographic order, and the first whose solution passes the
feasibility and multiplier-sign tests wins, at relative tolerance 1e-9 and
then, only if no pattern passes, at 1e-6. The table stores, per pattern, the
free indices, Heff[free, free] and the constant Heff[free, ~free] z[~free],
built lazily in lexicographic chunks. A call solves all patterns of a chunk
with the same free count in one stacked `np.linalg.solve` and screens them
together. The answer has the same bits as trying the patterns one at a time:

- the stacked solve runs the same LAPACK gesv on the same matrix and
  right-hand side for every item, so each candidate z is bit-identical;
- the feasibility test compares those candidates elementwise, exactly as the
  scalar test does;
- only the batched gradient Z Heff' may differ from the scalar Heff z, by a
  rounding error below dim^2 eps scale. A pattern whose multiplier margin lies
  within GUARD_REL * scale of the tolerance is decided by the scalar test.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import solve1 as _gesv  # the gufunc np.linalg.solve runs for a 1-d b

from .model import L1, Box, FeasibleSet, Free, Nonnegative, Objective, Quadratic, matvecs, oracle_violation

# Relative KKT tolerances, tried in order.
KKT_TIERS = (1e-9, 1e-6)
# Multiplier margins closer than this (times the scale) to the tolerance are
# re-tested with the scalar gradient; the batched one is within dim^2 eps.
GUARD_REL = 1e-12
# Lexicographic chunks grow threefold from FIRST_CHUNK to MAX_CHUNK patterns,
# so an early winner costs a small chunk. A table keeps the chunks within its
# first CACHED_PATTERNS patterns; later ones are rebuilt per call.
FIRST_CHUNK = 3 ** 5
MAX_CHUNK = 3 ** 7
CACHED_PATTERNS = 3 ** 9


class UnsupportedCombination(ValueError):
    """Objective/set/coupling triple outside the exact-oracle catalog."""


class Unbounded(RuntimeError):
    """No KKT point found; the subproblem is unbounded or ill posed."""


def bounds(fset: FeasibleSet, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise (lo, hi) with +-inf for absent bounds."""
    if isinstance(fset, Free):
        return np.full(dim, -np.inf), np.full(dim, np.inf)
    if isinstance(fset, Nonnegative):
        return np.zeros(dim), np.full(dim, np.inf)
    if isinstance(fset, Box):
        return fset.lo, fset.hi
    raise UnsupportedCombination(f"unknown set variant {type(fset).__name__}")


def project(fset: FeasibleSet, z: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the feasible set (componentwise clamp)."""
    z = np.asarray(z, dtype=float)
    if isinstance(fset, Free):
        return z.copy()
    if isinstance(fset, Nonnegative):
        return np.maximum(z, 0.0)
    if isinstance(fset, Box):
        return np.clip(z, fset.lo, fset.hi)
    raise UnsupportedCombination(f"unknown set variant {type(fset).__name__}")


def soft_threshold(v: np.ndarray, thresh: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - thresh, 0.0)


@dataclass
class OracleStats:
    """Oracle counters of one block over one solve."""

    set: str
    dim: int
    calls: int = 0
    patterns: int = 0   # active patterns solved and screened
    rechecks: int = 0   # patterns inside the guard band, decided by the scalar test
    loose: int = 0      # answers that only the 1e-6 tier accepted


def _kkt_ok(Heff: np.ndarray, geff: np.ndarray, lo: np.ndarray, hi: np.ndarray,
            pat: np.ndarray, z: np.ndarray, gtol_rel: float) -> bool:
    """Scalar feasibility and multiplier-sign test of one candidate."""
    free = pat == 0
    grad = Heff @ z + geff
    scale = 1.0 + float(np.abs(geff).max(initial=0.0)) + \
        float(np.abs(Heff).max()) * (1.0 + float(np.abs(z).max(initial=0.0)))
    gtol = gtol_rel * scale
    ftol = gtol_rel * (1.0 + float(np.abs(z).max(initial=0.0)))
    if free.any() and (np.any(z[free] < lo[free] - ftol) or np.any(z[free] > hi[free] + ftol)):
        return False
    return not (np.any(grad[pat == 1] < -gtol) or np.any(grad[pat == 2] > gtol))


class _PatternChunk:
    """Patterns [start, stop) in lexicographic order, grouped by free count."""

    def __init__(self, table: "_PatternTable", start: int, stop: int):
        Heff, lo, hi = table.Heff, table.lo, table.hi
        digits = np.arange(start, stop)
        pat = np.empty((stop - start, lo.shape[0]), dtype=np.int8)
        for c in reversed(range(lo.shape[0])):
            states = table.states[c]
            pat[:, c] = states[digits % states.size]
            digits //= states.size
        self.pat = pat
        self.free, self.lower, self.upper = pat == 0, pat == 1, pat == 2
        self.Zb = np.where(self.lower, lo, np.where(self.upper, hi, 0.0))
        nfree = self.free.sum(axis=1)
        self.groups = []
        for nf in np.unique(nfree[nfree > 0]):
            rows = np.flatnonzero(nfree == nf)
            idx = np.nonzero(self.free[rows])[1].reshape(rows.size, nf)
            act = np.nonzero(~self.free[rows])[1].reshape(rows.size, -1)
            # Heff[free, active] z[active] of every pattern as stacked
            # matrix-vector products, so each has the bits of the scalar loop's
            const = matvecs(Heff[idx[:, :, None], act[:, None, :]], self.Zb[rows[:, None], act])
            self.groups.append((rows, idx, Heff[idx[:, :, None], idx[:, None, :]], const))

    def first_pass(self, table: "_PatternTable", geff: np.ndarray, gmax: float,
                   gtol_rel: float, stats: OracleStats) -> np.ndarray | None:
        Heff, lo, hi = table.Heff, table.lo, table.hi
        Z = self.Zb.copy()
        solved = np.ones(Z.shape[0], dtype=bool)
        for rows, idx, Hff, const in self.groups:
            rhs = -(geff[idx] + const)
            try:
                Z[rows[:, None], idx] = np.linalg.solve(Hff, rhs[..., None])[..., 0]
            except np.linalg.LinAlgError:
                # some reduced matrix is singular: solve the group pattern by pattern
                for row, cols, H, b in zip(rows, idx, Hff, rhs):
                    try:
                        Z[row, cols] = np.linalg.solve(H, b)
                    except np.linalg.LinAlgError:
                        solved[row] = False
        stats.patterns += Z.shape[0]
        zmax = np.abs(Z).max(axis=1)
        scale = 1.0 + gmax + table.hmax * (1.0 + zmax)
        gtol = (gtol_rel * scale)[:, None]
        guard = (GUARD_REL * scale)[:, None]
        ftol = (gtol_rel * (1.0 + zmax))[:, None]
        infeasible = (self.free & ((Z < lo - ftol) | (Z > hi + ftol))).any(axis=1)
        G = Z @ Heff.T + geff
        fails = ~solved | infeasible | (self.lower & (G < -gtol - guard)).any(axis=1) \
            | (self.upper & (G > gtol + guard)).any(axis=1)
        # NaN margins are never sure and go to the scalar test
        sure = ~(self.lower & ~(G >= guard - gtol)).any(axis=1) \
            & ~(self.upper & ~(G <= gtol - guard)).any(axis=1)
        passes = ~fails & sure
        first = int(passes.argmax()) if passes.any() else Z.shape[0]
        for row in np.flatnonzero(~fails[:first] & ~sure[:first]):
            stats.rechecks += 1
            z = Z[row].copy()
            if _kkt_ok(Heff, geff, lo, hi, self.pat[row], z, gtol_rel):
                return z
        return Z[first].copy() if first < Z.shape[0] else None


class _PatternTable:
    """Active patterns of min 0.5 z'Hz + g'z over [lo, hi] for a fixed H."""

    def __init__(self, Heff: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        self.Heff, self.lo, self.hi = Heff, lo, hi
        self.hmax = float(np.abs(Heff).max())
        # 0 = interior, 1 = at lower bound, 2 = at upper bound; infinite
        # bounds cannot be active
        self.states = [np.array([0] + [1] * bool(np.isfinite(lo[c])) + [2] * bool(np.isfinite(hi[c])),
                                dtype=np.int8) for c in range(lo.shape[0])]
        self.count = math.prod(s.size for s in self.states)
        self._cached: list[_PatternChunk] = []
        self._cached_stop = 0

    def _chunks(self):
        yield from self._cached
        start, size = 0, FIRST_CHUNK
        while start < self.count:
            stop = min(start + size, self.count)
            if stop > self._cached_stop:
                chunk = _PatternChunk(self, start, stop)
                if stop <= CACHED_PATTERNS:
                    self._cached.append(chunk)
                    self._cached_stop = stop
                yield chunk
            start, size = stop, min(3 * size, MAX_CHUNK)

    def solve(self, geff: np.ndarray, stats: OracleStats) -> np.ndarray:
        """First pattern in lexicographic order passing the KKT test."""
        gmax = float(np.abs(geff).max(initial=0.0))
        for tier, gtol_rel in enumerate(KKT_TIERS):
            for chunk in self._chunks():
                z = chunk.first_pass(self, geff, gmax, gtol_rel, stats)
                if z is not None:
                    if tier:
                        stats.loose += 1
                    return z
        raise Unbounded("no consistent KKT pattern; coupling matrix may be rank deficient")


class ProxKernel:
    """argmin_{z in set} objective(z) + (rho/2) ||A z - u||^2 for any u.

    Rejects a combination outside the catalog (`model.oracle_violation`) and
    computes everything that does not depend on u once; `solve(u)` does the
    rest.
    """

    def __init__(self, objective: Objective, fset: FeasibleSet, A, rho: float):
        self.objective, self.set = objective, fset
        self.A = np.asarray(A, dtype=float)
        self.rho = float(rho)
        if self.rho <= 0.0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        why = oracle_violation(objective, fset, self.A)
        if why:
            raise UnsupportedCombination(why)
        self.stats = OracleStats(type(fset).__name__.lower(), self.dim)
        if isinstance(objective, L1):  # A = alpha I
            alpha = float(self.A[0, 0])
            thresh = objective.weight / (self.rho * alpha * alpha)
            if isinstance(fset, Free):
                self._solve = lambda u: soft_threshold(u / alpha, thresh)
            else:
                self._solve = lambda u: np.maximum(u / alpha - thresh, 0.0)
            return
        # the per-call constants of the linear term r - rho A'u
        self._AT, self._neg_rho, self._r = self.A.T, -self.rho, objective.r
        self._Heff = self.rho * (self.A.T @ self.A)
        if isinstance(objective, Quadratic):
            self._Heff = self._Heff + objective.P
        if isinstance(fset, Free):
            try:  # the singularity probe (see the module docstring)
                np.linalg.solve(self._Heff, np.zeros(self.dim))
                self._singular = False
            except np.linalg.LinAlgError:
                self._singular = True
            self._solve = lambda u: _solve_free(self, u)
        else:
            table = _PatternTable(self._Heff, *bounds(fset, self.dim))
            self._solve = lambda u: table.solve(_geff(self, u), self.stats)

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def solve(self, u: np.ndarray) -> np.ndarray:
        self.stats.calls += 1
        return self._solve(np.asarray(u, dtype=float))



class FreeBatch:
    """Free-quadratic kernels of one dimension and rho (with their `objective`,
    `set`, `dim`): one stacked gesv answers row i of U for kernels[i]."""

    def __init__(self, kernels):
        first = kernels[0]
        self.kernels, self.objective, self.set, self.dim = kernels, first.objective, first.set, first.dim
        # a view of the stacked A, so each item has the layout of a kernel's A'
        self._AT, self._neg_rho = np.stack([k.A for k in kernels]).transpose(0, 2, 1), first._neg_rho
        self._r, self._Heff = np.stack([k._r for k in kernels]), np.stack([k._Heff for k in kernels])
        self._singular = any(k._singular for k in kernels)

    def solve(self, U: np.ndarray) -> np.ndarray:
        for kernel in self.kernels:
            kernel.stats.calls += 1
        return _solve_free(self, U)


def sweep_steps(batches, kernels) -> tuple:
    """One group's solves as (kernel, rows, cols) for `BlockProblem.batches`: a
    batch of free-quadratic blocks is one FreeBatch, any other block alone."""
    steps = []
    for rows, cols, _, _ in batches:
        run = kernels[rows]
        if isinstance(run[0].objective, Quadratic) and isinstance(run[0].set, Free):
            steps.append((FreeBatch(run), rows, cols))
        else:
            steps += zip(run, range(rows.start, rows.stop), cols)
    return tuple(steps)


def _geff(kernel: ProxKernel | FreeBatch, u: np.ndarray) -> np.ndarray:
    """Linear term of the reduced quadratic, r - rho A'u, at u or each row of U."""
    return kernel._neg_rho * matvecs(kernel._AT, u) + kernel._r


def _solve_free(kernel: ProxKernel | FreeBatch, u: np.ndarray) -> np.ndarray:
    if kernel._singular:
        raise Unbounded("singular proximal system; coupling matrix rank deficient")
    return _gesv(kernel._Heff, -_geff(kernel, u))


def prox_solve(kernel: ProxKernel, u: np.ndarray) -> np.ndarray:
    """Exact minimizer of the kernel's proximal subproblem at the point u."""
    return kernel.solve(u)


def l1_subgradient(weight: float, z: np.ndarray, force: np.ndarray) -> np.ndarray:
    """Element of the subdifferential of weight ||z||_1 at z: weight sign(z),
    and at zero components the force clipped into [-weight, weight]."""
    g = weight * np.sign(z)
    zero = z == 0.0
    g[zero] = np.clip(force[zero], -weight, weight)
    return g
