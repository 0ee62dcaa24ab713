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
but not its costly wrapper. gesv fails only on an exact zero pivot of Heff, so
the one solve at construction, which forms the block's affine map, decides
`Unbounded`.

For the engine's affine step each kernel also gives its answer as an affine
map of u, `ProxKernel.affine`: Heff^{-1} [rho A', -r] for a free-quadratic
block, and for box, nonnegative and l1 blocks (`ProxKernel.patterned`) the
answer on a fixed pattern (`ProxKernel.pattern`: the enumeration's winning
pattern, or the signs of an l1 answer). On a box pattern the free
components solve Heff[f, f] and the active ones are their bounds; on an l1
pattern the nonzero components are u/alpha - sign thresh and the others 0. `ProxKernel.holds` tests stacked
answers against their pattern: the KKT test of the first tier with the
enumeration's tolerances (box), the closed form's signs (l1), each margin
clear of the GUARD_REL band.

Box and nonnegative blocks are solved by KKT pattern enumeration. Each
component is interior, at its lower bound or at its upper bound; patterns are
tried in lexicographic order, and the first whose solution passes the
feasibility and multiplier-sign tests wins, at relative tolerance 1e-9 and
then, only if no pattern passes, at 1e-6. The table stores, per pattern, the
free indices, Heff[free, free] and the constant Heff[free, ~free] z[~free],
built lazily in lexicographic chunks. A call solves all patterns of a chunk
with the same free count in one stacked `np.linalg.solve` and tests them
together. The answer has the same bits as trying the patterns one at a time:
the stacked solve runs the same LAPACK gesv on the same matrix and right-hand
side for every item, and the gradient Heff z + geff of every candidate is a
stacked matrix-vector product, which for the C-contiguous Heff has the bits of
the 1-d product, so each test compares the same numbers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import solve1 as _gesv  # the gufunc np.linalg.solve runs for a 1-d b

from .model import L1, Box, FeasibleSet, Free, Nonnegative, Objective, Quadratic, matvecs, oracle_violation

# Relative KKT tolerances, tried in order.
KKT_TIERS = (1e-9, 1e-6)
# A held pattern's margins must clear the tolerance by this much (times the
# scale), which covers the rounding of a composed affine map.
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
    patterns: int = 0   # active patterns solved and tested
    loose: int = 0      # answers that only the 1e-6 tier accepted


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
                   gtol_rel: float, stats: OracleStats) -> tuple[np.ndarray, np.ndarray] | None:
        """The first pattern of the chunk passing the KKT test at gtol_rel, as
        (its solution, the pattern), or None."""
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
        gtol, ftol = table.tolerances(gmax, np.abs(Z).max(axis=1), gtol_rel)
        G = matvecs(table.Heff, Z) + geff
        # NaN passes every test, as in the one-at-a-time enumeration, so a
        # diverging run ends in NonFiniteIterate rather than Unbounded
        fails = ~solved | (self.free & ((Z < table.lo - ftol) | (Z > table.hi + ftol))).any(axis=1) \
            | (self.lower & (G < -gtol)).any(axis=1) | (self.upper & (G > gtol)).any(axis=1)
        first = int(fails.argmin())
        return None if fails[first] else (Z[first].copy(), self.pat[first])


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
        self.last: np.ndarray | None = None  # the pattern of the last answer

    def tolerances(self, gmax: float | np.ndarray, zmax: np.ndarray, rel: float) -> tuple[np.ndarray, np.ndarray]:
        """The multiplier and feasibility tolerances of the KKT test at
        relative tolerance rel, as columns, for candidates z of largest
        magnitude zmax with linear terms of largest magnitude gmax:
        rel (1 + gmax + max|Heff| (1 + zmax)) and rel (1 + zmax)."""
        return (rel * (1.0 + gmax + self.hmax * (1.0 + zmax)))[:, None], (rel * (1.0 + zmax))[:, None]

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
                found = chunk.first_pass(self, geff, gmax, gtol_rel, stats)
                if found is not None:
                    if tier:
                        stats.loose += 1
                    z, self.last = found
                    return z
        raise Unbounded("no consistent KKT pattern; coupling matrix may be rank deficient")


class ProxKernel:
    """argmin_{z in set} objective(z) + (rho/2) ||A z - u||^2 for any u.

    Rejects a combination outside the catalog (`model.oracle_violation`) and
    computes everything that does not depend on u once; `solve(u)` does the
    rest. `affine` gives the answer as an affine map of u; a box,
    nonnegative or l1 kernel (`patterned`) gives it on a fixed pattern
    (`pattern`, `affine`, `holds`; see the module docstring).
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
        self._table = None
        self.patterned = not (isinstance(objective, Quadratic) and isinstance(fset, Free))
        if isinstance(objective, L1):  # A = alpha I
            alpha = self._alpha = float(self.A[0, 0])
            thresh = self._thresh = objective.weight / (self.rho * alpha * alpha)
            self.test_rows = self.dim  # u / alpha
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
            try:  # the affine map, also the singularity probe (see the module docstring)
                self._map = np.linalg.solve(self._Heff, np.column_stack((self.rho * self._AT, -self._r)))
            except np.linalg.LinAlgError:
                self._map = None
            self._solve = lambda u: _solve_free(self, u)
        else:
            table = self._table = _PatternTable(self._Heff, *bounds(fset, self.dim))
            self.test_rows = 2 * self.dim  # r - rho A'u, then the gradient Heff z + r - rho A'u
            self._solve = lambda u: table.solve(_geff(self, u), self.stats)

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def solve(self, u: np.ndarray) -> np.ndarray:
        self.stats.calls += 1
        return self._solve(np.asarray(u, dtype=float))

    def pattern(self, z: np.ndarray) -> np.ndarray:
        """The pattern of the answer z of the last `solve`: for a box or
        nonnegative block the enumeration's winning pattern (0 free, 1 at the
        lower bound, 2 at the upper bound), for an l1 block the sign of z."""
        return self._table.last if self._table is not None else np.sign(z).astype(np.int8)

    def affine(self, pattern: np.ndarray | None) -> tuple[np.ndarray, np.ndarray | None]:
        """The answer on a fixed pattern as an affine map of u, and the
        `test_rows` rows that `holds` reads, each map as (rows, n + 1): the
        value at u is item[:, :-1] @ u + item[:, -1].

        Free quadratic (pattern None): Heff^{-1} [rho A', -r], formed at
        construction by one gesv with a matrix right-hand side, and no test
        rows. Box and nonnegative: the free components solve Heff[f, f] (one
        gesv with a matrix right-hand side), active ones are their bound;
        the test rows are r - rho A'u and the gradient Heff z + r - rho A'u.
        l1: u/alpha - sign thresh on the nonzero components, 0 on the
        others; the test rows are u/alpha.
        """
        n = self.A.shape[0]
        if not self.patterned:
            if self._map is None:
                raise Unbounded("singular proximal system; coupling matrix rank deficient")
            return self._map.copy(), None
        L = np.zeros((self.dim, n + 1))
        if self._table is None:
            scaled = np.hstack((np.eye(n) / self._alpha, np.zeros((n, 1))))
            nonzero = pattern != 0
            L[nonzero] = scaled[nonzero]
            L[nonzero, n] = -self._thresh * pattern[nonzero]
            return L, scaled
        table, free = self._table, pattern == 0
        at = np.where(pattern == 1, table.lo, np.where(pattern == 2, table.hi, 0.0))
        geff = np.hstack((self._neg_rho * self._AT, self._r[:, None]))
        L[~free, n] = at[~free]
        if free.any():
            rhs = -geff[free]
            rhs[:, n] -= self._Heff[np.ix_(free, ~free)] @ at[~free]
            try:
                L[free] = np.linalg.solve(self._Heff[np.ix_(free, free)], rhs)
            except np.linalg.LinAlgError as exc:
                raise Unbounded("singular reduced system on the held pattern") from exc
        return L, np.vstack((geff, self._Heff @ L + geff))

    def holds(self, pattern: np.ndarray, Z: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Whether each row of Z, answers on the pattern, with V, their test
        rows (`affine`), is the oracle's answer: for a box or nonnegative
        block the KKT test at tier KKT_TIERS[0] with the enumeration's
        tolerances (`_PatternTable.tolerances`), for an l1 block the signs of
        the closed form. Either way every margin must clear the GUARD_REL
        band, which covers the rounding of a composed map; NaN fails."""
        if self._table is None:
            thresh = self._thresh
            scale = 1.0 + np.abs(V).max(axis=1) + thresh
            zero = thresh - (V if isinstance(self.set, Nonnegative) else np.abs(V))
            margin = np.where(pattern == 0, zero, pattern * V - thresh)
            return (margin >= (GUARD_REL * scale)[:, None]).all(axis=1)
        table, d, free = self._table, self.dim, pattern == 0
        geff, G = V[:, :d], V[:, d:]
        gtol, ftol = table.tolerances(np.abs(geff).max(axis=1), np.abs(Z).max(axis=1), KKT_TIERS[0] - GUARD_REL)
        return ((Z[:, free] >= table.lo[free] - ftol).all(axis=1) & (Z[:, free] <= table.hi[free] + ftol).all(axis=1)
                & (G[:, pattern == 1] >= -gtol).all(axis=1) & (G[:, pattern == 2] <= gtol).all(axis=1))


def _geff(kernel: ProxKernel, u: np.ndarray) -> np.ndarray:
    """Linear term of the reduced quadratic, r - rho A'u."""
    return kernel._neg_rho * matvecs(kernel._AT, u) + kernel._r


def _solve_free(kernel: ProxKernel, u: np.ndarray) -> np.ndarray:
    if kernel._map is None:
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
