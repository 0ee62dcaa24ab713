"""Evaluation-based reference minimizer for proximal queries.

Independent of prox_solve: a dense grid over a bounding box narrows to a
local grid of step <= 1e-4, then coordinate descent polishes (closed-form
coordinate minimization for smooth objectives, per-coordinate grid
refinement for l1). Strict convexity of every admitted query makes the
coordinate stage globally convergent, so the pair (grid, polish) cannot be
trapped away from the unique minimizer.

`reference_prox_solve` is the plain one-pattern-at-a-time enumeration that
the batched box/nonnegative oracle must reproduce bit for bit.

A `ProxQuery` is one proximal subproblem with its point u; `solve_query`
solves it through a `ProxKernel` built for it, and `optimality_residual`
checks the answer against the projected-gradient optimality condition.
"""
import itertools
from dataclasses import dataclass

import numpy as np

from gsadmm.model import BOX_ENUM_CAP, L1, Box, FeasibleSet, Free, Linear, Nonnegative, Objective, Quadratic
from gsadmm.oracles import (
    ProxKernel,
    Unbounded,
    UnsupportedCombination,
    bounds,
    l1_subgradient,
    project,
    prox_solve,
)

SPAN = 20.0  # search frame for unbounded directions; asserted non-binding


@dataclass(frozen=True, eq=False)
class ProxQuery:
    """argmin_{z in set} objective(z) + (rho/2) ||A z - u||^2."""

    objective: Objective
    set: FeasibleSet
    A: np.ndarray
    rho: float
    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        object.__setattr__(self, "rho", float(self.rho))

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def value(self, z: np.ndarray) -> float:
        res = self.A @ z - self.u
        return self.objective.value(z) + 0.5 * self.rho * float(res @ res)


def solve_query(query: ProxQuery) -> np.ndarray:
    """The exact oracle's answer to one query, from a kernel built for it."""
    return prox_solve(ProxKernel(query.objective, query.set, query.A, query.rho), query.u)


def certifying_subgradient(query: ProxQuery, z: np.ndarray) -> np.ndarray:
    """Subgradient element witnessing optimality of z for the query.

    For smooth objectives this is the gradient. For l1 the zero components
    take the element that cancels the smooth force, which the soft-threshold
    formula guarantees lies inside [-weight, weight].
    """
    obj = query.objective
    if isinstance(obj, (Quadratic, Linear)):
        return obj.gradient(z)
    force = query.rho * (query.A.T @ (query.u - query.A @ z))
    return l1_subgradient(obj.weight, z, force)


def optimality_residual(query: ProxQuery, z: np.ndarray) -> np.ndarray:
    """Projected-gradient residual z - P_S(z - (g(z) + rho A'(Az - u)))."""
    g = certifying_subgradient(query, z)
    step = g + query.rho * (query.A.T @ (query.A @ z - query.u))
    return z - project(query.set, z - step)


def eval_many(query: ProxQuery, Z: np.ndarray) -> np.ndarray:
    """Objective values for rows of Z, shape (m, dim)."""
    res = Z @ query.A.T - query.u
    vals = 0.5 * query.rho * np.sum(res * res, axis=1)
    obj = query.objective
    if isinstance(obj, Quadratic):
        vals += 0.5 * np.sum((Z @ obj.P) * Z, axis=1) + Z @ obj.r + obj.t
    elif isinstance(obj, L1):
        vals += obj.weight * np.sum(np.abs(Z), axis=1)
    elif isinstance(obj, Linear):
        vals += Z @ obj.r
    else:
        raise TypeError(type(obj).__name__)
    return vals


def _mesh(lo, hi, pts):
    axes = [np.linspace(lo[c], hi[c], pts) for c in range(len(lo))]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([a.ravel() for a in grids], axis=1)


def _multilevel_grid(query, lo, hi):
    """Shrinking grids until the local step is at most 1e-4 per coordinate."""
    Z = _mesh(lo, hi, 201)
    z = Z[int(np.argmin(eval_many(query, Z)))]
    step = (hi - lo) / 200.0
    while float(step.max(initial=0.0)) > 1e-4:
        wlo = np.maximum(lo, z - 3.0 * step)
        whi = np.minimum(hi, z + 3.0 * step)
        Z = _mesh(wlo, whi, 61)
        z = Z[int(np.argmin(eval_many(query, Z)))]
        step = (whi - wlo) / 60.0
    return z


def _refine_coordinate(query, z, c, lo_c, hi_c):
    """1-d multilevel grid along coordinate c (evaluation only)."""
    wlo = max(lo_c, z[c] - 2.0)
    whi = min(hi_c, z[c] + 2.0)
    for _ in range(14):
        ts = np.linspace(wlo, whi, 61)
        Z = np.repeat(z[None, :], ts.size, axis=0)
        Z[:, c] = ts
        best = ts[int(np.argmin(eval_many(query, Z)))]
        step = (whi - wlo) / 60.0
        wlo = max(lo_c, best - 2.0 * step)
        whi = min(hi_c, best + 2.0 * step)
        if step < 1e-13:
            break
    return best


def brute_force_min(query: ProxQuery):
    """Reference (argmin, value); never calls prox_solve."""
    dim = query.dim
    set_lo, set_hi = bounds(query.set, dim)
    lo = np.maximum(set_lo, -SPAN)
    hi = np.minimum(set_hi, SPAN)
    z = _multilevel_grid(query, lo, hi)

    obj = query.objective
    if isinstance(obj, (Quadratic, Linear)):
        H = query.rho * (query.A.T @ query.A)
        g0 = -query.rho * (query.A.T @ query.u)
        if isinstance(obj, Quadratic):
            H = H + obj.P
            g0 = g0 + obj.r
        else:
            g0 = g0 + obj.r
        z = z.copy()
        for _ in range(20000):
            delta = 0.0
            for c in range(dim):
                grad_c = float(H[c] @ z + g0[c])
                t = np.clip(z[c] - grad_c / H[c, c], set_lo[c], set_hi[c])
                delta = max(delta, abs(t - z[c]))
                z[c] = t
            if delta < 1e-14:
                break
    else:  # l1 couples through alpha I, so the objective is separable
        z = z.copy()
        for _ in range(2):
            for c in range(dim):
                z[c] = _refine_coordinate(query, z, c, set_lo[c], set_hi[c])

    # the artificial frame must not be the binding constraint
    frame = ~np.isfinite(set_lo) | ~np.isfinite(set_hi)
    assert np.all(np.abs(z[frame]) < SPAN - 1.0), "search frame too small"
    return z, float(eval_many(query, z[None, :])[0])


# ---------------------------------------------------------------------------
# Reference enumeration for bound-constrained blocks
# ---------------------------------------------------------------------------

def reference_bound_quadratic(Heff: np.ndarray, geff: np.ndarray,
                              lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Minimize 0.5 z'Hz + g'z over [lo, hi]: try the KKT patterns one at a
    time in lexicographic order; the first passing the sign and feasibility
    tests wins (tolerance 1e-9, then 1e-6)."""
    dim = geff.shape[0]
    if dim > BOX_ENUM_CAP:
        raise UnsupportedCombination(
            f"constrained block dimension {dim} exceeds enumeration cap {BOX_ENUM_CAP}"
        )
    # 0 = interior, 1 = at lower bound, 2 = at upper bound; infinite bounds
    # cannot be active.
    states = []
    for c in range(dim):
        allowed = [0]
        if np.isfinite(lo[c]):
            allowed.append(1)
        if np.isfinite(hi[c]):
            allowed.append(2)
        states.append(allowed)

    def attempt(gtol_rel: float) -> np.ndarray | None:
        for pattern in itertools.product(*states):
            pat = np.asarray(pattern)
            free = pat == 0
            z = np.where(pat == 1, lo, np.where(pat == 2, hi, 0.0))
            nf = int(free.sum())
            if nf:
                rhs = -(geff[free] + Heff[np.ix_(free, ~free)] @ z[~free])
                try:
                    z[free] = np.linalg.solve(Heff[np.ix_(free, free)], rhs)
                except np.linalg.LinAlgError:
                    continue
            grad = Heff @ z + geff
            scale = 1.0 + float(np.abs(geff).max(initial=0.0)) + \
                float(np.abs(Heff).max()) * (1.0 + float(np.abs(z).max(initial=0.0)))
            gtol = gtol_rel * scale
            ftol = gtol_rel * (1.0 + float(np.abs(z).max(initial=0.0)))
            if nf and (np.any(z[free] < lo[free] - ftol) or np.any(z[free] > hi[free] + ftol)):
                continue
            if np.any(grad[pat == 1] < -gtol) or np.any(grad[pat == 2] > gtol):
                continue
            return z
        return None

    for gtol_rel in (1e-9, 1e-6):
        z = attempt(gtol_rel)
        if z is not None:
            return z
    raise Unbounded("no consistent KKT pattern; coupling matrix may be rank deficient")


def reference_prox_solve(query, u=None) -> np.ndarray:
    """prox_solve with the reference enumeration for quadratic and linear
    objectives over box and nonnegative sets; takes a ProxQuery, or a
    kernel and u, like prox_solve."""
    obj, fset = query.objective, query.set
    if not (isinstance(obj, (Quadratic, Linear)) and isinstance(fset, (Box, Nonnegative))):
        return solve_query(query) if u is None else prox_solve(query, u)
    A, rho = query.A, query.rho
    u = query.u if u is None else u
    Heff = rho * (A.T @ A)
    geff = -rho * (A.T @ u)
    if isinstance(obj, Quadratic):
        Heff = Heff + obj.P
    geff = geff + obj.r
    return reference_bound_quadratic(Heff, geff, *bounds(fset, A.shape[1]))


# ---------------------------------------------------------------------------
# Random query families
# ---------------------------------------------------------------------------

FAMILIES = (
    "quadratic-free",
    "quadratic-box",
    "quadratic-nonnegative",
    "l1-free",
    "l1-nonnegative",
    "linear-box",
    "linear-nonnegative",
)


def _random_coupling(rng, dim):
    gauss = rng.standard_normal((dim, dim))
    q1, _ = np.linalg.qr(gauss)
    q2, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    svals = rng.uniform(0.6, 1.5, size=dim)
    return (q1 * svals) @ q2.T


def _random_spd(rng, dim):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = rng.uniform(1.0, 4.0, size=dim)
    return (q * eigs) @ q.T


def _random_box(rng, dim):
    lo = -rng.uniform(0.3, 2.0, size=dim)
    hi = rng.uniform(0.3, 2.0, size=dim)
    return Box(lo, hi)


def random_query(family: str, rng: np.random.Generator, dim: int | None = None) -> ProxQuery:
    """A random query of the family, of dimension 1 or 2 unless given."""
    if dim is None:
        dim = int(rng.integers(1, 3))
    rho = float(rng.uniform(0.5, 2.0))
    u = rng.standard_normal(dim)
    kind, _, set_name = family.partition("-")
    if kind == "l1":
        A = float(rng.uniform(0.6, 1.4)) * np.eye(dim)
        obj = L1(float(rng.uniform(0.2, 1.5)))
    else:
        A = _random_coupling(rng, dim)
        if kind == "quadratic":
            obj = Quadratic(_random_spd(rng, dim), rng.standard_normal(dim))
        else:
            obj = Linear(rng.standard_normal(dim))
    if set_name == "free":
        fset = Free()
    elif set_name == "nonnegative":
        fset = Nonnegative()
    else:
        fset = _random_box(rng, dim)
    return ProxQuery(obj, fset, A, rho, u)
