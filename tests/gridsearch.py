"""Evaluation-based reference minimizer for proximal queries.

Independent of prox_solve: a dense grid over a bounding box narrows to a
local grid of step <= 1e-4, then coordinate descent polishes (closed-form
coordinate minimization for smooth objectives, per-coordinate grid
refinement for l1). Strict convexity of every admitted query makes the
coordinate stage globally convergent, so the pair (grid, polish) cannot be
trapped away from the unique minimizer.

`reference_prox_solve` is the plain one-pattern-at-a-time enumeration that
the batched box/nonnegative oracle must reproduce bit for bit.
`reference_enumerate_l1` (sign patterns) and `reference_enumerate_box`
(bound patterns) are the one-pattern-at-a-time enumerations that the
mask-grouped `generators._enumerate_pieces` must reproduce bit for bit on l1
and box problems.

A `ProxQuery` is one proximal subproblem with its point u; `solve_query`
solves it through a `ProxKernel` built for it, and `optimality_residual`
checks the answer against the projected-gradient optimality condition.
"""
import itertools
from dataclasses import dataclass

import numpy as np

from gsadmm.generators import (
    KKT_COND_CAP,
    PATTERN_DIM_CAP,
    PATTERN_MARGIN,
    DegenerateInstance,
    NonUniqueSolution,
    PatternExplosion,
    _stack_dims,
)
from gsadmm.model import (
    BOX_ENUM_CAP,
    L1,
    BlockProblem,
    Box,
    FeasibleSet,
    Free,
    Iterate,
    Linear,
    Nonnegative,
    Objective,
    Quadratic,
)
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

def kkt_ok(Heff: np.ndarray, geff: np.ndarray, lo: np.ndarray, hi: np.ndarray,
           pat: np.ndarray, z: np.ndarray, gtol_rel: float) -> bool:
    """The feasibility and multiplier-sign test of one candidate z of
    min 0.5 z'Hz + g'z over [lo, hi] on the pattern pat (0 free, 1 at the
    lower bound, 2 at the upper bound), at relative tolerance gtol_rel; NaN
    passes."""
    free = pat == 0
    grad = Heff @ z + geff
    scale = 1.0 + float(np.abs(geff).max(initial=0.0)) + \
        float(np.abs(Heff).max()) * (1.0 + float(np.abs(z).max(initial=0.0)))
    gtol = gtol_rel * scale
    ftol = gtol_rel * (1.0 + float(np.abs(z).max(initial=0.0)))
    if free.any() and (np.any(z[free] < lo[free] - ftol) or np.any(z[free] > hi[free] + ftol)):
        return False
    return not (np.any(grad[pat == 1] < -gtol) or np.any(grad[pat == 2] > gtol))


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
            if kkt_ok(Heff, geff, lo, hi, pat, z, gtol_rel):
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


def reference_enumerate_l1(problem: BlockProblem, margin: float = PATTERN_MARGIN) -> Iterate:
    """Reference point by enumerating sign patterns of all l1 components, one
    pattern at a time; `generators._enumerate_pieces` must return the same
    bytes or raise the same exception type on l1 problems.

    Every l1 block must couple through alpha I. For each pattern in
    {-1, 0, +1}^dim the reduced square KKT system (multiplier pinning on the
    support, stationarity of the smooth blocks, the equality constraint) is
    solved; a pattern is accepted when the support signs are strict and the
    zero components satisfy |alpha lambda| <= weight with margin. Exactly one
    pattern may pass.
    """
    l1_meta = []  # (block index, alpha, weight)
    for i, blk in enumerate(problem.x_blocks):
        if not isinstance(blk.objective, L1):
            raise DegenerateInstance("enumeration expects every x block to be l1")
        alpha = float(blk.A[0, 0])
        l1_meta.append((i, alpha, blk.objective.weight))
    n = problem.n
    total_l1 = problem.p * n
    if total_l1 > PATTERN_DIM_CAP:
        raise PatternExplosion(f"total l1 dimension {total_l1} exceeds cap {PATTERN_DIM_CAP}")

    y_dim = sum(problem.y_dims)
    y_off = np.concatenate([[0], np.cumsum(problem.y_dims)]).astype(int)
    accepted = []
    for code in range(3 ** total_l1):
        signs = np.zeros(total_l1, dtype=int)
        cc = code
        for t in range(total_l1):
            signs[t] = (cc % 3) - 1  # -1, 0, +1
            cc //= 3
        support = np.flatnonzero(signs != 0)
        ns = support.size
        size = ns + y_dim + n
        K = np.zeros((size, size))
        rhs = np.zeros(size)
        # multiplier pinning on the support: alpha_i lambda_c = weight_i sign
        for row, t in enumerate(support):
            i, alpha, weight = l1_meta[t // n]
            comp = t % n
            K[row, ns + y_dim + comp] = alpha
            rhs[row] = weight * signs[t]
        # stationarity of the smooth y blocks: P_j y_j - B_j' lambda = -r_j
        for j, blk in enumerate(problem.y_blocks):
            rows = slice(ns + y_off[j], ns + y_off[j + 1])
            cols = slice(ns + y_off[j], ns + y_off[j + 1])
            K[rows, cols] = blk.objective.P
            K[rows, ns + y_dim:] = -blk.A.T
            rhs[rows] = -blk.objective.r
        # equality constraint: sum_i alpha_i x_i + sum_j B_j y_j = c
        for row in range(n):
            for col, t in enumerate(support):
                i, alpha, _ = l1_meta[t // n]
                if t % n == row:
                    K[ns + y_dim + row, col] += alpha
            K[ns + y_dim + row, ns:ns + y_dim] = np.concatenate(
                [blk.A[row] for blk in problem.y_blocks]
            )
        rhs[ns + y_dim:] = problem.c
        try:
            if np.linalg.cond(K) > KKT_COND_CAP:
                continue
            sol = np.linalg.solve(K, rhs)
        except np.linalg.LinAlgError:
            continue
        z_s, yvec, lam = sol[:ns], sol[ns:ns + y_dim], sol[ns + y_dim:]
        scale = 1.0 + float(np.abs(sol).max(initial=0.0))
        if np.any(z_s * signs[support] < margin * scale):
            continue
        ok = True
        for t in range(total_l1):
            if signs[t] != 0:
                continue
            i, alpha, weight = l1_meta[t // n]
            if abs(alpha * lam[t % n]) > weight * (1.0 - margin) + 1e-13:
                ok = False
                break
        if not ok:
            continue
        xs = [np.zeros(n) for _ in range(problem.p)]
        for col, t in enumerate(support):
            xs[t // n][t % n] = z_s[col]
        ys = [yvec[y_off[j]:y_off[j + 1]] for j in range(problem.q)]
        accepted.append((signs.copy(), Iterate(tuple(xs), tuple(ys), lam)))
        if len(accepted) > 1:
            raise NonUniqueSolution("two sign patterns pass the strict filter")
    if not accepted:
        raise DegenerateInstance("no sign pattern passes the strict filter")
    return accepted[0][1]


def reference_enumerate_box(problem: BlockProblem, margin: float = PATTERN_MARGIN) -> Iterate:
    """Bound-pattern enumeration one pattern at a time: for each pattern code
    in turn, build and condition its KKT matrix, solve, and filter.
    `generators._enumerate_pieces` must return the same bytes or raise the
    same exception type on box problems."""
    blocks = problem.x_blocks + problem.y_blocks
    P, r = _stack_dims(problem)
    total = r.shape[0]
    C = np.hstack([b.A for b in blocks])
    n = problem.n

    lo = np.full(total, -np.inf)
    hi = np.full(total, np.inf)
    for blk, sl in zip(blocks, problem.block_slices):
        if isinstance(blk.set, Box):
            lo[sl] = blk.set.lo
            hi[sl] = blk.set.hi
    boxed = np.flatnonzero(np.isfinite(lo) | np.isfinite(hi))
    if boxed.size > PATTERN_DIM_CAP:
        raise PatternExplosion(f"boxed dimension {boxed.size} exceeds cap {PATTERN_DIM_CAP}")

    accepted = []
    for code in range(3 ** boxed.size):
        state = np.zeros(total, dtype=int)  # 0 interior, 1 at lo, 2 at hi
        cc = code
        usable = True
        for t, comp in enumerate(boxed):
            st = cc % 3
            cc //= 3
            if st == 1 and not np.isfinite(lo[comp]):
                usable = False
                break
            if st == 2 and not np.isfinite(hi[comp]):
                usable = False
                break
            state[comp] = st
        if not usable:
            continue
        active = state != 0
        free = ~active
        nf = int(free.sum())
        u = np.where(state == 1, np.where(np.isfinite(lo), lo, 0.0),
                     np.where(state == 2, np.where(np.isfinite(hi), hi, 0.0), 0.0))
        # unknowns: u_free, lambda; equations: free stationarity + constraint
        size = nf + n
        K = np.zeros((size, size))
        rhs = np.zeros(size)
        K[:nf, :nf] = P[np.ix_(free, free)]
        K[:nf, nf:] = -C.T[free]
        rhs[:nf] = -r[free] - P[np.ix_(free, active)] @ u[active]
        K[nf:, :nf] = C[:, free]
        rhs[nf:] = problem.c - C[:, active] @ u[active]
        try:
            if np.linalg.cond(K) > KKT_COND_CAP:
                continue
            sol = np.linalg.solve(K, rhs)
        except np.linalg.LinAlgError:
            continue
        u[free] = sol[:nf]
        lam = sol[nf:]
        grad = P @ u + r - C.T @ lam
        scale = 1.0 + float(np.abs(u).max(initial=0.0)) + float(np.abs(grad).max(initial=0.0))
        eps = margin * scale
        if np.any(u[free] < lo[free] + eps) or np.any(u[free] > hi[free] - eps):
            continue
        if np.any(grad[state == 1] < eps) or np.any(grad[state == 2] > -eps):
            continue
        accepted.append(Iterate.from_stack(problem, np.concatenate([u, lam])))
        if len(accepted) > 1:
            raise NonUniqueSolution("two bound patterns pass the strict filter")
    if not accepted:
        raise DegenerateInstance("no bound pattern passes the strict filter")
    return accepted[0]


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
