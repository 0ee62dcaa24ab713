"""Reproducible test instances with independently computed reference points.

Every generator returns an InstanceBundle whose reference point w* is
produced by a solver-independent oracle (a dense KKT solve for smooth
instances, an exhaustive active-pattern enumeration for l1 and box
instances) and then verified through the diagnostics error map, so the
bundles double as ground truth for the convergence checks.

Randomness comes from a splitmix-style 64-bit generator so the same seed
reproduces the same instance bit for bit on any platform. The stream is

    state  <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z      <- state
    z      <- (z xor (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z      <- (z xor (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output <- z xor (z >> 31)

with uniforms taken as (output >> 11) / 2^53 and normals via Box-Muller.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .model import (
    Block,
    BlockProblem,
    Box,
    Free,
    Iterate,
    L1,
    Quadratic,
    SolverConfig,
)

# Construction-time bound on the verified KKT residual of every w*.
KKT_RESIDUAL_TOL = 1e-10
# Dense KKT systems above this condition number are rejected.
KKT_COND_CAP = 1e10
# Total enumerated (l1 or boxed) dimension above this raises PatternExplosion.
PATTERN_DIM_CAP = 8
# Strict-complementarity margin separating accepted from degenerate patterns.
PATTERN_MARGIN = 1e-9


class DegenerateInstance(RuntimeError):
    """Ill-conditioned KKT system or no strictly consistent pattern."""


class NonUniqueSolution(RuntimeError):
    """More than one active pattern passes the strict feasibility filter."""


class PatternExplosion(RuntimeError):
    """Enumerated dimension exceeds the cap (3^dim patterns)."""


GOLDEN_GAMMA = 0x9E3779B97F4A7C15
MIX_1 = 0xBF58476D1CE4E5B9
MIX_2 = 0x94D049BB133111EB
MASK64 = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit stream; see the module docstring for constants."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN_GAMMA) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * MIX_1) & MASK64
        z = ((z ^ (z >> 27)) * MIX_2) & MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform on [0, 1)."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def normal(self) -> float:
        """Standard normal via Box-Muller (two uniforms per draw)."""
        u1 = ((self.next_u64() >> 11) + 1) * 2.0 ** -53  # in (0, 1]
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def normals(self, k: int) -> np.ndarray:
        return np.array([self.normal() for _ in range(k)])

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def log_uniform_in(self, lo: float, hi: float) -> float:
        return math.exp(self.uniform_in(math.log(lo), math.log(hi)))


def _orthogonal(rng: SplitMix64, k: int) -> np.ndarray:
    """Orthogonal factor of a seeded Gaussian draw, sign-fixed for determinism."""
    gauss = rng.normals(k * k).reshape(k, k)
    q, r = np.linalg.qr(gauss)
    return q * np.sign(np.diag(r))


def full_rank_matrix(rng: SplitMix64, n: int, m: int) -> np.ndarray:
    """n x m coupling matrix with log-uniform singular values in [0.1 n, n]."""
    k = min(n, m)
    svals = np.array([rng.log_uniform_in(0.1 * n, 1.0 * n) for _ in range(k)])
    q1 = _orthogonal(rng, n)[:, :k]
    q2 = _orthogonal(rng, m)[:, :k]
    return (q1 * svals) @ q2.T


def spd_matrix(rng: SplitMix64, d: int, eig_lo: float = 0.5, eig_hi: float = 5.0) -> np.ndarray:
    """Symmetric positive definite matrix with log-uniform eigenvalues."""
    eigs = np.array([rng.log_uniform_in(eig_lo, eig_hi) for _ in range(d)])
    q = _orthogonal(rng, d)
    return (q * eigs) @ q.T


@dataclass(frozen=True, eq=False)
class InstanceBundle:
    """Problem plus its verified reference point and oracle provenance."""

    name: str
    problem: BlockProblem
    w_star: Iterate
    provenance: str
    seed: int
    certificate: str  # why the solution set is a singleton

    def kkt_residual(self) -> float:
        return float(np.linalg.norm(diagnostics.error_map_residual(self.problem, self.w_star)))


def _verify_bundle(bundle: InstanceBundle) -> InstanceBundle:
    res = bundle.kkt_residual()
    if not res <= KKT_RESIDUAL_TOL:
        raise DegenerateInstance(
            f"{bundle.name}: reference point fails the error-map check ({res:.3e})"
        )
    return bundle


def default_config(problem: BlockProblem, **overrides) -> SolverConfig:
    """Canonical run parameters: beta=1, (tau, s)=(0.3, 0.4), minimal-slack
    proximal weights sigma = (group size - 1) + 0.5."""
    base = dict(
        beta=1.0, tau=0.3, s=0.4,
        sigma1=problem.p - 1 + 0.5,
        sigma2=problem.q - 1 + 0.5,
        max_iters=500, tol=1e-10, region_policy="D",
    )
    base.update(overrides)
    return SolverConfig(**base)


# ---------------------------------------------------------------------------
# Smooth quadratic instances (dense KKT oracle)
# ---------------------------------------------------------------------------

def _stack_dims(problem: BlockProblem) -> tuple[np.ndarray, np.ndarray]:
    """(blockdiag of quadratic Hessians, stacked linear terms) over (x, y)."""
    total = problem.total_dim - problem.n
    P = np.zeros((total, total))
    r = np.zeros(total)
    for b, sl in zip(problem.x_blocks + problem.y_blocks, problem.block_slices):
        if isinstance(b.objective, Quadratic):
            P[sl, sl] = b.objective.P
            r[sl] = b.objective.r
    return P, r


def _kkt_solve(problem: BlockProblem) -> Iterate:
    """Solve [blkdiag(P), -C'; C, 0] (u; lambda) = (-r; c) densely."""
    P, r = _stack_dims(problem)
    C = np.hstack([b.A for b in problem.x_blocks] + [b.A for b in problem.y_blocks])
    total = C.shape[1]
    n = problem.n
    K = np.zeros((total + n, total + n))
    K[:total, :total] = P
    K[:total, total:] = -C.T
    K[total:, :total] = C
    rhs = np.concatenate([-r, problem.c])
    cond = np.linalg.cond(K)
    if not cond <= KKT_COND_CAP:
        raise DegenerateInstance(f"KKT matrix condition number {cond:.3e} exceeds {KKT_COND_CAP:.0e}")
    return Iterate.from_stack(problem, np.linalg.solve(K, rhs))


def _quadratic_block(rng: SplitMix64, d: int, n: int) -> Block:
    """A free block with a strictly convex quadratic objective; draws P, then
    r, then the n x d coupling matrix."""
    return Block(Quadratic(spd_matrix(rng, d), 0.5 * rng.normals(d)), full_rank_matrix(rng, n, d), Free())


def gen_quadratic(p: int, q: int, x_dims, y_dims, n: int, seed: int) -> InstanceBundle:
    """Strictly convex quadratics over free blocks; oracle = dense KKT solve."""
    if len(x_dims) != p or len(y_dims) != q:
        raise ValueError("x_dims/y_dims lengths must match p and q")
    if any(d > n for d in list(x_dims) + list(y_dims)):
        raise ValueError("block dimension exceeds n; full column rank is impossible")
    rng = SplitMix64(seed)
    x_blocks = tuple(_quadratic_block(rng, d, n) for d in x_dims)
    y_blocks = tuple(_quadratic_block(rng, d, n) for d in y_dims)
    c = rng.normals(n)
    problem = BlockProblem(x_blocks, y_blocks, c)
    w_star = _kkt_solve(problem)
    return _verify_bundle(InstanceBundle(
        name=f"quadratic-p{p}q{q}n{n}-s{seed}", problem=problem, w_star=w_star,
        provenance="dense KKT linear solve", seed=seed, certificate="strongly-convex",
    ))


# ---------------------------------------------------------------------------
# l1 instances (sign-pattern enumeration oracle)
# ---------------------------------------------------------------------------

def _enumerate_l1(problem: BlockProblem, margin: float = PATTERN_MARGIN) -> Iterate:
    """Reference point by enumerating sign patterns of all l1 components.

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


def gen_l1(p: int, q: int, y_dims, n: int, seed: int) -> InstanceBundle:
    """l1 x-blocks coupled through alpha I plus strictly convex quadratic
    y-blocks; oracle = sign-pattern enumeration."""
    if len(y_dims) != q:
        raise ValueError("y_dims length must match q")
    if any(d > n for d in y_dims):
        raise ValueError("block dimension exceeds n; full column rank is impossible")
    if p * n > PATTERN_DIM_CAP:
        raise PatternExplosion(f"total l1 dimension {p * n} exceeds cap {PATTERN_DIM_CAP}")
    rng = SplitMix64(seed)
    x_blocks = tuple(
        Block(L1(rng.uniform_in(0.5, 1.5)), rng.uniform_in(0.6, 1.4) * np.eye(n), Free())
        for _ in range(p)
    )
    y_blocks = tuple(_quadratic_block(rng, d, n) for d in y_dims)
    c = rng.normals(n)
    problem = BlockProblem(x_blocks, y_blocks, c)
    w_star = _enumerate_l1(problem)
    return _verify_bundle(InstanceBundle(
        name=f"l1-p{p}q{q}n{n}-s{seed}", problem=problem, w_star=w_star,
        provenance="sign-pattern enumeration", seed=seed, certificate="unique-pattern",
    ))


# ---------------------------------------------------------------------------
# Box-constrained quadratic instances (bound-pattern enumeration oracle)
# ---------------------------------------------------------------------------

def _enumerate_box(problem: BlockProblem, margin: float = PATTERN_MARGIN) -> Iterate:
    """Reference point by enumerating lower/interior/upper patterns of every
    boxed component; free components stay interior. Multiplier signs and
    interior positions must clear the strict margin; exactly one pattern may
    pass.

    A pattern's KKT matrix depends only on which components are active, so
    each active mask is built and conditioned once, and the right-hand sides
    of all its patterns go through one stacked solve. Every product keeps the
    form of a one-pattern-at-a-time solve (`tests/gridsearch.py`), so w* has
    the same bits.
    """
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

    # one row per pattern: 0 interior, 1 at lo, 2 at hi; infinite bounds
    # cannot be active
    digits = np.arange(3 ** boxed.size)[:, None] // 3 ** np.arange(boxed.size) % 3
    digits = digits[~((digits == 1) & ~np.isfinite(lo[boxed])
                      | (digits == 2) & ~np.isfinite(hi[boxed])).any(axis=1)]
    states = np.zeros((digits.shape[0], total), dtype=int)
    states[:, boxed] = digits
    U = np.where(states == 1, np.where(np.isfinite(lo), lo, 0.0),
                 np.where(states == 2, np.where(np.isfinite(hi), hi, 0.0), 0.0))
    masks = (digits != 0) @ (1 << np.arange(boxed.size))

    accepted = []
    for mask in range(1 << boxed.size):  # every boxed component has a finite bound
        rows = masks == mask
        state, u = states[rows], U[rows]
        active = state[0] != 0
        free = ~active
        nf = int(free.sum())
        # unknowns: u_free, lambda; equations: free stationarity + constraint
        size = nf + n
        K = np.zeros((size, size))
        K[:nf, :nf] = P[np.ix_(free, free)]
        K[:nf, nf:] = -C.T[free]
        K[nf:, :nf] = C[:, free]
        try:
            if np.linalg.cond(K) > KKT_COND_CAP:
                continue
        except np.linalg.LinAlgError:
            continue
        P_fa, C_a = P[np.ix_(free, active)], C[:, active]
        rhs = np.empty((u.shape[0], size))
        for rhs_row, u_row in zip(rhs, u):
            # 1-d products on a fresh contiguous u[active], as a one-pattern
            # solve forms them: stacked products change the last bit of w*
            u_act = u_row[active]
            rhs_row[:nf] = -r[free] - P_fa @ u_act
            rhs_row[nf:] = problem.c - C_a @ u_act
        try:
            # K's LU is the same for every row, so all rows solve or none do
            sol = np.linalg.solve(K, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            continue
        u[:, free] = sol[:, :nf]
        lam = sol[:, nf:]
        grad = np.matmul(P, u[:, :, None])[:, :, 0] + r - np.matmul(C.T, lam[:, :, None])[:, :, 0]
        scale = 1.0 + np.abs(u).max(axis=1, initial=0.0) + np.abs(grad).max(axis=1, initial=0.0)
        eps = (margin * scale)[:, None]
        reject = ((u[:, free] < lo[free] + eps) | (u[:, free] > hi[free] - eps)).any(axis=1)
        reject |= ((state == 1) & (grad < eps) | (state == 2) & (grad > -eps)).any(axis=1)
        accepted += [np.concatenate([u_ok, lam_ok]) for u_ok, lam_ok in zip(u[~reject], lam[~reject])]
    if len(accepted) > 1:
        raise NonUniqueSolution("two bound patterns pass the strict filter")
    if not accepted:
        raise DegenerateInstance("no bound pattern passes the strict filter")
    return Iterate.from_stack(problem, accepted[0])


def gen_box_qp(p: int, q: int, x_dims, y_dims, n: int, seed: int) -> InstanceBundle:
    """Strictly convex quadratics with boxed x-blocks and free y-blocks;
    oracle = bound-pattern enumeration."""
    if len(x_dims) != p or len(y_dims) != q:
        raise ValueError("x_dims/y_dims lengths must match p and q")
    if any(d > n for d in list(x_dims) + list(y_dims)):
        raise ValueError("block dimension exceeds n; full column rank is impossible")
    if sum(x_dims) > PATTERN_DIM_CAP:
        raise PatternExplosion(f"boxed dimension {sum(x_dims)} exceeds cap {PATTERN_DIM_CAP}")
    rng = SplitMix64(seed)

    def boxed_block(d):
        blk = _quadratic_block(rng, d, n)
        lo = np.array([-rng.uniform_in(0.05, 0.5) for _ in range(d)])
        hi = np.array([rng.uniform_in(0.05, 0.5) for _ in range(d)])
        return Block(blk.objective, blk.A, Box(lo, hi))

    x_blocks = tuple(boxed_block(d) for d in x_dims)
    y_blocks = tuple(_quadratic_block(rng, d, n) for d in y_dims)
    # Anchor c at a strictly interior point so the instance is feasible even
    # when the y couplings do not span the constraint space.
    c = np.zeros(n)
    for blk in x_blocks:
        mid = np.array([rng.uniform_in(0.25, 0.75) for _ in range(blk.dim)])
        c += blk.A @ (blk.set.lo + mid * (blk.set.hi - blk.set.lo))
    for blk in y_blocks:
        c += blk.A @ rng.normals(blk.dim)
    problem = BlockProblem(x_blocks, y_blocks, c)
    w_star = _enumerate_box(problem)
    return _verify_bundle(InstanceBundle(
        name=f"boxqp-p{p}q{q}n{n}-s{seed}", problem=problem, w_star=w_star,
        provenance="bound-pattern enumeration", seed=seed, certificate="unique-active-set",
    ))


# ---------------------------------------------------------------------------
# Fixed hand-solved instances
# ---------------------------------------------------------------------------

def qp1() -> InstanceBundle:
    """min x^2 + y^2 s.t. x + y = 1; saddle point (0.5, 0.5, 1)."""
    problem = BlockProblem(
        (Block(Quadratic([[2.0]], [0.0]), [[1.0]], Free()),),
        (Block(Quadratic([[2.0]], [0.0]), [[1.0]], Free()),),
        [1.0],
    )
    w_star = Iterate((np.array([0.5]),), (np.array([0.5]),), np.array([1.0]))
    return _verify_bundle(InstanceBundle(
        name="qp1", problem=problem, w_star=w_star,
        provenance="hand KKT solve", seed=0, certificate="strongly-convex",
    ))


def l1_1d() -> InstanceBundle:
    """min |x| + (y-1)^2 s.t. x + y = 1; solution (0, 1, 0)."""
    problem = BlockProblem(
        (Block(L1(1.0), [[1.0]], Free()),),
        (Block(Quadratic([[2.0]], [-2.0], 1.0), [[1.0]], Free()),),
        [1.0],
    )
    w_star = Iterate((np.array([0.0]),), (np.array([1.0]),), np.array([0.0]))
    return _verify_bundle(InstanceBundle(
        name="l1-1d", problem=problem, w_star=w_star,
        provenance="hand pattern enumeration", seed=0, certificate="unique-pattern",
    ))


def boxqp_1d() -> InstanceBundle:
    """min x^2 + y^2 s.t. x + y = 2, x in [0, 0.3]; solution (0.3, 1.7, 3.4)."""
    problem = BlockProblem(
        (Block(Quadratic([[2.0]], [0.0]), [[1.0]], Box([0.0], [0.3])),),
        (Block(Quadratic([[2.0]], [0.0]), [[1.0]], Free()),),
        [2.0],
    )
    w_star = Iterate((np.array([0.3]),), (np.array([1.7]),), np.array([3.4]))
    return _verify_bundle(InstanceBundle(
        name="boxqp-1d", problem=problem, w_star=w_star,
        provenance="hand pattern enumeration", seed=0, certificate="unique-active-set",
    ))


GENERATORS = {"quadratic": gen_quadratic, "l1": gen_l1, "boxqp": gen_box_qp}


def standard_catalog() -> list[InstanceBundle]:
    """The bundled instance suite exercised by the verification harness."""
    return [
        qp1(),
        l1_1d(),
        boxqp_1d(),
        gen_quadratic(1, 1, [2], [2], 2, seed=3),
        gen_quadratic(2, 1, [2, 2], [3], 3, seed=5),
        gen_quadratic(2, 2, [2, 2], [2, 2], 3, seed=42),
        gen_quadratic(3, 2, [1, 2, 2], [2, 1], 4, seed=7),
        gen_quadratic(1, 3, [3], [2, 2, 1], 4, seed=11),
        gen_l1(1, 1, [2], 2, seed=7),
        gen_l1(1, 1, [2], 2, seed=12),
        gen_l1(1, 2, [2, 1], 2, seed=5),
        gen_box_qp(1, 1, [2], [2], 2, seed=11),
        gen_box_qp(2, 1, [2, 1], [2], 3, seed=13),
    ]
