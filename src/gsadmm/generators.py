"""Reproducible test instances with independently computed reference points.

Every generator returns an InstanceBundle whose reference point w* is
produced by a solver-independent oracle, an enumeration of the pieces and
kinks of every component (sign patterns for l1 instances, bound patterns for
box instances, and for smooth instances one pattern: a dense KKT solve), and
then verified through the diagnostics error map, so the bundles double as
ground truth for the convergence checks.

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
# Reference points (piece enumeration oracle)
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


def _enumerate_pieces(problem: BlockProblem, margin: float = PATTERN_MARGIN) -> Iterate:
    """Reference point by enumerating the pieces of every component.

    Each component's subdifferential is piecewise linear, so w* sits on one
    piece or kink per component and solves that pattern's linear KKT system.
    A free quadratic component has one piece; a boxed one its interior and a
    kink at each finite bound; an l1 one the pieces z < 0 and z > 0 and a
    kink at 0. A component on a kink is fixed at the kink's value; one on a
    piece is an unknown, and the piece's slope joins its linear term. A
    pattern passes when every unknown lies strictly inside its piece and
    every kink's -grad strictly inside the kink's subdifferential: by
    margin * scale, except that an l1 kink needs |grad| <= weight
    (1 - margin) + 1e-13. Exactly one pattern may pass.

    A pattern's KKT matrix depends only on which components sit on kinks, so
    each such mask is built and conditioned once, and the right-hand sides
    of all its patterns go through one stacked solve. Every product keeps the
    form of a one-pattern-at-a-time solve (`tests/gridsearch.py`), so w* has
    the same bits.
    """
    blocks = problem.x_blocks + problem.y_blocks
    P, r = _stack_dims(problem)
    total = r.shape[0]
    C = np.hstack([b.A for b in blocks])
    n = problem.n

    # Three options per component, each a piece or a kink, in five tables:
    # a kink's value (nan on a piece; an infinite bound is no option), a
    # piece's slope, and the interval [lo, hi] that u on a piece, or -grad on
    # a kink, must lie inside, by margin * scale where `strict` is 1.
    options = np.empty((5, total, 3))
    options[:] = np.array([np.nan, 0.0, -np.inf, np.inf, 1.0])[:, None, None]
    value, slope, lo, hi, strict = options
    for blk, sl in zip(blocks, problem.block_slices):
        if isinstance(blk.set, Box):  # interior, at lo, at hi
            lo[sl, 0], hi[sl, 0] = blk.set.lo, blk.set.hi
            value[sl, 1], hi[sl, 1] = blk.set.lo, 0.0
            value[sl, 2], lo[sl, 2] = blk.set.hi, 0.0
        elif isinstance(blk.objective, L1):  # at 0, below 0, above 0
            weight = blk.objective.weight
            value[sl, 0], strict[sl, 0] = 0.0, 0.0
            hi[sl, 0] = weight * (1.0 - margin) + 1e-13
            lo[sl, 0] = -hi[sl, 0]
            slope[sl, 1], hi[sl, 1] = -weight, 0.0
            slope[sl, 2], lo[sl, 2] = weight, 0.0
    kinked = np.flatnonzero(np.isfinite(value).any(axis=1))
    if kinked.size > PATTERN_DIM_CAP:
        raise PatternExplosion(f"enumerated dimension {kinked.size} exceeds cap {PATTERN_DIM_CAP}")

    # one option per component and pattern (0 off the kinked components);
    # from here on each table has one row per pattern
    digits = np.arange(3 ** kinked.size)[:, None] // 3 ** np.arange(kinked.size) % 3
    digits = digits[~np.isinf(value[kinked, digits]).any(axis=1)]
    option = np.zeros((digits.shape[0], total), dtype=int)
    option[:, kinked] = digits
    value, slope, lo, hi, strict = options[:, np.arange(total), option]
    on_kink = ~np.isnan(value)
    U = np.where(on_kink, value, 0.0)
    lin = -r - slope
    masks = on_kink[:, kinked] @ (1 << np.arange(kinked.size))

    accepted = []
    for mask in range(1 << kinked.size):  # every kinked component has a kink
        rows = masks == mask
        u, kink = U[rows], on_kink[rows]
        active = kink[0]
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
        for rhs_row, u_row, lin_row in zip(rhs, u, lin[rows]):
            # 1-d products on a fresh contiguous u[active], as a one-pattern
            # solve forms them: stacked products change the last bit of w*
            u_act = u_row[active]
            rhs_row[:nf] = lin_row[free] - P_fa @ u_act
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
        tol = (margin * scale)[:, None] * strict[rows]
        inside = np.where(kink, -grad, u)
        reject = ((inside < lo[rows] + tol) | (inside > hi[rows] - tol)).any(axis=1)
        accepted += [np.concatenate([u_ok, lam_ok]) for u_ok, lam_ok in zip(u[~reject], lam[~reject])]
    if len(accepted) > 1:
        raise NonUniqueSolution("two patterns pass the strict filter")
    if not accepted:
        raise DegenerateInstance("no pattern passes the condition cap and the strict filter")
    return Iterate.from_stack(problem, accepted[0])


def _check_shape(p: int, q: int, x_dims, y_dims, n: int) -> None:
    """Raise ValueError unless there are p >= 1 x-blocks and q >= 1 y-blocks
    of the given dims, each dim in 1..n (full column rank needs d <= n)."""
    if len(x_dims) != p or len(y_dims) != q:
        raise ValueError("x_dims/y_dims lengths must match p and q")
    if min(p, q, n, *x_dims, *y_dims) < 1:
        raise ValueError("p, q, n and every block dimension must be at least 1")
    if max([*x_dims, *y_dims]) > n:
        raise ValueError("block dimension exceeds n; full column rank is impossible")


# ---------------------------------------------------------------------------
# Instance families: free quadratics, l1 x-blocks, boxed quadratics
# ---------------------------------------------------------------------------

def _quadratic_block(rng: SplitMix64, d: int, n: int) -> Block:
    """A free block with a strictly convex quadratic objective; draws P, then
    r, then the n x d coupling matrix."""
    return Block(Quadratic(spd_matrix(rng, d), 0.5 * rng.normals(d)), full_rank_matrix(rng, n, d), Free())


def gen_quadratic(p: int, q: int, x_dims, y_dims, n: int, seed: int) -> InstanceBundle:
    """Strictly convex quadratics over free blocks; oracle = dense KKT solve
    (the enumeration's one pattern)."""
    _check_shape(p, q, x_dims, y_dims, n)
    rng = SplitMix64(seed)
    x_blocks = tuple(_quadratic_block(rng, d, n) for d in x_dims)
    y_blocks = tuple(_quadratic_block(rng, d, n) for d in y_dims)
    c = rng.normals(n)
    problem = BlockProblem(x_blocks, y_blocks, c)
    w_star = _enumerate_pieces(problem)
    return _verify_bundle(InstanceBundle(
        name=f"quadratic-p{p}q{q}n{n}-s{seed}", problem=problem, w_star=w_star,
        provenance="dense KKT linear solve", seed=seed, certificate="strongly-convex",
    ))


def gen_l1(p: int, q: int, y_dims, n: int, seed: int) -> InstanceBundle:
    """l1 x-blocks coupled through alpha I plus strictly convex quadratic
    y-blocks; oracle = sign-pattern enumeration."""
    _check_shape(p, q, [n] * p, y_dims, n)
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
    w_star = _enumerate_pieces(problem)
    return _verify_bundle(InstanceBundle(
        name=f"l1-p{p}q{q}n{n}-s{seed}", problem=problem, w_star=w_star,
        provenance="sign-pattern enumeration", seed=seed, certificate="unique-pattern",
    ))


def gen_box_qp(p: int, q: int, x_dims, y_dims, n: int, seed: int) -> InstanceBundle:
    """Strictly convex quadratics with boxed x-blocks and free y-blocks;
    oracle = bound-pattern enumeration."""
    _check_shape(p, q, x_dims, y_dims, n)
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
    w_star = _enumerate_pieces(problem)
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
