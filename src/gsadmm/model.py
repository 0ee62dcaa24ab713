"""Problem model for grouped multi-block separable convex programs.

A problem instance is

    min  sum_i f_i(x_i) + sum_j g_j(y_j)
    s.t. sum_i A_i x_i + sum_j B_j y_j = c,   x_i in X_i,  y_j in Y_j,

with every coupling matrix of full column rank and every constraint set a
polyhedron. The objective catalog is closed (quadratic, weighted l1, linear)
so that every block subproblem admits an exact oracle and every
subdifferential is a piecewise linear multifunction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# A coupling matrix is reported rank deficient when its smallest singular
# value is at most RANK_RTOL times its largest.
RANK_RTOL = 1e-10

# Box/nonnegative blocks above this dimension make active-set enumeration
# expensive; validation warns but does not reject. Measured worst case (the
# minimizer at the last of the 3^d patterns, one BLAS thread, 2-vCPU KVM
# guest): 5 ms per oracle call at d = 8, 15 ms at d = 9, 0.1 s at d = 10
# and 1.1 s at d = 12.
ENUMERATION_WARN_DIM = 8
# Above this dimension they are rejected: enumeration visits up to 3^dim patterns.
BOX_ENUM_CAP = 12

# Region policies for the dual stepsizes (tau, s).
REQUIRE_D = "D"
ALLOW_G = "G"


def _as_vector(v) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.ndim != 1:
        a = a.reshape(-1)
    return a


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    return a


def matvecs(mats: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """mats @ z for each row z of Z (broadcast) as stacked matrix-vector
    products, so each row has the bits of the 1-d product; a GEMM does not."""
    return np.matmul(mats, Z[..., None])[..., 0]


def rows_dot(V: np.ndarray) -> np.ndarray:
    """v @ v for each row v of V, as stacked (1 x N)(N x 1) products."""
    return (V[:, None, :] @ V[:, :, None])[:, 0, 0]


def block_sum(rows: np.ndarray) -> np.ndarray:
    """The rows (axis -2) summed in order onto +0.0, as `zeros(n) += row` forms
    it, for each leading index."""
    return sum((rows[..., i, :] for i in range(rows.shape[-2])), np.zeros(rows.shape[:-2] + rows.shape[-1:]))


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Quadratic:
    """Convex quadratic z -> 0.5 z'Pz + r'z + t with symmetric PSD P."""

    P: np.ndarray
    r: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "P", _as_matrix(self.P))
        object.__setattr__(self, "r", _as_vector(self.r))
        object.__setattr__(self, "t", float(self.t))

    def value(self, z: np.ndarray) -> float:
        return 0.5 * float(z @ self.P @ z) + float(self.r @ z) + self.t

    def gradient(self, z: np.ndarray) -> np.ndarray:
        """P z + r at z, or at each row of a 2-d z (stacked matrix-vector
        products, so each row has the bits of the 1-d call)."""
        return matvecs(self.P, z) + self.r


@dataclass(frozen=True, eq=False)
class L1:
    """Weighted l1 norm z -> weight * sum_i |z_i|, weight >= 0."""

    weight: float

    def __post_init__(self):
        object.__setattr__(self, "weight", float(self.weight))

    def value(self, z: np.ndarray) -> float:
        return self.weight * float(np.abs(z).sum())


@dataclass(frozen=True, eq=False)
class Linear:
    """Linear objective z -> r'z."""

    r: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r", _as_vector(self.r))

    def value(self, z: np.ndarray) -> float:
        return float(self.r @ z)

    def gradient(self, z: np.ndarray) -> np.ndarray:
        return self.r


Objective = Quadratic | L1 | Linear


# ---------------------------------------------------------------------------
# Feasible sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Free:
    """The whole space."""


@dataclass(frozen=True, eq=False)
class Box:
    """Componentwise bounds lo <= z <= hi; entries may be -inf/+inf."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", _as_vector(self.lo))
        object.__setattr__(self, "hi", _as_vector(self.hi))


@dataclass(frozen=True, eq=False)
class Nonnegative:
    """The nonnegative orthant z >= 0."""


FeasibleSet = Free | Box | Nonnegative


# ---------------------------------------------------------------------------
# Problem instance
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Block:
    """One primal block: objective, coupling matrix (n x m), feasible set."""

    objective: Objective
    A: np.ndarray
    set: FeasibleSet

    def __post_init__(self):
        # C order, so a stack of coupling matrices has each block's layout
        object.__setattr__(self, "A", np.ascontiguousarray(_as_matrix(self.A)))

    @property
    def dim(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True, eq=False)
class BlockProblem:
    """A grouped instance: p x-blocks, q y-blocks, and the right-hand side c."""

    x_blocks: tuple[Block, ...]
    y_blocks: tuple[Block, ...]
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_blocks", tuple(self.x_blocks))
        object.__setattr__(self, "y_blocks", tuple(self.y_blocks))
        object.__setattr__(self, "c", _as_vector(self.c))

    @property
    def p(self) -> int:
        return len(self.x_blocks)

    @property
    def q(self) -> int:
        return len(self.y_blocks)

    @property
    def n(self) -> int:
        return self.c.shape[0]

    # The block layout of w = (x_1..x_p, y_1..y_q, lambda), computed once:
    # the blocks and their coupling matrices do not change after construction.
    @cached_property
    def x_dims(self) -> tuple[int, ...]:
        return tuple(b.dim for b in self.x_blocks)

    @cached_property
    def y_dims(self) -> tuple[int, ...]:
        return tuple(b.dim for b in self.y_blocks)

    @cached_property
    def block_slices(self) -> tuple[slice, ...]:
        """The slice of each x block, then each y block, in the stacked w."""
        out, off = [], 0
        for d in self.x_dims + self.y_dims:
            out.append(slice(off, off + d))
            off += d
        return tuple(out)

    @cached_property
    def total_dim(self) -> int:
        """Stacked dimension of w = (x, y, lambda)."""
        return sum(self.x_dims) + sum(self.y_dims) + self.n

    def products(self, group: int, w: np.ndarray) -> np.ndarray:
        """The (blocks, n) stack of A_i z_i over group 0 (x) or 1 (y), with z_i
        block i's part of the stacked w (or of each row of a 2-d w, one stack
        per row); row i has the bits of A_i @ z_i."""
        blocks, slices = (self.y_blocks, self.block_slices[self.p:]) if group else (self.x_blocks, self.block_slices)
        out = np.empty(w.shape[:-1] + (len(blocks), self.n))
        for i, (blk, sl) in enumerate(zip(blocks, slices)):
            out[..., i, :] = matvecs(blk.A, w[..., sl])
        return out


@dataclass(frozen=True)
class SolverConfig:
    """Penalty, dual stepsizes, proximal weights, and stopping control.

    Requirements: beta > 0, sigma1 > p - 1, sigma2 > q - 1 (strict), and
    (tau, s) inside the region selected by region_policy ("D" accepts only
    the triangle {tau < 1, s < 1, tau + s > 0}; "G" also accepts the wider
    elliptic region, with rate diagnostics uncertified outside the triangle).
    """

    beta: float = 1.0
    tau: float = 0.3
    s: float = 0.4
    sigma1: float = 0.5
    sigma2: float = 0.5
    max_iters: int = 500
    tol: float = 1e-10
    region_policy: str = REQUIRE_D


@dataclass(frozen=True, eq=False)
class Iterate:
    """A full primal-dual point w = (x_1..x_p, y_1..y_q, lambda).

    An Iterate is a value: its parts are not modified after construction.
    """

    x: tuple[np.ndarray, ...]
    y: tuple[np.ndarray, ...]
    lam: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(_as_vector(v) for v in self.x))
        object.__setattr__(self, "y", tuple(_as_vector(v) for v in self.y))
        object.__setattr__(self, "lam", _as_vector(self.lam))

    def stack(self) -> np.ndarray:
        """The stacked vector (x, y, lambda), formed on the first call and
        returned read-only from then on."""
        stacked = self.__dict__.get("_stacked")
        if stacked is None:
            stacked = np.concatenate([*self.x, *self.y, self.lam])
            stacked.flags.writeable = False
            object.__setattr__(self, "_stacked", stacked)
        return stacked

    @staticmethod
    def zeros(problem: BlockProblem) -> "Iterate":
        return Iterate(
            tuple(np.zeros(d) for d in problem.x_dims),
            tuple(np.zeros(d) for d in problem.y_dims),
            np.zeros(problem.n),
        )

    @staticmethod
    def from_stack(problem: BlockProblem, v: np.ndarray) -> "Iterate":
        """The Iterate whose parts are views of the stacked vector v."""
        v = _as_vector(v)
        if v.shape[0] != problem.total_dim:
            raise ValueError("stacked vector has wrong length")
        parts = [v[sl] for sl in problem.block_slices]
        return Iterate(tuple(parts[:problem.p]), tuple(parts[problem.p:]), v[v.shape[0] - problem.n:])


@dataclass
class ValidationReport:
    """Accumulated violations (fatal) and warnings (advisory)."""

    violations: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# Stepsize regions
# ---------------------------------------------------------------------------

def in_region_G(tau: float, s: float) -> bool:
    """Elliptic stepsize region: tau + s > 0 and -tau^2 - s^2 - tau*s + tau + s + 1 > 0."""
    return tau + s > 0.0 and -tau * tau - s * s - tau * s + tau + s + 1.0 > 0.0


def in_region_D(tau: float, s: float) -> bool:
    """Triangular stepsize region: tau < 1, s < 1, tau + s > 0."""
    return tau < 1.0 and s < 1.0 and tau + s > 0.0


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _check_objective(obj: Objective, dim: int, label: str, report: ValidationReport):
    if isinstance(obj, Quadratic):
        if obj.P.shape != (dim, dim):
            report.violations.append(f"{label}: quadratic P has shape {obj.P.shape}, expected ({dim}, {dim})")
            return
        if obj.r.shape != (dim,):
            report.violations.append(f"{label}: quadratic r has length {obj.r.shape[0]}, expected {dim}")
            return
        bad = [name for name, v in (("P", obj.P), ("r", obj.r), ("t", obj.t)) if not np.isfinite(v).all()]
        if bad:
            report.violations.append(f"{label}: quadratic {', '.join(bad)} has non-finite entries")
            return
        scale = max(1.0, float(np.abs(obj.P).max()))
        if float(np.abs(obj.P - obj.P.T).max()) > 1e-10 * scale:
            report.violations.append(f"{label}: quadratic P is not symmetric")
            return
        if float(np.linalg.eigvalsh(0.5 * (obj.P + obj.P.T)).min()) < -1e-10 * scale:
            report.violations.append(f"{label}: quadratic P is not positive semidefinite")
    elif isinstance(obj, L1):
        if not math.isfinite(obj.weight):
            report.violations.append(f"{label}: l1 weight {obj.weight} is not finite")
        elif obj.weight < 0.0:
            report.violations.append(f"{label}: l1 weight {obj.weight} is negative")
    elif isinstance(obj, Linear):
        if obj.r.shape != (dim,):
            report.violations.append(f"{label}: linear r has length {obj.r.shape[0]}, expected {dim}")
        elif not np.isfinite(obj.r).all():
            report.violations.append(f"{label}: linear r has non-finite entries")


def _check_set(fset: FeasibleSet, dim: int, label: str, report: ValidationReport):
    if isinstance(fset, Box):
        if fset.lo.shape != (dim,) or fset.hi.shape != (dim,):
            report.violations.append(f"{label}: box bounds have wrong length, expected {dim}")
            return
        if np.isnan(fset.lo).any() or np.isnan(fset.hi).any():
            report.violations.append(f"{label}: box bounds have NaN entries")
        elif np.any(fset.lo > fset.hi):
            report.violations.append(f"{label}: box has lo > hi in some component")
    if isinstance(fset, (Box, Nonnegative)) and ENUMERATION_WARN_DIM < dim <= BOX_ENUM_CAP:
        report.warnings.append(
            f"{label}: constrained dimension {dim} exceeds {ENUMERATION_WARN_DIM}; "
            "active-set enumeration will be slow"
        )


def oracle_violation(objective: Objective, fset: FeasibleSet, A: np.ndarray) -> str | None:
    """Why a block with this objective, set and finite coupling matrix A has
    no exact oracle, or None when it has one. The catalog admits only
    combinations with a closed form or a finite enumeration:

        quadratic x {free, box, nonnegative}   any A
        l1        x {free, nonnegative}        A a positive multiple of I
        linear    x {box, nonnegative}         any A

    and box or nonnegative blocks of at most BOX_ENUM_CAP components.
    """
    if not isinstance(objective, (Quadratic, L1, Linear)):
        return f"unknown objective variant {type(objective).__name__}"
    if not isinstance(fset, (Free, Box, Nonnegative)):
        return f"unknown set variant {type(fset).__name__}"
    if isinstance(objective, L1):
        alpha = float(A[0, 0]) if A.size and A.shape[0] == A.shape[1] else 0.0
        if not (alpha > 0.0
                and float(np.abs(A - alpha * np.eye(A.shape[0])).max()) <= 1e-12 * max(1.0, alpha)):
            return "l1 blocks require the coupling matrix to be a positive multiple of I"
        if isinstance(fset, Box):
            return "l1 objective with Box set"
    elif isinstance(objective, Linear) and isinstance(fset, Free):
        return "linear objective over a free block"
    if not isinstance(fset, Free) and A.shape[1] > BOX_ENUM_CAP:
        return f"constrained block dimension {A.shape[1]} exceeds enumeration cap {BOX_ENUM_CAP}"
    return None


def validate_problem(problem: BlockProblem) -> ValidationReport:
    """Check dimensions, rank, variant invariants and the exact-oracle catalog;
    findings go in the report."""
    report = ValidationReport()
    n = problem.n
    if n < 1:
        report.violations.append("constraint dimension n must be at least 1")
    if problem.p < 1:
        report.violations.append("at least one x-block is required (p >= 1)")
    if problem.q < 1:
        report.violations.append("at least one y-block is required (q >= 1)")
    if not np.isfinite(problem.c).all():
        report.violations.append("right-hand side c has non-finite entries")
    for group, blocks in (("x", problem.x_blocks), ("y", problem.y_blocks)):
        for idx, blk in enumerate(blocks):
            label = f"{group}[{idx}]"
            if blk.A.shape[0] != n:
                report.violations.append(
                    f"{label}: coupling matrix has {blk.A.shape[0]} rows, expected n={n}"
                )
            if not np.isfinite(blk.A).all():
                report.violations.append(f"{label}: coupling matrix has non-finite entries")
            else:
                sv = np.linalg.svd(blk.A, compute_uv=False)
                if sv.size == 0 or sv.max() == 0.0 or sv.min() <= RANK_RTOL * sv.max():
                    report.violations.append(f"{label}: coupling matrix is not of full column rank")
                why = oracle_violation(blk.objective, blk.set, blk.A)
                if why:
                    report.violations.append(f"{label}: {why}")
            _check_objective(blk.objective, blk.dim, label, report)
            _check_set(blk.set, blk.dim, label, report)
    return report


def validate_config(config: SolverConfig, problem: BlockProblem) -> ValidationReport:
    """Check penalty/proximal bounds and the stepsize region policy."""
    report = ValidationReport()
    for name in ("beta", "tau", "s", "sigma1", "sigma2"):
        value = getattr(config, name)
        if not math.isfinite(value):
            report.violations.append(f"{name} must be finite, got {value}")
    if math.isnan(config.tol):
        report.violations.append("tol must be a number (negative disables the residual test), got nan")
    if not config.beta > 0.0:
        report.violations.append(f"beta must be positive, got {config.beta}")
    if not config.sigma1 > problem.p - 1:
        report.violations.append(
            f"sigma1 must exceed p-1 = {problem.p - 1} strictly, got {config.sigma1}"
        )
    if not config.sigma2 > problem.q - 1:
        report.violations.append(
            f"sigma2 must exceed q-1 = {problem.q - 1} strictly, got {config.sigma2}"
        )
    if config.max_iters < 0:
        report.violations.append(f"max_iters must be nonnegative, got {config.max_iters}")
    tau, s = config.tau, config.s
    why = region_violation(config)
    if why:
        report.violations.append(why)
    elif config.region_policy not in (REQUIRE_D, ALLOW_G):
        report.violations.append(f"unknown region policy {config.region_policy!r}")
    elif not in_region_D(tau, s):
        report.warnings.append(
            f"(tau, s) = ({tau}, {s}) lies outside the triangle region; "
            "convergence holds but rate diagnostics are not certified"
        )
    return report


def region_violation(config: SolverConfig) -> str | None:
    """Why (tau, s) lies outside the stepsize region its policy requires, or
    None (also for an unknown policy)."""
    tau, s = config.tau, config.s
    if config.region_policy == REQUIRE_D and not in_region_D(tau, s):
        return f"(tau, s) = ({tau}, {s}) is outside the triangle region required by policy D"
    if config.region_policy == ALLOW_G and not (in_region_G(tau, s) or in_region_D(tau, s)):
        return f"(tau, s) = ({tau}, {s}) is outside both stepsize regions"
    return None
