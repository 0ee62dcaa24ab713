"""Structural matrices of the prediction-correction reading of the iteration.

The iteration is equivalent to predicting a point w~ and correcting with
w_{k+1} = w_k - M (w_k - w~_k). The weighting matrices assembled here drive
every convergence diagnostic:

    Hx  : x-group proximal Gram matrix (diag sigma1 A_i'A_i, off-diag -A_i'A_l,
          all scaled by beta)
    Qt  : y/lambda coupling (diag (sigma2+1) beta B_j'B_j, last column
          -tau B_j', last row -B_j, corner I/beta)
    Q   : blockdiag(Hx, Qt)
    M   : identity except the last block row (-s beta B_1 .. -s beta B_q,
          (tau+s) I); invertible iff tau + s != 0
    G   : Q + Q' - M'Q, symmetric positive definite on the triangle region
    H   : Q M^{-1}, symmetric positive definite on the triangle region

All matrices are dense double precision; instances are desk scale.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import BlockProblem, SolverConfig, in_region_D

# A Cholesky factorization certifies positive definiteness only when every
# pivot clears this fraction of the mean diagonal mass.
PIVOT_RTOL = 1e-12


class SingularM(RuntimeError):
    """The correction matrix is singular (tau + s = 0)."""


def build_Hx(problem: BlockProblem, beta: float, sigma1: float) -> np.ndarray:
    blocks = tuple(zip(problem.x_blocks, problem.block_slices))
    size = sum(problem.x_dims)
    out = np.zeros((size, size))
    for i, (bi, si) in enumerate(blocks):
        for l, (bl, sl) in enumerate(blocks):
            blockval = (sigma1 if i == l else -1.0) * (bi.A.T @ bl.A)
            out[si, sl] = beta * blockval
    return out


def build_Qtilde(problem: BlockProblem, beta: float, sigma2: float, tau: float) -> np.ndarray:
    dims = problem.y_dims
    n = problem.n
    size = sum(dims) + n
    out = np.zeros((size, size))
    offs = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    for j, blk in enumerate(problem.y_blocks):
        Bj = blk.A
        sl = slice(offs[j], offs[j + 1])
        out[sl, sl] = (sigma2 + 1.0) * beta * (Bj.T @ Bj)
        out[sl, -n:] = -tau * Bj.T
        out[-n:, sl] = -Bj
    out[-n:, -n:] = np.eye(n) / beta
    return out


def build_Q(Hx: np.ndarray, Qtilde: np.ndarray) -> np.ndarray:
    return scipy.linalg.block_diag(Hx, Qtilde)


def build_M(problem: BlockProblem, beta: float, tau: float, s: float) -> np.ndarray:
    n = problem.n
    out = np.eye(problem.total_dim)
    for blk, sl in zip(problem.y_blocks, problem.block_slices[problem.p:]):
        out[-n:, sl] = -s * beta * blk.A
    out[-n:, -n:] = (tau + s) * np.eye(n)
    return out


def build_G(Q: np.ndarray, M: np.ndarray) -> np.ndarray:
    return Q + Q.T - M.T @ Q


def build_H(Q: np.ndarray, M: np.ndarray, tau: float, s: float) -> np.ndarray:
    """Q M^{-1} via a column solve on M'X = Q', symmetrized to kill roundoff skew."""
    if tau + s == 0.0:
        raise SingularM("correction matrix is singular: tau + s = 0")
    X = np.linalg.solve(M.T, Q.T)
    H = X.T
    return 0.5 * (H + H.T)


def build_G_closed(problem: BlockProblem, beta: float, sigma1: float,
                   sigma2: float, tau: float, s: float) -> np.ndarray:
    """Independent closed form of G: blockdiag(Hx, Gt) with
    Gt = [diag (sigma2+1-s) beta B_j'B_j, off-diag -s beta B_j'B_l,
    border (s-1) B_j', corner (2-tau-s)/beta I]."""
    Hx = build_Hx(problem, beta, sigma1)
    dims = problem.y_dims
    n = problem.n
    size = sum(dims) + n
    Gt = np.zeros((size, size))
    offs = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    for j, bj in enumerate(problem.y_blocks):
        for l, bl in enumerate(problem.y_blocks):
            coef = (sigma2 + 1.0 - s) if j == l else -s
            Gt[offs[j]:offs[j + 1], offs[l]:offs[l + 1]] = coef * beta * (bj.A.T @ bl.A)
        Gt[offs[j]:offs[j + 1], -n:] = (s - 1.0) * bj.A.T
        Gt[-n:, offs[j]:offs[j + 1]] = (s - 1.0) * bj.A
    Gt[-n:, -n:] = (2.0 - tau - s) / beta * np.eye(n)
    return scipy.linalg.block_diag(Hx, Gt)


def m_inverse_closed(problem: BlockProblem, beta: float, tau: float, s: float) -> np.ndarray:
    """Closed form of M^{-1}: identity except the last block row
    (s beta/(tau+s)) B_j on the y columns and I/(tau+s) in the corner."""
    if tau + s == 0.0:
        raise SingularM("correction matrix is singular: tau + s = 0")
    n = problem.n
    out = np.eye(problem.total_dim)
    for blk, sl in zip(problem.y_blocks, problem.block_slices[problem.p:]):
        out[-n:, sl] = (s * beta / (tau + s)) * blk.A
    out[-n:, -n:] = np.eye(n) / (tau + s)
    return out


def cholesky_min_pivot(mat: np.ndarray) -> float | None:
    """Smallest squared Cholesky pivot, or None when factorization fails."""
    try:
        L = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return None
    d = np.diag(L)
    return float((d * d).min())


def is_positive_definite(mat: np.ndarray) -> bool:
    """Cholesky with zero shift; all pivots must clear PIVOT_RTOL * trace/N."""
    piv = cholesky_min_pivot(mat)
    if piv is None:
        return False
    size = mat.shape[0]
    return piv > PIVOT_RTOL * np.trace(mat) / size


@dataclass(frozen=True, eq=False)
class StructuralMatrices:
    """Assembled weighting matrices plus the spectral summary."""

    Hx: np.ndarray
    Qtilde: np.ndarray
    Q: np.ndarray
    M: np.ndarray
    G: np.ndarray
    H: np.ndarray
    beta: float
    tau: float
    s: float
    sigma1: float
    sigma2: float
    lambda_min_G: float
    lambda_min_H: float
    lambda_max_MTHM: float
    xi: float

    @property
    def in_D(self) -> bool:
        return in_region_D(self.tau, self.s)

    def h_norm_sq(self, v: np.ndarray) -> float:
        """Quadratic form v'Hv (a norm only where H is positive definite)."""
        return float(v @ self.H @ v)

    def g_norm_sq(self, v: np.ndarray) -> float:
        """Quadratic form v'Gv (a norm only where G is positive definite)."""
        return float(v @ self.G @ v)

    def dist_H(self, v: np.ndarray, w: np.ndarray) -> float:
        return float(np.sqrt(max(self.h_norm_sq(v - w), 0.0)))


def row_forms(mat: np.ndarray, V: np.ndarray) -> np.ndarray:
    """v' mat v for each row v of V.

    Stacked (1 x N)(N x N) and (1 x N)(N x 1) products run the same BLAS
    kernels as the 1-d `float(v @ mat @ v)`, so every value has the same
    bits; a 2-d GEMM such as `V @ mat` does not.
    """
    return (np.matmul(V[:, None, :], mat) @ V[:, :, None])[:, 0, 0]


def _symmetrize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def assemble(problem: BlockProblem, config: SolverConfig) -> StructuralMatrices:
    """Build every structural matrix and its spectral summary for a config."""
    beta, tau, s = config.beta, config.tau, config.s
    Hx = build_Hx(problem, beta, config.sigma1)
    Qt = build_Qtilde(problem, beta, config.sigma2, tau)
    Q = build_Q(Hx, Qt)
    M = build_M(problem, beta, tau, s)
    H = build_H(Q, M, tau, s)
    G = build_G(Q, M)

    G_s = _symmetrize(G)
    MTHM = _symmetrize(M.T @ H @ M)
    lambda_min_G = float(np.linalg.eigvalsh(G_s).min())
    lambda_min_H = float(np.linalg.eigvalsh(_symmetrize(H)).min())
    lambda_max_MTHM = float(np.linalg.eigvalsh(MTHM).max())
    xi = float("nan")
    if in_region_D(tau, s):
        try:
            xi = float(scipy.linalg.eigh(G_s, MTHM, eigvals_only=True).min())
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError):
            xi = float("nan")
    return StructuralMatrices(
        Hx=Hx, Qtilde=Qt, Q=Q, M=M, G=G, H=H,
        beta=beta, tau=tau, s=s, sigma1=config.sigma1, sigma2=config.sigma2,
        lambda_min_G=lambda_min_G, lambda_min_H=lambda_min_H,
        lambda_max_MTHM=lambda_max_MTHM, xi=xi,
    )


def spectral_summary(mats: StructuralMatrices) -> dict[str, float]:
    """Contraction-relevant spectral quantities of an assembled set."""
    return {
        "lambda_min_G": mats.lambda_min_G,
        "lambda_min_H": mats.lambda_min_H,
        "lambda_max_MTHM": mats.lambda_max_MTHM,
        "xi": mats.xi,
    }

