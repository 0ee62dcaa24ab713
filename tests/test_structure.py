import dataclasses
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import gsadmm as g
from gsadmm import generators, structure
from gsadmm.model import Block, BlockProblem, Free, Quadratic, SolverConfig


GOLDEN_CONFIG = SolverConfig(beta=1.0, tau=0.3, s=0.4, sigma1=0.5, sigma2=0.5)


@pytest.fixture(scope="module")
def golden(qp1_bundle):
    return qp1_bundle.problem, GOLDEN_CONFIG, g.assemble(qp1_bundle.problem, GOLDEN_CONFIG)


def two_block_problem(rng, p, q, dims, n):
    top = min(dims, n)  # full column rank requires d <= n

    def blk(d):
        gauss = rng.standard_normal((n, d))
        u, _ = np.linalg.qr(gauss)
        A = u * rng.uniform(0.5, 2.0, size=d)
        return Block(Quadratic(np.eye(d), np.zeros(d)), A, Free())

    return BlockProblem(
        tuple(blk(rng.integers(1, top + 1)) for _ in range(p)),
        tuple(blk(rng.integers(1, top + 1)) for _ in range(q)),
        rng.standard_normal(n),
    )


# ---------------------------------------------------------------------------
# Golden 1x1 fixture
# ---------------------------------------------------------------------------

def test_golden_hx(golden):
    problem, cfg, mats = golden
    assert np.allclose(mats.Hx, [[0.5]], atol=1e-15)


def test_golden_qtilde_m_g_h(golden):
    _, _, mats = golden
    assert np.allclose(mats.Qtilde, [[1.5, -0.3], [-1.0, 1.0]], atol=1e-15)
    assert np.allclose(mats.M, [[1, 0, 0], [0, 1, 0], [0, -0.4, 0.7]], atol=1e-15)
    assert np.allclose(mats.G, [[0.5, 0, 0], [0, 1.1, -0.6], [0, -0.6, 1.3]], atol=1e-12)
    assert np.allclose(
        mats.H, [[0.5, 0, 0], [0, 93.0 / 70.0, -3.0 / 7.0], [0, -3.0 / 7.0, 10.0 / 7.0]],
        atol=1e-12,
    )


def test_golden_g_matches_corner_closed_form(golden):
    problem, cfg, mats = golden
    corner = np.array([
        [(cfg.sigma2 + 1 - cfg.s) * cfg.beta, cfg.s - 1.0],
        [cfg.s - 1.0, (2.0 - cfg.tau - cfg.s) / cfg.beta],
    ])
    assert np.allclose(mats.G[1:, 1:], corner, atol=1e-15)
    assert np.linalg.det(corner) == pytest.approx(1.07, abs=1e-12)


def test_single_x_block_hx_has_no_off_diagonal():
    rng = np.random.default_rng(2)
    problem = two_block_problem(rng, 1, 1, 3, 4)
    hx = structure.build_Hx(problem, beta=2.0, sigma1=0.7)
    A = problem.x_blocks[0].A
    assert np.allclose(hx, 0.7 * 2.0 * (A.T @ A), atol=1e-14)


def test_two_block_hx_eigenvalues():
    problem = BlockProblem(
        (Block(Quadratic([[2.0]], [0.0]), [[1.0]], Free()),) * 2,
        (Block(Quadratic([[2.0]], [0.0]), [[1.0]], Free()),),
        [1.0],
    )
    hx = structure.build_Hx(problem, beta=1.0, sigma1=1.5)
    assert np.allclose(hx, [[1.5, -1.0], [-1.0, 1.5]], atol=1e-15)
    assert np.allclose(np.linalg.eigvalsh(hx), [0.5, 2.5], atol=1e-12)


def test_qtilde_symmetric_at_tau_one():
    problem = BlockProblem(
        (Block(Quadratic(np.eye(2), np.zeros(2)), np.eye(2), Free()),),
        (Block(Quadratic(np.eye(2), np.zeros(2)), np.eye(2), Free()),),
        np.zeros(2),
    )
    qt = structure.build_Qtilde(problem, beta=1.0, sigma2=0.5, tau=1.0)
    assert np.allclose(qt, qt.T, atol=1e-15)


def test_qtilde_y_blocks_are_block_diagonal():
    rng = np.random.default_rng(4)
    problem = two_block_problem(rng, 1, 2, 2, 3)
    qt = structure.build_Qtilde(problem, beta=1.3, sigma2=1.6, tau=0.2)
    d0 = problem.y_blocks[0].dim
    d1 = problem.y_blocks[1].dim
    assert np.allclose(qt[:d0, d0:d0 + d1], 0.0)
    assert np.allclose(qt[d0:d0 + d1, :d0], 0.0)


def test_m_with_zero_s_is_block_diagonal():
    rng = np.random.default_rng(5)
    problem = two_block_problem(rng, 1, 2, 2, 3)
    m = structure.build_M(problem, beta=1.0, tau=0.7, s=0.0)
    n = problem.n
    ny = sum(problem.y_dims)
    nx = sum(problem.x_dims)
    assert np.allclose(m[-n:, nx:nx + ny], 0.0)
    assert np.allclose(m[-n:, -n:], 0.7 * np.eye(n), atol=1e-15)


def test_singular_m_raises():
    problem = g.generators.qp1().problem
    cfg = SolverConfig(tau=0.5, s=-0.5, sigma1=0.5, sigma2=0.5)
    with pytest.raises(g.SingularM):
        g.assemble(problem, cfg)
    with pytest.raises(g.SingularM):
        structure.m_inverse_closed(problem, 1.0, 0.5, -0.5)


# ---------------------------------------------------------------------------
# Random-instance consistency
# ---------------------------------------------------------------------------

def test_g_definition_matches_closed_form_on_random_instances():
    rng = np.random.default_rng(7)
    for trial in range(50):
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        problem = two_block_problem(rng, p, q, 4, n)
        beta = float(rng.uniform(0.3, 3.0))
        sigma1 = p - 1 + float(rng.uniform(0.1, 2.0))
        sigma2 = q - 1 + float(rng.uniform(0.1, 2.0))
        tau = float(rng.uniform(-0.8, 0.95))
        s = float(rng.uniform(-0.8, 0.95))
        if tau + s == 0.0:
            s += 0.1
        cfg = SolverConfig(beta=beta, tau=tau, s=s, sigma1=sigma1, sigma2=sigma2)
        q_mat = structure.build_Q(
            structure.build_Hx(problem, beta, sigma1),
            structure.build_Qtilde(problem, beta, sigma2, tau),
        )
        m_mat = structure.build_M(problem, beta, tau, s)
        g_def = structure.build_G(q_mat, m_mat)
        g_closed = structure.build_G_closed(problem, beta, sigma1, sigma2, tau, s)
        scale = max(1.0, float(np.abs(g_def).max()))
        assert float(np.abs(g_def - g_closed).max()) <= 1e-12 * scale


def test_h_symmetry_and_m_inverse_closed_form():
    rng = np.random.default_rng(9)
    for trial in range(25):
        problem = two_block_problem(rng, int(rng.integers(1, 3)), int(rng.integers(1, 3)), 3, 3)
        tau = float(rng.uniform(-0.5, 0.9))
        s = float(rng.uniform(0.05, 0.9))
        if not g.in_region_D(tau, s):
            continue
        beta = float(rng.uniform(0.5, 2.0))
        cfg = SolverConfig(beta=beta, tau=tau, s=s,
                           sigma1=problem.p - 1 + 0.5, sigma2=problem.q - 1 + 0.5)
        mats = g.assemble(problem, cfg)
        h_scale = max(1.0, float(np.linalg.norm(mats.H)))
        raw_h = np.linalg.solve(mats.M.T, mats.Q.T).T
        assert float(np.linalg.norm(raw_h - raw_h.T)) <= 1e-10 * h_scale
        m_inv = structure.m_inverse_closed(problem, beta, tau, s)
        dense = np.linalg.inv(mats.M)
        assert float(np.abs(m_inv - dense).max()) <= 1e-12 * max(1.0, float(np.abs(dense).max()))


def test_spd_inside_triangle_and_indefinite_at_witnesses():
    rng = np.random.default_rng(13)
    problem = two_block_problem(rng, 2, 2, 3, 3)
    base = dict(beta=1.0, sigma1=problem.p - 1 + 0.5, sigma2=problem.q - 1 + 0.5)
    for tau in np.linspace(-0.45, 0.95, 5):
        for s in np.linspace(0.5, 0.95, 5):
            mats = g.assemble(problem, SolverConfig(tau=float(tau), s=float(s), **base))
            assert structure.is_positive_definite(mats.G), (tau, s)
            assert structure.is_positive_definite(mats.H), (tau, s)
            assert mats.xi > 0
    for tau, s in [(1.5, 0.3), (0.3, 1.5)]:
        mats = g.assemble(problem, SolverConfig(tau=tau, s=s, **base))
        assert mats.lambda_min_G < 0
        assert not structure.is_positive_definite(mats.G)


def test_xi_bounds_g_norm_against_mthm_norm(golden):
    _, _, mats = golden
    rng = np.random.default_rng(17)
    mthm = mats.M.T @ mats.H @ mats.M
    min_ratio = np.inf
    for _ in range(1000):
        v = rng.standard_normal(mats.G.shape[0])
        gv = float(v @ mats.G @ v)
        hv = float(v @ mthm @ v)
        assert gv - mats.xi * hv >= -1e-10 * max(1.0, abs(gv))
        min_ratio = min(min_ratio, gv / hv)
    assert min_ratio >= mats.xi - 1e-9


def test_xi_extremal_vector_attains_equality(golden):
    _, _, mats = golden
    mthm = 0.5 * (mats.M.T @ mats.H @ mats.M + (mats.M.T @ mats.H @ mats.M).T)
    g_sym = 0.5 * (mats.G + mats.G.T)
    vals, vecs = scipy.linalg.eigh(g_sym, mthm)
    v = vecs[:, 0]
    lhs = float(v @ g_sym @ v)
    rhs = mats.xi * float(v @ mthm @ v)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_xi_is_one_when_m_identity_and_q_symmetric():
    # G = Q + Q' - Q = Q = H, so the pencil (G, M'HM) is (Q, Q)
    q_mat = np.array([[2.0, 0.3], [0.3, 1.0]])
    m_mat = np.eye(2)
    g_mat = structure.build_G(q_mat, m_mat)
    h_mat = structure.build_H(q_mat, m_mat, tau=0.5, s=0.5)
    assert np.allclose(g_mat, q_mat, atol=1e-15)
    assert np.allclose(h_mat, q_mat, atol=1e-15)
    vals = scipy.linalg.eigh(g_mat, m_mat.T @ h_mat @ m_mat, eigvals_only=True)
    assert vals.min() == pytest.approx(1.0, rel=1e-12)


def test_spectral_summary_fields(golden):
    _, _, mats = golden
    summary = g.spectral_summary(mats)
    assert set(summary) == {"lambda_min_G", "lambda_min_H", "lambda_max_MTHM", "xi"}
    assert summary["lambda_min_G"] == pytest.approx(0.5, abs=1e-12)
    assert summary["lambda_min_H"] == pytest.approx(0.5, abs=1e-12)
    assert summary["xi"] > 0


# ---------------------------------------------------------------------------
# xi without scipy: scipy.linalg.eigh stays the independent reference
# ---------------------------------------------------------------------------

def _pencil(mats):
    """(G_s, M'HM) exactly as assemble symmetrizes them."""
    mthm = mats.M.T @ mats.H @ mats.M
    return 0.5 * (mats.G + mats.G.T), 0.5 * (mthm + mthm.T)


def _grid_configs(bundle, count):
    base = generators.default_config(bundle.problem)
    for tau, s in itertools.product(np.linspace(-1.5, 1.5, count), repeat=2):
        yield bundle.problem, dataclasses.replace(base, tau=float(tau), s=float(s))


def test_xi_matches_scipy_generalized_eigh(catalog):
    """The catalog, the box-enum instances, the atlas grid and the qp1 grid."""
    cases = [(b.problem, generators.default_config(b.problem)) for b in catalog]
    for seed in range(1, 11):
        bundle = generators.gen_box_qp(1, 1, [5], [3], 5, seed=seed)
        cases.append((bundle.problem, generators.default_config(bundle.problem)))
    cases += _grid_configs(generators.gen_quadratic(2, 2, [2, 2], [2, 2], 3, seed=42), 11)
    cases += _grid_configs(generators.qp1(), 21)
    compared = 0
    for problem, config in cases:
        try:
            mats = structure.assemble(problem, config)
        except structure.SingularM:
            continue
        if not mats.in_D:
            assert np.isnan(mats.xi)
            continue
        ref = float(scipy.linalg.eigh(*_pencil(mats), eigvals_only=True).min())
        assert abs(mats.xi - ref) <= 1e-12 * abs(ref), (config.tau, config.s, mats.xi, ref)
        compared += 1
    assert compared == 13 + 10 + 21 + 78


def test_xi_is_nan_where_scipy_gave_none(golden):
    # M'HM not positive definite: sigma1 = 0 with p = 2 makes Hx, hence H, indefinite
    bundle = generators.gen_quadratic(2, 1, [2, 2], [3], 3, seed=5)
    mats = structure.assemble(bundle.problem, SolverConfig(beta=1.0, tau=0.3, s=0.4, sigma1=0.0, sigma2=0.5))
    assert mats.in_D and np.isnan(mats.xi)
    with pytest.raises(np.linalg.LinAlgError):
        scipy.linalg.eigh(*_pencil(mats), eigvals_only=True)
    # non-finite entries, which scipy refused with ValueError
    for bad, which in itertools.product((np.inf, -np.inf, np.nan), (0, 1)):
        pencil = [mat.copy() for mat in _pencil(golden[2])]
        pencil[which][0, 0] = bad
        assert np.isnan(structure.pencil_min_eig(*pencil))
        with pytest.raises(ValueError):
            scipy.linalg.eigh(*pencil, eigvals_only=True)
    # outside region D
    problem = golden[0]
    assert np.isnan(structure.assemble(problem, dataclasses.replace(GOLDEN_CONFIG, tau=1.2)).xi)


def test_import_and_assemble_load_no_scipy():
    code = (
        "import sys\n"
        "import gsadmm, gsadmm.harness.cli\n"
        "bundle = gsadmm.generators.qp1()\n"
        "gsadmm.structure.assemble(bundle.problem, gsadmm.default_config(bundle.problem))\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(g.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=60, check=True)
    assert out.stdout.strip() == "[]"
