import numpy as np
import pytest

from gridsearch import reference_enumerate_box, reference_enumerate_l1
from gsadmm import generators
from gsadmm.generators import SplitMix64
from gsadmm.model import Block, BlockProblem, Box, Free, L1, Quadratic


def test_splitmix_determinism_and_range():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    seq_a = [a.next_u64() for _ in range(64)]
    seq_b = [b.next_u64() for _ in range(64)]
    assert seq_a == seq_b
    assert all(0 <= v < 2 ** 64 for v in seq_a)
    u = [SplitMix64(9).uniform() for _ in range(1)]
    assert 0.0 <= u[0] < 1.0


def test_qp1_reference_point():
    bundle = generators.qp1()
    assert np.allclose(bundle.w_star.stack(), [0.5, 0.5, 1.0], atol=0)
    assert bundle.kkt_residual() <= 1e-10


def test_homogeneous_quadratic_has_zero_solution():
    problem = BlockProblem(
        (Block(Quadratic([[2.0]], [0.0]), [[1.0]], Free()),),
        (Block(Quadratic([[2.0]], [0.0]), [[1.0]], Free()),),
        [0.0],
    )
    w = generators._enumerate_pieces(problem)
    assert np.allclose(w.stack(), 0.0, atol=1e-15)


def _dense_kkt_solve(problem):
    """Solve [blkdiag(P), -C'; C, 0] (u; lambda) = (-r; c) densely."""
    blocks = problem.x_blocks + problem.y_blocks
    C = np.hstack([b.A for b in blocks])
    total, n = C.shape[1], problem.n
    K = np.zeros((total + n, total + n))
    rhs = np.zeros(total + n)
    for b, sl in zip(blocks, problem.block_slices):
        K[sl, sl] = b.objective.P
        rhs[sl] = -b.objective.r
    K[:total, total:] = -C.T
    K[total:, :total] = C
    rhs[total:] = problem.c
    return np.linalg.solve(K, rhs)


@pytest.mark.parametrize("shape", [
    (1, 1, [2], [2], 2),
    (2, 1, [2, 2], [3], 3),
    (2, 2, [2, 2], [2, 2], 3),
    (3, 2, [1, 2, 2], [2, 1], 4),
    (1, 3, [3], [2, 2, 1], 4),
])
def test_gen_quadratic_reference_point_is_the_dense_kkt_solve(shape):
    for seed in range(20):
        bundle = generators.gen_quadratic(*shape, seed=seed)
        dense = _dense_kkt_solve(bundle.problem).tobytes()
        assert bundle.w_star.stack().tobytes() == dense, (shape, seed)
        assert generators._enumerate_pieces(bundle.problem).stack().tobytes() == dense


def test_gen_quadratic_reference_residual():
    bundle = generators.gen_quadratic(2, 2, [2, 2], [2, 2], 3, seed=42)
    assert bundle.kkt_residual() <= 1e-10
    assert bundle.certificate == "strongly-convex"


def test_generator_determinism():
    a = generators.gen_quadratic(2, 1, [2, 2], [3], 3, seed=5)
    b = generators.gen_quadratic(2, 1, [2, 2], [3], 3, seed=5)
    for blk_a, blk_b in zip(a.problem.x_blocks + a.problem.y_blocks,
                            b.problem.x_blocks + b.problem.y_blocks):
        assert np.array_equal(blk_a.A, blk_b.A)
        assert np.array_equal(blk_a.objective.P, blk_b.objective.P)
    assert np.array_equal(a.problem.c, b.problem.c)
    assert np.array_equal(a.w_star.stack(), b.w_star.stack())


def test_generated_couplings_have_singular_value_floor(catalog):
    for bundle in catalog:
        for blk in bundle.problem.x_blocks + bundle.problem.y_blocks:
            sv = np.linalg.svd(blk.A, compute_uv=False)
            assert sv.min() >= 0.1 - 1e-12, bundle.name


def test_catalog_reference_points_verified_independently(catalog):
    for bundle in catalog:
        assert bundle.kkt_residual() <= 1e-10, bundle.name


def _l1_problem(weights, c, P=2.0, r=-2.0, B=1.0):
    """min sum_i weights_i |x_i| + (P/2) y^2 + r y s.t. sum_i x_i + B y = c."""
    return BlockProblem(
        tuple(Block(L1(w), [[1.0]], Free()) for w in weights),
        (Block(Quadratic([[P]], [r], 1.0), [[B]], Free()),),
        [c],
    )


def test_l1_hand_instance():
    bundle = generators.l1_1d()
    assert np.allclose(bundle.w_star.stack(), [0.0, 1.0, 0.0], atol=0)
    # enumeration oracle reproduces the hand solution on the same data
    enum = generators._enumerate_pieces(bundle.problem)
    assert np.allclose(enum.stack(), bundle.w_star.stack(), atol=1e-12)


def test_l1_weight_zero_reduces_to_quadratic_solution():
    # with zero weight the constraint pins x = c - y and the quadratic
    # y-block decides everything: y = 1, x = 0, lambda = 0
    w = generators._enumerate_pieces(_l1_problem([0.0], 1.0))
    assert np.allclose(w.stack(), [0.0, 1.0, 0.0], atol=1e-12)


def test_l1_generated_instance_unique_pattern():
    bundle = generators.gen_l1(1, 1, [2], 2, seed=7)
    assert bundle.kkt_residual() <= 1e-10
    assert bundle.certificate == "unique-pattern"


def test_l1_pattern_explosion():
    with pytest.raises(generators.PatternExplosion):
        generators.gen_l1(1, 1, [2], 9, seed=1)
    with pytest.raises(generators.PatternExplosion):
        generators.gen_box_qp(1, 1, [9], [2], 9, seed=1)


def test_l1_degenerate_boundary_multiplier_rejected():
    # the unique candidate has |A'lambda| exactly at the weight, which the
    # strict filter rejects
    with pytest.raises(generators.DegenerateInstance):
        generators._enumerate_pieces(_l1_problem([1.0], 1.0, P=1.0, r=0.0, B=-1.0))


def test_l1_non_unique_detected_with_relaxed_margin():
    # x1 + x2 + y = 2 with two l1 blocks: the boundary-degenerate patterns
    # (+, 0) and (0, +) both pass once the strict margin is relaxed
    with pytest.raises(generators.NonUniqueSolution):
        generators._enumerate_pieces(_l1_problem([1.0, 1.0], 2.0), margin=-1e-6)


def test_boxqp_hand_instance():
    bundle = generators.boxqp_1d()
    assert np.allclose(bundle.w_star.stack(), [0.3, 1.7, 3.4], atol=0)
    enum = generators._enumerate_pieces(bundle.problem)
    assert np.allclose(enum.stack(), bundle.w_star.stack(), atol=1e-12)


def test_boxqp_unbounded_box_reduces_to_kkt_solution():
    problem = BlockProblem(
        (Block(Quadratic([[2.0]], [0.0]), [[1.0]], Box([-np.inf], [np.inf])),),
        (Block(Quadratic([[2.0]], [0.0]), [[1.0]], Free()),),
        [2.0],
    )
    w = generators._enumerate_pieces(problem)
    kkt = _dense_kkt_solve(problem)
    assert np.allclose(w.stack(), kkt, atol=1e-12)


def test_boxqp_generated_instance():
    bundle = generators.gen_box_qp(1, 1, [2], [2], 2, seed=11)
    assert bundle.kkt_residual() <= 1e-10
    assert bundle.certificate == "unique-active-set"


def _enumeration_outcome(enumerate_pieces, problem, margin):
    """The bytes of w*, or the name of the exception the enumeration raised."""
    try:
        return enumerate_pieces(problem, margin).stack().tobytes()
    except (generators.DegenerateInstance, generators.NonUniqueSolution) as exc:
        return type(exc).__name__


def _generated_problems(monkeypatch, generate, shape, seeds):
    """The problem the generator hands to the enumeration, for each seed."""
    problems = []
    enumerate_pieces = generators._enumerate_pieces

    def capture(problem, margin=generators.PATTERN_MARGIN):
        problems.append(problem)
        return enumerate_pieces(problem, margin)

    with monkeypatch.context() as patch:
        patch.setattr(generators, "_enumerate_pieces", capture)
        for seed in seeds:
            try:
                generate(*shape, seed=seed)
            except (generators.DegenerateInstance, generators.NonUniqueSolution):
                pass
    assert len(problems) == len(seeds)
    return problems


def _box_problem(lo, hi, c=2.0, r=0.0):
    """min x^2 + y^2 + r x s.t. x + y = c, x in [lo, hi]."""
    return BlockProblem(
        (Block(Quadratic([[2.0]], [r]), [[1.0]], Box([lo], [hi])),),
        (Block(Quadratic([[2.0]], [0.0]), [[1.0]], Free()),),
        [c],
    )


@pytest.mark.parametrize("shape, seeds", [
    ((1, 1, [5], [3], 5), range(1, 41)),
    ((1, 1, [3], [2], 3), range(1, 31)),
    ((2, 1, [3, 2], [2], 4), range(1, 16)),
    # three equality rows and two unknowns: every KKT matrix is singular
    ((1, 1, [1], [1], 3), range(1, 4)),
    # a strided copy of P[free, active] changes the last bit of w* here
    ((1, 1, [3], [2], 3), (122, 137)),
])
def test_enumerate_box_matches_one_pattern_at_a_time(monkeypatch, shape, seeds):
    for problem in _generated_problems(monkeypatch, generators.gen_box_qp, shape, list(seeds)):
        for margin in (generators.PATTERN_MARGIN, -1e-6):
            assert _enumeration_outcome(generators._enumerate_pieces, problem, margin) == \
                _enumeration_outcome(reference_enumerate_box, problem, margin), (shape, margin)


def test_enumerate_box_matches_one_pattern_at_a_time_on_hand_problems(catalog):
    problems = [b.problem for b in catalog if b.name.startswith("boxqp")]
    problems += [
        generators.boxqp_1d().problem,
        _box_problem(-np.inf, np.inf),      # every bound infinite
        _box_problem(0.0, np.inf, r=10.0),  # half-infinite, active at lo
        _box_problem(-np.inf, 0.3),         # half-infinite, active at hi
        _box_problem(0.0, 1.0, c=0.0),      # x = 0 at lo with a zero multiplier
    ]
    outcomes = set()
    for problem in problems:
        for margin in (generators.PATTERN_MARGIN, -1e-6):
            new = _enumeration_outcome(generators._enumerate_pieces, problem, margin)
            assert new == _enumeration_outcome(reference_enumerate_box, problem, margin)
            outcomes.add(new if isinstance(new, str) else "w*")
    assert outcomes == {"w*", "DegenerateInstance", "NonUniqueSolution"}


@pytest.mark.parametrize("shape, seeds", [
    ((1, 1, [2], 2), range(0, 40)),
    ((1, 1, [1], 1), range(0, 20)),
    ((1, 2, [2, 1], 2), range(0, 20)),
    ((1, 1, [3], 3), range(0, 15)),
    ((2, 1, [2], 2), range(0, 15)),
    ((2, 2, [1, 2], 2), range(0, 15)),
    ((3, 1, [1], 1), range(0, 15)),
])
def test_enumerate_l1_matches_one_pattern_at_a_time(monkeypatch, shape, seeds):
    for problem in _generated_problems(monkeypatch, generators.gen_l1, shape, list(seeds)):
        for margin in (generators.PATTERN_MARGIN, 1e-6, 0.0, -1e-6):
            assert _enumeration_outcome(generators._enumerate_pieces, problem, margin) == \
                _enumeration_outcome(reference_enumerate_l1, problem, margin), (shape, margin)


def test_enumerate_l1_matches_one_pattern_at_a_time_on_hand_problems(catalog):
    problems = [b.problem for b in catalog if b.name.startswith("l1")]
    problems += [
        _l1_problem([0.0], 1.0),                        # weight 0: x = 0 on the kink
        _l1_problem([1.0], 1.0, P=1.0, r=0.0, B=-1.0),  # multiplier on the kink's edge
        _l1_problem([1.0, 1.0], 2.0),                   # (+, 0) and (0, +) tie
        _l1_problem([0.5], -3.0),                       # x < 0
    ]
    outcomes = set()
    for problem in problems:
        for margin in (generators.PATTERN_MARGIN, -1e-6):
            new = _enumeration_outcome(generators._enumerate_pieces, problem, margin)
            assert new == _enumeration_outcome(reference_enumerate_l1, problem, margin)
            outcomes.add(new if isinstance(new, str) else "w*")
    assert outcomes == {"w*", "DegenerateInstance", "NonUniqueSolution"}


def test_catalog_size_and_names(catalog):
    assert len(catalog) >= 10
    names = [b.name for b in catalog]
    assert len(names) == len(set(names))
    kinds = {n.split("-")[0] for n in names}
    assert {"qp1", "quadratic", "l1", "boxqp"} <= kinds


def test_dims_mismatch_raises():
    with pytest.raises(ValueError):
        generators.gen_quadratic(2, 1, [2], [3], 3, seed=1)
