import numpy as np
import pytest

import gsadmm as g
from gsadmm.generators import gen_box_qp, gen_l1, gen_quadratic, qp1
from gsadmm.harness import io
from gsadmm.harness.cli import main
from gsadmm.model import Box, Nonnegative


# ---------------------------------------------------------------------------
# Instance document round-trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bundle_fn", [
    qp1,
    lambda: gen_quadratic(2, 2, [2, 2], [2, 2], 3, seed=42),
    lambda: gen_l1(1, 1, [2], 2, seed=7),
    lambda: gen_box_qp(1, 1, [2], [2], 2, seed=11),
])
def test_round_trip_is_canonical(bundle_fn):
    bundle = bundle_fn()
    text = io.serialize_problem(bundle.problem, bundle.w_star,
                                bundle.provenance, bundle.certificate, bundle.seed)
    problem, w_star, meta = io.parse_instance(text)
    # serialized form is canonical: parse -> serialize reproduces the bytes
    again = io.serialize_problem(problem, w_star, bundle.provenance,
                                 bundle.certificate, bundle.seed)
    assert again == text
    # matrices round-trip to the exact double
    for blk_a, blk_b in zip(problem.x_blocks + problem.y_blocks,
                            bundle.problem.x_blocks + bundle.problem.y_blocks):
        assert np.array_equal(blk_a.A, blk_b.A)
    assert np.array_equal(problem.c, bundle.problem.c)
    assert np.array_equal(w_star.stack(), bundle.w_star.stack())
    assert meta["provenance"] == bundle.provenance
    assert meta["seed"] == bundle.seed


def test_round_trip_preserves_sets_and_infinities(tmp_path):
    problem = g.BlockProblem(
        (g.Block(g.L1(0.75), np.eye(2), Nonnegative()),),
        (g.Block(g.Quadratic(np.eye(2), [0.5, -0.5]), np.eye(2),
                 Box([-np.inf, 0.0], [1.0, np.inf])),),
        [0.25, -0.75],
    )
    path = tmp_path / "instance.txt"
    io.write_instance(path, problem)
    parsed, w_star, _ = io.read_instance(path)
    assert w_star is None
    fset = parsed.y_blocks[0].set
    assert isinstance(fset, Box)
    assert np.array_equal(fset.lo, [-np.inf, 0.0])
    assert np.array_equal(fset.hi, [1.0, np.inf])
    assert isinstance(parsed.x_blocks[0].set, Nonnegative)
    assert parsed.x_blocks[0].objective.weight == 0.75


def test_parse_rejects_malformed_document():
    with pytest.raises(io.ParseError):
        io.parse_instance("not-an-instance 1\n")
    bundle = qp1()
    text = io.serialize_problem(bundle.problem)
    broken = text.replace("rhs 1", "rhs 2")
    with pytest.raises(io.ParseError):
        io.parse_instance(broken)


# ---------------------------------------------------------------------------
# run / report
# ---------------------------------------------------------------------------

def _bad_input(tmp_path, case):
    """argv for a run whose instance or config input is malformed."""
    run = ["run", "--out", str(tmp_path / "out")]
    if case == "instance-header-without-version":
        path = tmp_path / "instance.txt"
        path.write_text(io.serialize_problem(qp1().problem).replace("gsadmm-instance 1", "gsadmm-instance"))
        return run + ["--instance", str(path)]
    run += ["--generator", "qp1"]
    if case == "beta-inf":
        return run + ["--beta", "inf"]
    if case == "tol-nan":
        return run + ["--tol", "nan"]
    config = tmp_path / "config.txt"
    if case == "config-unknown-key":
        config.write_text("beta 1.0\nbogus 2\n")
    elif case == "config-non-numeric":
        config.write_text("beta fast\n")
    return run + ["--config", str(config)]  # missing unless written above


@pytest.mark.parametrize("case, needle", [
    ("config-unknown-key", "unknown config key 'bogus'"),
    ("config-non-numeric", "invalid value 'fast'"),
    ("config-missing", "cannot read config"),
    ("instance-header-without-version", "unrecognized document header"),
    ("beta-inf", "beta must be finite"),
    ("tol-nan", "tol must be a number"),
])
def test_cmd_run_bad_input_exits_one_with_one_line(tmp_path, capsys, case, needle):
    code = main(_bad_input(tmp_path, case))
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and needle in err, err
    assert not (tmp_path / "out").exists()


def test_cmd_run_qp1_defaults(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--generator", "qp1", "--out", str(out)])
    assert code == 0
    trace_lines = (out / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == io.TRACE_HEADER
    assert len(trace_lines) - 1 <= 500
    final = trace_lines[-1].split(",")
    assert float(final[6]) <= 1e-8  # dist_H column
    report = (out / "report.txt").read_text()
    assert "termination converged" in report
    assert "monotone_ok true" in report
    assert "theta_hat_ok true" in report


@pytest.mark.parametrize("name", ["qp1", "l1-1d", "boxqp-1d"])
def test_cmd_run_bundled_identity_error_stays_small(tmp_path, name):
    out = tmp_path / name
    assert main(["run", "--generator", name, "--out", str(out)]) == 0
    report = dict(
        line.split(" ", 1) for line in (out / "report.txt").read_text().splitlines()
    )
    assert float(report["max_identity_error"]) <= 1e-10


def test_cmd_run_invalid_sigma_exits_nonzero(tmp_path, capsys):
    code = main(["run", "--generator", "qp1", "--sigma1", "0.0",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "sigma1" in capsys.readouterr().err


def test_cmd_run_region_policy_gate(tmp_path, capsys):
    code = main(["run", "--generator", "qp1", "--tau", "1.5", "--s", "0.3",
                 "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "triangle" in err
    # AllowG accepts the same point with a warning
    code = main(["run", "--generator", "qp1", "--tau", "1.5", "--s", "0.3",
                 "--policy", "G", "--out", str(tmp_path)])
    assert code == 0


def test_cmd_report_prints_without_writing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["report", "--generator", "qp1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "termination converged" in out
    assert "r_hat" in out
    assert not list(tmp_path.iterdir())


def test_report_has_one_oracle_line_per_constrained_block(capsys):
    code = main(["report", "--generator", "boxqp", "--p", "2", "--q", "1", "--x-dims", "2,1",
                 "--y-dims", "2", "--n", "3", "--seed", "13"])
    assert code == 0
    report = dict(ln.split(" ", 1) for ln in capsys.readouterr().out.splitlines())
    iterations = int(report["iterations"])
    oracle = {key: val for key, val in report.items() if key.startswith("oracle")}
    assert sorted(oracle) == ["oracle.x0", "oracle.x1"]  # the y block is free
    fields = dict(kv.split("=") for kv in oracle["oracle.x0"].split())
    assert fields["set"] == "box" and fields["dim"] == "2"
    assert int(fields["calls"]) == iterations
    assert int(fields["patterns"]) >= iterations
    assert fields["loose_tier"] == "0"


def test_cmd_run_reads_config_file(tmp_path):
    cfg_path = tmp_path / "config.txt"
    cfg_path.write_text("beta 2.0\ntau 0.25\ns 0.25\nmax_iters 321\ntol 1e-9\npolicy D\n")
    out = tmp_path / "out"
    code = main(["run", "--generator", "qp1", "--config", str(cfg_path),
                 "--tau", "0.5", "--out", str(out)])
    assert code == 0
    report = (out / "report.txt").read_text()
    assert "beta 2\n" in report
    assert "tau 0.5\n" in report  # explicit flag overrides the file
    assert "s 0.25\n" in report


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep_atlas(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    code = main([
        "sweep", "--generator", "qp1",
        "--tau-grid", "-1.5", "1.5", "21",
        "--s-grid", "-1.5", "1.5", "21",
        "--max-iters", "120", "--tol", "1e-8",
        "--out", str(out),
    ])
    assert code == 0
    lines = (out / "atlas.csv").read_text().splitlines()
    return out, lines


def _atlas_rows(lines):
    header = lines[0].split(",")
    for ln in lines[1:]:
        yield dict(zip(header, ln.split(",")))


def _find_row(rows, tau, s):
    for row in rows:
        if abs(float(row["tau"]) - tau) < 1e-9 and abs(float(row["s"]) - s) < 1e-9:
            return row
    raise AssertionError(f"no atlas row at ({tau}, {s})")


def test_sweep_atlas_shape_and_regions(sweep_atlas):
    _, lines = sweep_atlas
    assert lines[0] == io.ATLAS_HEADER
    assert len(lines) == 1 + 21 * 21
    rows = list(_atlas_rows(lines))
    # every triangle-region row must be positive definite
    for row in rows:
        if row["in_D"] == "1":
            assert float(row["lambda_min_G"]) > 0
            assert float(row["lambda_min_H"]) > 0
            assert float(row["xi"]) > 0
    nine = _find_row(rows, 0.9, 0.9)
    assert nine["in_D"] == "1" and nine["in_G"] == "1"
    assert float(nine["lambda_min_G"]) > 0


def test_sweep_singular_point_records_sentinel_row(tmp_path):
    out = tmp_path / "pt"
    code = main([
        "sweep", "--generator", "qp1",
        "--tau-grid", "0.5", "0.5", "1",
        "--s-grid", "-0.5", "-0.5", "1",
        "--max-iters", "50", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "atlas.csv").read_text().splitlines()
    assert len(lines) == 2
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["lambda_min_G"] == "nan"
    assert row["iters_to_tol"] == "-1"
    assert row["r_hat"] == "-1"


def test_sweep_converged_points_have_positive_iters(sweep_atlas):
    _, lines = sweep_atlas
    rows = list(_atlas_rows(lines))
    interior = [r for r in rows if r["in_D"] == "1"]
    assert any(int(r["iters_to_tol"]) > 0 for r in interior)
    # a clearly divergent corner records the sentinel instead of aborting
    corner = _find_row(rows, -1.5, -1.5)
    assert int(corner["iters_to_tol"]) == -1


@pytest.mark.parametrize("flags, needle", [
    (["--beta", "inf"], "beta must be finite"),
    (["--tol", "nan"], "tol must be a number"),
    (["--tau-grid", "0", "1", "0"], "--tau-grid count must be a whole number"),
    (["--s-grid", "0", "1", "nan"], "--s-grid count must be a whole number"),
    (["--s-grid", "0", "1", "2.5"], "--s-grid count must be a whole number"),
    (["--tau-grid", "0", "inf", "3"], "--tau-grid bounds must be finite"),
    (["--s-grid", "nan", "1", "3"], "--s-grid bounds must be finite"),
])
def test_sweep_bad_input_exits_one_with_one_line(tmp_path, capsys, flags, needle):
    out = tmp_path / "out"
    code = main(["sweep", "--generator", "qp1", "--max-iters", "5", "--out", str(out), *flags])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and needle in err, err
    assert not out.exists()


@pytest.mark.parametrize("argv, needle", [
    (["sweep", "--generator", "qp1", "--tau-grid", "-inf", "1", "3"], "--tau-grid: expected 3 arguments"),
    (["frobnicate"], "invalid choice: 'frobnicate'"),
    (["run", "--generator", "qp1", "--tau"], "--tau: expected one argument"),
])
def test_usage_error_exits_one_with_one_line(tmp_path, capsys, monkeypatch, argv, needle):
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.count("\n") == 1 and needle in captured.err, captured.err
    assert captured.out == ""


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--help"])
    assert exc.value.code == 0
    assert "--tau-grid" in capsys.readouterr().out


def test_sweep_determinism(tmp_path, sweep_atlas):
    out_prev, lines = sweep_atlas
    out = tmp_path / "again"
    code = main([
        "sweep", "--generator", "qp1",
        "--tau-grid", "-1.5", "1.5", "21",
        "--s-grid", "-1.5", "1.5", "21",
        "--max-iters", "120", "--tol", "1e-8",
        "--out", str(out),
    ])
    assert code == 0
    assert (out / "atlas.csv").read_bytes() == (out_prev / "atlas.csv").read_bytes()


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_cmd_check_passes_on_golden(capsys):
    code = main(["check", "--generator", "qp1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "check g-definition-matches-closed-form: pass" in out
    assert "check reference-point-kkt: pass" in out
    assert "FAIL" not in out


def test_cmd_check_reports_singular_m(capsys):
    code = main(["check", "--generator", "qp1", "--tau", "0.5", "--s", "-0.5"])
    out = capsys.readouterr().out
    assert code == 1
    assert "tau + s = 0" in out


def test_cmd_check_fails_on_corrupted_file(tmp_path, capsys):
    bundle = qp1()
    text = io.serialize_problem(bundle.problem, bundle.w_star, seed=0)
    # corrupt the coupling matrix into a rank-deficient one
    corrupted = text.replace("coupling 1 1\n1\n", "coupling 1 1\n0\n", 1)
    path = tmp_path / "bad.txt"
    path.write_text(corrupted)
    code = main(["check", "--instance", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "check problem-valid: FAIL" in out


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_cmd_gen_roundtrip_and_check(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    code = main(["gen", "--generator", "quadratic", "--p", "2", "--q", "1",
                 "--x-dims", "2,2", "--y-dims", "3", "--n", "3",
                 "--seed", "5", "--out", str(path)])
    assert code == 0
    text = path.read_text()
    problem, w_star, _ = io.parse_instance(text)
    assert io.serialize_problem(problem, w_star,
                                "dense KKT linear solve", "strongly-convex", 5) == text
    capsys.readouterr()
    assert main(["check", "--instance", str(path)]) == 0
    out = capsys.readouterr().out
    assert "reference-point-kkt: pass" in out


def test_cmd_gen_pattern_explosion_exits_three(tmp_path, capsys):
    code = main(["gen", "--generator", "l1", "--p", "1", "--q", "1",
                 "--y-dims", "2", "--n", "9", "--seed", "1",
                 "--out", str(tmp_path / "x.txt")])
    assert code == 3
    assert "generation failure" in capsys.readouterr().err


def test_cmd_gen_writes_boxqp_that_checks(tmp_path, capsys):
    path = tmp_path / "box.txt"
    assert main(["gen", "--generator", "boxqp", "--p", "1", "--q", "1",
                 "--x-dims", "2", "--y-dims", "2", "--n", "2",
                 "--seed", "11", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["check", "--instance", str(path)]) == 0
