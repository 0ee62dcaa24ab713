import contextlib
import io as textio
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gsadmm as g
from gsadmm.generators import boxqp_1d, gen_box_qp, gen_l1, gen_quadratic, l1_1d, qp1
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

def _document(bundle) -> str:
    return io.serialize_problem(bundle.problem, bundle.w_star, bundle.provenance,
                                bundle.certificate, bundle.seed)


# Malformed instance documents: (bundle, text replaced once, replacement,
# what the one error line says).
CORRUPTIONS = {
    "coupling-rank-deficient": (qp1, "coupling 1 1\n1\n", "coupling 1 1\n0\n",
                                "x[0]: coupling matrix is not of full column rank"),
    "coupling-nan": (qp1, "coupling 1 1\n1\n", "coupling 1 1\nnan\n",
                     "x[0]: coupling matrix has non-finite entries"),
    "quad-P-nan": (qp1, "quad-P 1 1\n2\n", "quad-P 1 1\nnan\n", "x[0]: quadratic P has non-finite entries"),
    "quad-r-nan": (qp1, "quad-r 1\n0\n", "quad-r 1\nnan\n", "x[0]: quadratic r has non-finite entries"),
    "quad-t-nan": (qp1, "quad-t 0\n", "quad-t nan\n", "x[0]: quadratic t has non-finite entries"),
    "rhs-nan": (qp1, "rhs 1\n1\n", "rhs 1\nnan\n", "right-hand side c has non-finite entries"),
    "rhs-inf": (qp1, "rhs 1\n1\n", "rhs 1\ninf\n", "right-hand side c has non-finite entries"),
    "l1-weight-inf": (l1_1d, "l1-weight 1\n", "l1-weight inf\n", "x[0]: l1 weight inf is not finite"),
    "box-lo-nan": (boxqp_1d, "box-lo 1\n0\n", "box-lo 1\nnan\n", "x[0]: box bounds have NaN entries"),
    # outside the exact-oracle catalog
    "l1-coupling-negative": (l1_1d, "coupling 1 1\n1\n", "coupling 1 1\n-1\n",
                             "x[0]: l1 blocks require the coupling matrix to be a positive multiple of I"),
    "l1-set-box": (l1_1d, "set free\n", "set box\nbox-lo 1\n-1\nbox-hi 1\n1\n",
                   "x[0]: l1 objective with Box set"),
    "linear-set-free": (l1_1d, "objective quadratic\nquad-P 1 1\n2\nquad-r 1\n-2\nquad-t 1\n",
                        "objective linear\nlin-r 1\n-2\n", "y[0]: linear objective over a free block"),
    # a non-finite coupling is reported alone, before the catalog test reads it
    "l1-coupling-inf": (l1_1d, "coupling 1 1\n1\n", "coupling 1 1\ninf\n",
                        "x[0]: coupling matrix has non-finite entries"),
    "solution-nan": (qp1, "x 0 1\n0.5\n", "x 0 1\nnan\n", "solution has non-finite entries"),
}


def _corrupted(tmp_path, case) -> str:
    """Path of the instance document of a CORRUPTIONS case."""
    bundle_fn, old, new, _ = CORRUPTIONS[case]
    text = _document(bundle_fn())
    assert old in text
    path = tmp_path / f"{case}.txt"
    path.write_text(text.replace(old, new, 1))
    return str(path)


def _bad_input(tmp_path, case):
    """argv for a run whose instance or config input is malformed."""
    run = ["run", "--out", str(tmp_path / "out")]
    if case in CORRUPTIONS:
        return run + ["--instance", _corrupted(tmp_path, case)]
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
    *((case, needle) for case, (*_, needle) in CORRUPTIONS.items()),
])
def test_cmd_run_bad_input_exits_one_with_one_line(tmp_path, capsys, case, needle):
    code = main(_bad_input(tmp_path, case))
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and needle in err, err
    assert not (tmp_path / "out").exists()


# a sweep over the single stepsize point (0.3, 0.4)
ONE_POINT_GRID = ["--tau-grid", "0.3", "0.3", "1", "--s-grid", "0.4", "0.4", "1"]


def _command_argv(command, path, tmp_path) -> list[str]:
    """argv of `command` on the instance at path; run and sweep write to tmp_path/out."""
    argv = [command, "--instance", str(path)]
    if command in ("run", "sweep"):
        argv += ["--out", str(tmp_path / "out")]
    return argv + (ONE_POINT_GRID if command == "sweep" else [])


def _assert_unsupported_oracle_exits_one(tmp_path, capsys, command):
    # an l1 block coupled through -I has no exact oracle, and validation rejects it
    path = tmp_path / "instance.txt"
    path.write_text(_document(l1_1d()).replace("coupling 1 1\n1\n", "coupling 1 1\n-1\n", 1))
    assert main(_command_argv(command, path, tmp_path)) == 1
    assert capsys.readouterr().err == \
        "violation: x[0]: l1 blocks require the coupling matrix to be a positive multiple of I\n"
    assert not (tmp_path / "out").exists()


def test_cmd_run_unsupported_oracle_exits_one_with_one_line(tmp_path, capsys):
    _assert_unsupported_oracle_exits_one(tmp_path, capsys, "run")


def test_sweep_unsupported_oracle_exits_one_with_one_line(tmp_path, capsys):
    _assert_unsupported_oracle_exits_one(tmp_path, capsys, "sweep")


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_several_violations_share_one_line(tmp_path, capsys, command):
    path = tmp_path / "instance.txt"
    path.write_text(_document(l1_1d()).replace("l1-weight 1\n", "l1-weight -1\n", 1)
                    .replace("rhs 1\n1\n", "rhs 1\nnan\n", 1))
    assert main(_command_argv(command, path, tmp_path)) == 1
    assert capsys.readouterr().err == ("violation: right-hand side c has non-finite entries; "
                                       "x[0]: l1 weight -1.0 is negative\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["gen", "run", "sweep"])
def test_unwritable_out_exits_one_with_one_line(tmp_path, capsys, command):
    # gen writes into a missing directory; run and sweep find a file where
    # their output directory should be
    if command == "gen":
        out = tmp_path / "missing" / "x.txt"
        strerror = "No such file or directory"
    else:
        out = tmp_path / "out"
        out.write_text("")
        strerror = "File exists"
    argv = [command, "--generator", "qp1", "--out", str(out)]
    code = main(argv + (ONE_POINT_GRID if command == "sweep" else []))
    assert code == 1
    assert capsys.readouterr().err == f"error: cannot write {out}: {strerror}\n"


# (command, instance, its linear term replaced by 1e308); the qp1 cases are
# named by their command alone
OVERFLOW_CASES = [pytest.param(command, document, old, id=command + suffix)
                  for document, old, suffix in ((qp1, "quad-r 1\n0\n", ""), (l1_1d, "quad-r 1\n-2\n", "-l1-1d"))
                  for command in ("run", "report", "check", "sweep")]


@pytest.mark.parametrize("command, document, old", OVERFLOW_CASES)
def test_overflow_is_a_runtime_failure(tmp_path, capsys, command, document, old):
    # a linear term of 1e308 overflows the iteration, the reference-point
    # check and the sweep's rate check, which must fail the command instead
    # of reporting inf
    path = tmp_path / "huge.txt"
    path.write_text(_document(document()).replace(old, "quad-r 1\n1e308\n", 1))
    argv = _command_argv(command, path, tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("runtime failure: floating-point overflow"), err
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
    for case, (*_, needle) in CORRUPTIONS.items():
        code = main(["check", "--instance", _corrupted(tmp_path, case)])
        captured = capsys.readouterr()
        assert code == 1, case
        if case == "solution-nan":  # rejected by the parser
            assert captured.err == f"error: {needle}\n"
        else:
            assert f"check problem-valid: FAIL ({needle})" in captured.out, captured.out
            assert captured.err == ""


def test_sweep_rejects_non_finite_instance(tmp_path, capsys):
    # the rank test's SVD does not converge on a NaN coupling entry
    out = tmp_path / "out"
    code = main(["sweep", "--instance", _corrupted(tmp_path, "coupling-nan"), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "violation: x[0]: coupling matrix has non-finite entries\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# Malformed documents, property-based
# ---------------------------------------------------------------------------

CONFIG_DOCUMENT = "beta 1.0\ntau 0.3\ns 0.4\nsigma1 0.5\nsigma2 0.5\nmax_iters 500\ntol 1e-10\npolicy D\n"
TOKENS = ("nan", "inf", "-inf", "1e308", "-1", "0", "x", "")
DOCUMENTS = {name: _document(fn()) for name, fn in (("qp1", qp1), ("l1-1d", l1_1d), ("boxqp-1d", boxqp_1d))}


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


@st.composite
def _mutated(draw, text: str) -> str:
    """text truncated after one of its lines, or with one numeric token replaced."""
    lines = text.splitlines(keepends=True)
    if draw(st.booleans()):
        return "".join(lines[:draw(st.integers(0, len(lines)))])
    numeric = [(row, col) for row, line in enumerate(lines)
               for col, token in enumerate(line.split()) if _is_number(token)]
    row, col = draw(st.sampled_from(numeric))
    tokens = lines[row].split()
    tokens[col] = draw(st.sampled_from(TOKENS))
    lines[row] = " ".join(tokens) + "\n"
    return "".join(lines)


@st.composite
def _documents(draw) -> tuple[str, str]:
    """(instance document, config document), one of them mutated."""
    instance = DOCUMENTS[draw(st.sampled_from(sorted(DOCUMENTS)))]
    if draw(st.booleans()):
        return draw(_mutated(instance)), CONFIG_DOCUMENT
    return instance, draw(_mutated(CONFIG_DOCUMENT))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_documents())
def test_malformed_documents_fail_with_documented_codes(docs):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "instance.txt", Path(tmp) / "config.txt"]
        for path, text in zip(paths, docs):
            path.write_text(text)
        inputs = ["--instance", str(paths[0]), "--config", str(paths[1])]
        out = ["--max-iters", "20", "--out", str(Path(tmp) / "out")]
        for argv in (["run", *inputs, *out], ["sweep", *inputs, *out, *ONE_POINT_GRID], ["check", *inputs]):
            err = textio.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(textio.StringIO()), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main(argv)
            lines = err.getvalue().splitlines()
            assert code in (0, 1, 2), (argv[0], code)
            assert code != 0 or not lines, (argv[0], lines)
            assert all(ln.startswith(("error:", "violation:", "runtime failure:")) for ln in lines), lines
            assert not caught, [str(w.message) for w in caught]


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
