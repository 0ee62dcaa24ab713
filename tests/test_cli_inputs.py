"""Every numeric token of an instance document of each family (boxqp,
quadratic, l1), set to an extreme or malformed value one at a time, and every
line of it deleted or duplicated: `report` and `check` on each must exit with
a documented code (0 ok, 1 validation, 2 runtime, 3 generation) and explain a
failure in one stderr line, or in `check`'s FAIL lines, with nothing escaping
`cli.main`, warnings included. The same holds for extreme values of every
solver flag on `run`, `report`, `check` and `sweep`, and for generated shapes,
sweep grids and iteration caps too large to allocate, which must fail before
anything is drawn or allocated."""
import re
import tracemalloc
import warnings

import pytest

from gsadmm.harness.cli import main

VALUES = ("nan", "inf", "-inf", "1e308", "-1e308", "0", "-1", "1e-320", "x")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
FAMILIES = ("boxqp", "quadratic", "l1")
FLAGS = ("--beta", "--tau", "--s", "--sigma1", "--sigma2", "--tol", "--max-iters")
ONE_POINT_GRID = ["--tau-grid", "0.3", "0.3", "1", "--s-grid", "0.4", "0.4", "1"]


def _generated(tmp_path_factory, family: str) -> str:
    path = tmp_path_factory.mktemp("gen") / f"{family}.txt"
    assert main(["gen", "--generator", family, "--out", str(path)]) == 0
    return path.read_text()


@pytest.fixture(scope="module")
def documents(tmp_path_factory) -> dict[str, str]:
    return {family: _generated(tmp_path_factory, family) for family in FAMILIES}


def _mutations(text: str):
    """The document with one numeric token replaced, for every numeric token
    and every value."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        tokens = line.split()
        for j, token in enumerate(tokens):
            if not NUMBER.fullmatch(token):
                continue
            for value in VALUES:
                if value != token:
                    mutated = " ".join(tokens[:j] + [value] + tokens[j + 1:]) + "\n"
                    yield f"line {i + 1} token {j}: {token} -> {value}", "".join(lines[:i] + [mutated] + lines[i + 1:])


def _line_edits(family: str, text: str):
    """The document with one line deleted or duplicated, for every line."""
    lines = text.splitlines(keepends=True)
    for i in range(len(lines)):
        yield f"{family} line {i + 1} deleted", "".join(lines[:i] + lines[i + 1:])
        yield f"{family} line {i + 1} duplicated", "".join(lines[:i + 1] + lines[i:])


def _exits_documented(argv: list[str], what: str, capsys) -> tuple[int, str]:
    """Run argv and check how it exits; returns the exit code and stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), (what, code)
    if code:
        fail_lines = argv[0] == "check" and not err and ": FAIL" in out
        assert fail_lines or (err.count("\n") == 1 and err.endswith("\n")), (what, code, err)
    return code, err


def _sweep(command: str, mutations, tmp_path, capsys):
    """Run command on every mutated document and check how each exits."""
    path = tmp_path / "instance.txt"
    cases = 0
    for what, text in mutations:
        path.write_text(text)
        _exits_documented([command, "--instance", str(path)], what, capsys)
        cases += 1
    assert cases > 100


@pytest.mark.parametrize("command", ["report", "check"])
def test_mutated_boxqp_documents_exit_with_documented_codes(command, documents, tmp_path, capsys):
    _sweep(command, _mutations(documents["boxqp"]), tmp_path, capsys)


@pytest.mark.parametrize("command", ["report", "check"])
@pytest.mark.parametrize("family", ["quadratic", "l1"])
def test_mutated_documents_exit_with_documented_codes(family, command, documents, tmp_path, capsys):
    _sweep(command, _mutations(documents[family]), tmp_path, capsys)


@pytest.mark.parametrize("command", ["report", "check"])
def test_documents_with_a_line_deleted_or_duplicated_exit_with_documented_codes(command, documents, tmp_path, capsys):
    _sweep(command, (edit for family, text in documents.items() for edit in _line_edits(family, text)),
           tmp_path, capsys)


@pytest.mark.parametrize("command", ["run", "report", "check", "sweep"])
def test_extreme_flags_exit_with_documented_codes(command, tmp_path, capsys):
    # `--flag=value`, so that values such as -inf reach the flag instead of
    # reading as an option
    extra = {"run": ["--out", str(tmp_path / "out")], "sweep": ["--out", str(tmp_path / "out"), *ONE_POINT_GRID]}
    for flag in FLAGS:
        for value in (*VALUES, "1e-170"):
            argv = [command, "--generator", "qp1", f"{flag}={value}", *extra.get(command, [])]
            _exits_documented(argv, f"{flag}={value}", capsys)


HUGE = "99999999999999999999"
GRID = ["--generator", "qp1", "--tau-grid", "0", "0.5"]
FORCED = ["--generator", "qp1", "--tol", "-1", "--max-iters", "1000000000000"]


# (argv, exit code, the start of the one stderr line). Each is refused before
# anything is drawn or allocated: a shape or a grid by its bound, and a
# repeat fill of 10^12 rows by the trace bound (`engine.TRACE_BYTES_MAX`).
SIZE_CASES = [
    pytest.param(["gen", "--generator", "quadratic", "--n", HUGE], 1,
                 f"error: --n {HUGE} exceeds the largest generated size 12\n", id="gen-n"),
    pytest.param(["gen", "--generator", "quadratic", "--p", "100000"], 1,
                 "error: --p 100000 exceeds the largest generated size 4\n", id="gen-p"),
    pytest.param(["run", "--generator", "quadratic", "--p", "100000"], 1,
                 "error: --p 100000 exceeds the largest generated size 4\n", id="run-p"),
    pytest.param(["report", "--generator", "l1", "--q", "5"], 1,
                 "error: --q 5 exceeds the largest generated size 4\n", id="report-q"),
    pytest.param(["check", "--generator", "boxqp", "--x-dims", "13"], 1,
                 "error: --x-dims 13 exceeds the largest generated size 12\n", id="check-x-dims"),
    pytest.param(["sweep", "--generator", "quadratic", "--y-dims", f"1,{HUGE}"], 1,
                 f"error: --y-dims {HUGE} exceeds the largest generated size 12\n", id="sweep-y-dims"),
    pytest.param(["sweep", *GRID, "1e12", "--s-grid", "0", "0.5", "1"], 1,
                 "error: the sweep grid has 1e+12 x 1 points, more than 10000\n", id="sweep-grid"),
    pytest.param(["sweep", *GRID, "1e300", "--s-grid", "0", "0.5", "1e300"], 1,
                 "error: the sweep grid has 1e+300 x 1e+300 points, more than 10000\n", id="sweep-grid-1e300"),
    pytest.param(["sweep", *GRID, "101", "--s-grid", "0", "0.5", "100"], 1,
                 "error: the sweep grid has 101 x 100 points, more than 10000\n", id="sweep-grid-10100"),
    pytest.param(["report", *FORCED], 2, "runtime failure: out of memory (a trace of 1000000000001 rows needs ",
                 id="report-max-iters"),
    pytest.param(["run", *FORCED], 2, "runtime failure: out of memory (a trace of 1000000000001 rows needs ",
                 id="run-max-iters"),
]


@pytest.mark.parametrize("argv, code, start", SIZE_CASES)
def test_sizes_too_large_exit_with_one_line(argv, code, start, tmp_path, capsys):
    out = tmp_path / "out"
    writes = ["--out", str(out)] if argv[0] in ("gen", "run", "sweep") else []
    got, err = _exits_documented([*argv, *writes], " ".join(argv), capsys)
    assert got == code and err.startswith(start), err
    assert not out.exists()


def test_fill_that_fits_the_address_space_is_refused_before_it_allocates(capsys):
    # 10^8 forced iterations of qp1 repeat early; the fill would ask for
    # 5.2 GiB of solve rows, which numpy grants and the fill then writes. The
    # trace bound refuses the fill before it allocates
    argv = ["report", "--generator", "qp1", "--tol", "-1", "--max-iters", "100000000"]
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert got == 2 and out == "" and err.count("\n") == 1, (got, out, err)
    assert err.startswith("runtime failure: out of memory (a trace of 100000001 rows needs "), err
    assert peak < 64 * 2 ** 20, peak
    # the same cap on a run that converges early allocates no more than it needs
    assert _exits_documented([*argv[:3], "--tol", "1e-10", *argv[5:]], "converging", capsys)[0] == 0
