"""Every numeric token of an instance document of each family (boxqp,
quadratic, l1), set to an extreme or malformed value one at a time: `report`
and `check` on each must exit with a documented code (0 ok, 1 validation,
2 runtime, 3 generation) and explain a failure in one stderr line, or in
`check`'s FAIL lines, with nothing escaping `cli.main`, warnings included."""
import re
import warnings

import pytest

from gsadmm.harness.cli import main

VALUES = ("nan", "inf", "-inf", "1e308", "-1e308", "0", "-1", "1e-320", "x")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _generated(tmp_path_factory, family: str) -> str:
    path = tmp_path_factory.mktemp("gen") / f"{family}.txt"
    assert main(["gen", "--generator", family, "--out", str(path)]) == 0
    return path.read_text()


@pytest.fixture(scope="module")
def boxqp_document(tmp_path_factory) -> str:
    return _generated(tmp_path_factory, "boxqp")


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


def _sweep(command: str, document: str, tmp_path, capsys):
    """Run command on every mutation of document and check how each exits."""
    path = tmp_path / "instance.txt"
    cases = 0
    for what, text in _mutations(document):
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--instance", str(path)])
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3), (what, code)
        if code:
            fail_lines = command == "check" and not err and ": FAIL" in out
            assert fail_lines or (err.count("\n") == 1 and err.endswith("\n")), (what, code, err)
        cases += 1
    assert cases > 100


@pytest.mark.parametrize("command", ["report", "check"])
def test_mutated_boxqp_documents_exit_with_documented_codes(command, boxqp_document, tmp_path, capsys):
    _sweep(command, boxqp_document, tmp_path, capsys)


@pytest.mark.parametrize("command", ["report", "check"])
@pytest.mark.parametrize("family", ["quadratic", "l1"])
def test_mutated_documents_exit_with_documented_codes(family, command, tmp_path_factory, tmp_path, capsys):
    _sweep(command, _generated(tmp_path_factory, family), tmp_path, capsys)
