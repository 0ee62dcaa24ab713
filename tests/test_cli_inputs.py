"""Every numeric token of a boxqp instance document, set to an extreme or
malformed value one at a time: `report` and `check` on each must exit with a
documented code (0 ok, 1 validation, 2 runtime, 3 generation) and explain a
failure in one stderr line, or in `check`'s FAIL lines, with nothing escaping
`cli.main`, warnings included."""
import re
import warnings

import pytest

from gsadmm.harness.cli import main

VALUES = ("nan", "inf", "-inf", "1e308", "-1e308", "0", "-1", "1e-320", "x")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


@pytest.fixture(scope="module")
def boxqp_document(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("gen") / "boxqp.txt"
    assert main(["gen", "--generator", "boxqp", "--out", str(path)]) == 0
    return path.read_text()


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


@pytest.mark.parametrize("command", ["report", "check"])
def test_mutated_boxqp_documents_exit_with_documented_codes(command, boxqp_document, tmp_path, capsys):
    path = tmp_path / "instance.txt"
    cases = 0
    for what, text in _mutations(boxqp_document):
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
