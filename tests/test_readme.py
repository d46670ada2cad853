"""The README's library quick tour and command lines run as the README says."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from cellint import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_prints_its_comments():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    closed_form, oracle, alpha_hat = out.getvalue().splitlines()
    assert closed_form == "25/62"
    value, ambiguous = oracle.split()
    assert abs(float(value) - 25 / 62) < 1e-5 and int(ambiguous) >= 0
    assert abs(float(alpha_hat) - (-0.5)) <= 1e-12


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    """Every `cellint ...` line of the Command line block exits 0, run next to
    the README's certificate and terms files; the integrate line's closed form
    is 5/6 and the oracle agrees with it to 1e-6."""
    text = README.read_text(encoding="utf-8")
    certificate, terms = re.findall(r"```json\n(.*?)```", text, re.S)
    (tmp_path / "cert.json").write_text(certificate, encoding="utf-8")
    (tmp_path / "terms.json").write_text(terms, encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("cellint ")]
    assert len(lines) >= 9 and any(line.startswith("cellint integrate ") for line in lines)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, (line, capsys.readouterr())
        out = capsys.readouterr().out
        if line.startswith("cellint integrate "):  # terms and --expr describe one function
            result = json.loads(out)
            assert result["closed_form"] == "5/6" and result["abs_diff"] < 1e-6, line


def test_a_failing_norm_description_exits_3_with_its_mismatches(tmp_path, monkeypatch, capsys):
    """The README's certificate describes |x1|, so checked against f = x1^2 its
    norm descriptions fail on the classes where |x1^2| < |x1|: cells-check exits
    3 and lists each mismatching lift with its two exponents, while the
    partition still checks out."""
    certificate, _ = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    (tmp_path / "cert.json").write_text(certificate, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    argv = ["cells-check", "--certificate", "cert.json", "--level", "3", "--functions", "x1^2"]
    assert cli.main(argv) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["norms_ok"] is False and out["norm_points_checked"] == 52
    assert out["norm_mismatches"] == [[[25], "4", "2"], [[100], "4", "2"]]
    assert out["partition_ok"] is True and out["points_tested"] == 124
