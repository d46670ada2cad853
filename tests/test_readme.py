"""The README's library quick tour runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

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
