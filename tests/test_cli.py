"""End-to-end CLI contract: exit codes, outputs, determinism."""

import argparse
import json
import math
import shlex
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from cellint import (PrimeContext, cli, oracle, parse_expr, parse_poly, riemann_integrate,
                     singular_series)
from cellint.cli import build_parser, main

COSET_CERT = {
    "prime": 5,
    "domain": {"kind": "tower",
               "levels": [{"center": "0",
                           "upper": {"expr": "1", "strict": False},
                           "coset": {"lambda": "1", "n": 1}}]},
    "cells": [
        {"levels": [{"center": "0", "upper": {"expr": "1", "strict": False},
                     "coset": {"lambda": str(lam), "n": 2}}]}
        for lam in (1, 2, 5, 10)
    ],
}

ZP_CERT = {
    "prime": 5,
    "domain": {"kind": "box", "arity": 1},
    "cells": [
        {"levels": [{"center": "0", "coset": {"lambda": "0", "n": 1}}]},
        {"levels": [{"center": "0", "upper": {"expr": "1", "strict": False},
                     "coset": {"lambda": "1", "n": 1}}]},
    ],
}

DOUBLE_COVER_CERT = {
    "prime": 5,
    "domain": {"kind": "box", "arity": 1},
    "cells": [ZP_CERT["cells"][0], ZP_CERT["cells"][1], ZP_CERT["cells"][1]],
}

NORM_TERMS = {"terms": [{"cell": 0, "coeff": "0", "levels": [{"a": 0, "l": 0}]},
                        {"cell": 1, "coeff": "1", "levels": [{"a": 1, "l": 0}]}]}

DIVERGENT_TERMS = {"terms": [{"cell": 0, "coeff": "0", "levels": [{"a": 0, "l": 0}]},
                             {"cell": 1, "coeff": "1", "levels": [{"a": -1, "l": 0}]}]}


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_parse_echo_and_idempotence(capsys):
    assert main(["parse", "norm(x1)*val(x1)"]) == 0
    first = capsys.readouterr().out
    assert first.strip() == "norm(x1)*val(x1)"
    assert main(["parse", first.strip()]) == 0
    assert capsys.readouterr().out == first


def test_parse_error_exit_code(capsys):
    assert main(["parse", "norm("]) == 2
    err = capsys.readouterr().err
    assert "offset 5" in err


def test_parse_without_an_expression_exit_2(capsys):
    assert main(["parse"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "parse: missing expression\n"


def test_integrate_norm(tmp_path, capsys):
    cert = write_json(tmp_path / "cert.json", ZP_CERT)
    terms = write_json(tmp_path / "terms.json", NORM_TERMS)
    rc = main(["integrate", "--certificate", cert, "--terms", terms,
               "--expr", "norm(x1)", "--oracle-level", "6", "--out",
               str(tmp_path / "res")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["closed_form"] == "5/6"
    assert payload["integrable"] is True
    assert payload["abs_diff"] < 5.0**-5
    assert json.loads((tmp_path / "res.json").read_text()) == payload


def test_integrate_divergent(tmp_path, capsys):
    cert = write_json(tmp_path / "cert.json", ZP_CERT)
    terms = write_json(tmp_path / "terms.json", DIVERGENT_TERMS)
    rc = main(["integrate", "--certificate", cert, "--terms", terms])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["integrable"] is False
    assert payload["closed_form"] == "0"


def test_integrate_zero_terms_real_value_is_float(tmp_path, capsys):
    cert = write_json(tmp_path / "cert.json", ZP_CERT)
    zero = {"terms": [{"cell": i, "coeff": "0", "levels": [{"a": 1, "l": 0}]}
                      for i in (0, 1)]}
    terms = write_json(tmp_path / "terms.json", zero)
    assert main(["integrate", "--certificate", cert, "--terms", terms]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["closed_form"] == "0" and payload["integrable"] is True
    assert '"real_value": 0.0' in out and type(payload["real_value"]) is float


def test_integrate_bad_certificate_exit_3(tmp_path, capsys):
    cert = write_json(tmp_path / "cert.json", DOUBLE_COVER_CERT)
    terms = write_json(tmp_path / "terms.json", NORM_TERMS)
    rc = main(["integrate", "--certificate", cert, "--terms", terms])
    assert rc == 3
    assert "violation" in capsys.readouterr().err


# the cell {|t| < |5^(-6)|} and the point 0 cover Z_5 exactly once, but the first
# cell also holds every t with -5 <= v(t) < 0
REACHING_OUT_CERT = {
    "prime": 5,
    "domain": {"kind": "box", "arity": 1},
    "cells": [
        {"levels": [{"center": "0", "upper": {"expr": "1/15625", "strict": True},
                     "coset": {"lambda": "1", "n": 1}}]},
        ZP_CERT["cells"][0],
    ],
}


def test_a_cell_outside_its_domain_exits_3(tmp_path, capsys):
    """integrate used to print closed_form 3125 against oracle_exact 1 with exit 0:
    the classes mod 5^m see only the points of Z_5.  The cell is now refused at
    any check level, by a violation of its own kind."""
    cert = write_json(tmp_path / "cert.json", REACHING_OUT_CERT)
    terms = write_json(tmp_path / "terms.json", {"terms": [
        {"cell": k, "coeff": "1", "levels": [{"a": 0, "l": 0}]} for k in (0, 1)]})
    assert main(["integrate", "--certificate", cert, "--terms", terms, "--expr", "norm(1)",
                 "--oracle-level", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "certificate": "partition check: 1 cell(s) outside the domain, 125 points, 1 ambiguous",
        "outside_domain": [0], "violations": []}
    assert main(["cells-check", "--certificate", cert, "--level", "6"]) == 3
    out = json.loads(capsys.readouterr().out)
    assert (out["partition_ok"], out["outside_domain"], out["violations"]) == (False, [0], [])


def test_a_coset_cell_outside_its_tower_domain_exits_3(tmp_path, capsys):
    """Over the domain {|t| <= 1, t in P_2} at p = 5, the cell 2*P_2 holds none
    of the domain's points (2 is not a square mod 5), so the classes see no
    violation; its unit part puts it outside the domain."""
    def ball(lam):
        return {"levels": [{"center": "0", "upper": {"expr": "1", "strict": False},
                            "coset": {"lambda": lam, "n": 2}}]}

    cert = write_json(tmp_path / "cert.json", {
        "prime": 5, "domain": {"kind": "tower", **ball("1")}, "cells": [ball("1"), ball("2")]})
    assert main(["cells-check", "--certificate", cert, "--level", "4"]) == 3
    assert json.loads(capsys.readouterr().out) == {
        "ambiguous_points": 0, "outside_domain": [1], "partition_ok": False,
        "points_tested": 260, "violations": []}


def _about_one_over(p: int, shell: bool) -> dict:
    """A box certificate of one cell about c = 1/p in 1*P_1: v(t - c) >= -1,
    or with shell only v(t - c) = -1."""
    level = {"center": f"1/{p}", "upper": {"expr": f"1/{p}", "strict": False},
             "coset": {"lambda": "1", "n": 1}}
    if shell:
        level["lower"] = {"expr": "1", "strict": True}
    return {"prime": p, "domain": {"kind": "box", "arity": 1}, "cells": [{"levels": [level]}]}


ONE_TERM = {"terms": [{"cell": 0, "coeff": "1", "levels": [{"a": 0, "l": 0}]}]}


@pytest.mark.parametrize("shell", [False, True])
def test_a_cell_about_a_non_integral_centre_outside_z5_exits_3(tmp_path, capsys, shell):
    """About c = 1/5, integrate used to print closed_form 5 (4 for the single
    shell) against oracle_exact 1 with exit 0: the cell holds t = c + 1."""
    cert = write_json(tmp_path / "cert.json", _about_one_over(5, shell))
    terms = write_json(tmp_path / "terms.json", ONE_TERM)
    assert main(["integrate", "--certificate", cert, "--terms", terms, "--expr", "norm(1)",
                 "--oracle-level", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "certificate": "partition check: 1 cell(s) outside the domain, 125 points, 0 ambiguous",
        "outside_domain": [0], "violations": []}
    assert main(["cells-check", "--certificate", cert]) == 3
    out = json.loads(capsys.readouterr().out)
    assert (out["partition_ok"], out["outside_domain"], out["violations"]) == (False, [0], [])


def test_the_single_shell_about_one_half_is_z2(tmp_path, capsys):
    """At p = 2 the shell v(t - 1/2) = -1 is Z_2 itself: t = (1 + u)/2 for the
    units u, so the certificate passes and integrates to 1."""
    cert = write_json(tmp_path / "cert.json", _about_one_over(2, True))
    terms = write_json(tmp_path / "terms.json", ONE_TERM)
    assert main(["integrate", "--certificate", cert, "--terms", terms, "--expr", "norm(1)",
                 "--oracle-level", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["certificate"], out["closed_form"], out["oracle_exact"]) \
        == ("partition check: ok, 8 points, 0 ambiguous", "1", "1")
    assert main(["cells-check", "--certificate", cert]) == 0
    assert json.loads(capsys.readouterr().out)["partition_ok"] is True


def test_cells_check_ok_and_norms(tmp_path, capsys):
    payload = dict(COSET_CERT)
    # |t| = |lam| * |t^2 lam^{-2}|^{1/2} on each coset cell (root order 2)
    payload["descriptions"] = [{"cell": i, "function": 0, "delta": str(lam), "a": 2}
                               for i, lam in enumerate((1, 2, 5, 10))]
    cert = write_json(tmp_path / "cert.json", payload)
    rc = main(["cells-check", "--certificate", cert, "--level", "4",
               "--functions", "x1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["partition_ok"] is True and out["norms_ok"] is True
    assert out["ambiguous_points"] == 0


def test_cells_check_failure_exit_3(tmp_path, capsys):
    cert = write_json(tmp_path / "cert.json", DOUBLE_COVER_CERT)
    rc = main(["cells-check", "--certificate", cert, "--level", "2"])
    assert rc == 3
    assert json.loads(capsys.readouterr().out)["partition_ok"] is False


def test_cells_check_reads_functions_without_descriptions(tmp_path, capsys):
    """--functions is read whenever it is given: on a certificate without
    descriptions an empty list exits 1 and a parse error 2; a valid list
    checks no norm."""
    cert = write_json(tmp_path / "cert.json", ZP_CERT)
    argv = ["cells-check", "--certificate", cert, "--level", "3", "--functions"]
    assert main(argv + [""]) == 1
    assert_one_error_line(capsys, "--functions needs at least one polynomial")
    assert main(argv + ["x1^^2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("parse error: ")
    assert len(captured.err.splitlines()) == 1
    assert main(argv + ["x1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["partition_ok"] is True and "norms_ok" not in out


def test_oracle_command(tmp_path, capsys):
    rc = main(["oracle", "--expr", "norm(x1)", "--arity", "1", "--level", "4,5,6",
               "--prime", "5", "--out", str(tmp_path / "oracle")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["real_value"] - 5 / 6) < 1e-3
    assert payload["stabilizing"] is True
    assert (tmp_path / "oracle.csv").read_text().startswith("level,value,ambiguous")


def test_expsum_command(capsys):
    rc = main(["expsum", "--f", "x1^2", "--y", "1/5", "--prime", "5"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["abs"] - 5**-0.5) < 1e-9


def test_expsum_warns_of_a_map_that_cannot_be_dominant(capsys):
    assert main(["expsum", "--f", "x1;x1^2", "--y", "1/5,1/5", "--prime", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["warning"].startswith("map has 2 components in 1 variables")
    assert (payload["n"], payload["r"]) == (1, 2)


def test_kloosterman_command(capsys):
    rc = main(["kloosterman", "--f", "x1^2", "--a", "1", "--m", "1", "--prime", "5"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["abs"] - 5**-0.5) < 1e-9


def test_singular_command(tmp_path, capsys):
    rc = main(["singular", "--f", "x1", "--z", "0;1;2;3;4", "--m-min", "1",
               "--m-max", "3", "--prime", "5", "--out", str(tmp_path / "ss")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(entry["final"] == "1" for entry in payload["series"])
    assert all(entry["stabilizing"] for entry in payload["series"])


@pytest.mark.parametrize("f, zs, prime", [
    ("x1^2", "1;2;0;4", 5),  # 2 is no square mod 5: no solutions at any level
    ("x1^2 + x2^3", "0;1;7", 3),
    ("x1^3 - 1/2*x1", "3;1/2", 7),
])
def test_singular_rows_are_singular_series_at_every_z_and_level(f, zs, prime, tmp_path,
                                                                 capsys):
    rc = main(["singular", "--f", f, "--z", zs, "--m-min", "1", "--m-max", "3",
               "--prime", str(prime), "--out", str(tmp_path / "ss")])
    assert rc == 0
    series = json.loads(capsys.readouterr().out)["series"]
    rows = (tmp_path / "ss.csv").read_text(encoding="utf-8").splitlines()[1:]
    ctx, fs = PrimeContext(prime), [parse_poly(f)]
    expected = [[singular_series(fs, [Fraction(z)], m, ctx) for m in (1, 2, 3)]
                for z in zs.split(";")]
    assert [entry["values"] for entry in series] == [list(map(str, v)) for v in expected]
    assert rows == [f'"{z}",{m},{value}' for z, values in zip(zs.split(";"), expected)
                    for m, value in zip((1, 2, 3), values)]
    if prime == 5:
        assert expected[1] == [0, 0, 0]


def test_decay_command_and_determinism(tmp_path, capsys):
    args = ["decay", "--f", "x1^2", "--m-min", "1", "--m-max", "6",
            "--prime", "5", "--seed", "11", "--out", str(tmp_path / "run1")]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert -0.55 <= payload["alpha_hat"] <= -0.45
    assert payload["bound_ok"] is True
    args2 = args[:-1] + [str(tmp_path / "run2")]
    assert main(args2) == 0
    capsys.readouterr()
    assert (tmp_path / "run1.csv").read_bytes() == (tmp_path / "run2.csv").read_bytes()
    assert (tmp_path / "run1.json").read_bytes() == (tmp_path / "run2.json").read_bytes()
    header = (tmp_path / "run1.csv").read_text().splitlines()[0]
    assert header == "m,re,im,abs,logp_abs"


def test_decay_warns_when_the_jacobian_stays_below_full_rank(capsys):
    assert main(["decay", "--f", "x1*x2;2*x1*x2", "--m-min", "1", "--m-max", "2",
                 "--prime", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["warning"].startswith("Jacobian rank stayed at 1 < 2")


def test_decay_direction_sweep(capsys):
    rc = main(["decay", "--f", "x1^2", "--direction", "1;2;3", "--m-min", "1",
               "--m-max", "4", "--prime", "5"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["per_direction"]) == 3
    # the Gauss family decays at -1/2 along every unit ray
    assert all(-0.55 <= e["alpha_hat"] <= -0.45 for e in payload["per_direction"])
    assert payload["alpha_hat"] == max(e["alpha_hat"] for e in payload["per_direction"])


def test_budget_exit_code_4(capsys):
    rc = main(["decay", "--f", "x1^2", "--m-min", "1", "--m-max", "9",
               "--prime", "5", "--budget", "1000"])
    assert rc == 4
    assert "budget" in capsys.readouterr().err


def test_cells_check_budget_exit_code_4(tmp_path, capsys):
    cert = write_json(tmp_path / "cert.json", ZP_CERT)
    rc = main(["cells-check", "--certificate", cert, "--level", "12", "--budget", "1000"])
    assert rc == 4  # refused before enumerating 5^12 points
    assert capsys.readouterr().err.startswith("budget exceeded: 5^12 residue points")


@pytest.mark.parametrize("argv, size", [
    (["kloosterman", "--f", "x1^2", "--a", "1", "--m", "10000000"], "5^10000000"),
    (["decay", "--f", "x1^2", "--m-min", "1", "--m-max", "40"], "5^40"),
    (["decay", "--f", "x1^2", "--m-min", "10000000", "--m-max", "10000001"], "5^10000001"),
    (["singular", "--f", "x1^2", "--z", "1", "--m-min", "1", "--m-max", "40"], "5^40"),
    (["singular", "--f", "x1^2", "--z", "1", "--m-min", "10000000", "--m-max", "10000000"],
     "5^10000000"),
    (["oracle", "--expr", "norm(x1)", "--level", "4,5,1000000000000"], "5^1000000000000"),
    (["cells-check", "--certificate", "{cert}", "--level", "1000000000000"],
     "5^1000000000000"),
    (["integrate", "--certificate", "{cert}", "--terms", "{terms}",
      "--check-level", "1000000000000"], "5^1000000000000"),
    (["integrate", "--certificate", "{cert}", "--terms", "{terms}", "--expr", "norm(x1)",
      "--oracle-level", "1000000000000"], "5^1000000000000"),
])
def test_largest_level_is_refused_before_any_work(tmp_path, capsys, deadline, argv, size):
    """A command whose largest level is over the budget exits 4 at once, naming
    that level's size, with nothing on stdout."""
    cert = write_json(tmp_path / "cert.json", COSET_CERT)
    terms = write_json(tmp_path / "terms.json", {"terms": [
        {"cell": k, "coeff": "1", "levels": [{"a": 0, "l": 0}]} for k in range(4)]})
    deadline(2)
    assert main([arg.format(cert=cert, terms=terms) for arg in argv]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"budget exceeded: {size} residue points exceed the budget of 100000000"]


def test_a_high_degree_with_few_points_is_fast(capsys, deadline):
    """expsum --f x1^100000 --y 1/5 enumerates 5 points: Horner reduces mod 5 at
    every step, so the value no longer grows to 100 000 digits (2.8 s before)."""
    deadline(1)
    assert main(["expsum", "--f", "x1^100000", "--y", "1/5", "--prime", "5"]) == 0
    deadline(0)
    out = json.loads(capsys.readouterr().out)
    # x^100000 = 1 mod 5 on the 4 units: E = (1 + 4 e(1/5)) / 5
    angle = 2 * math.pi / 5
    assert [out["re"], out["im"]] == pytest.approx([(1 + 4 * math.cos(angle)) / 5,
                                                    4 * math.sin(angle) / 5])


def test_the_dominance_check_is_free_of_the_degree(capsys, deadline):
    """expsum --f x1^99999999 runs its dominance check mod a large prime, with
    modular powers, instead of on exact rationals (past 30 s before)."""
    deadline(1)
    assert main(["expsum", "--f", "x1^99999999", "--y", "1/5", "--prime", "5"]) == 0
    deadline(0)
    captured = capsys.readouterr()
    # x^99999999 = x^3 mod 5 permutes the 4 units: E = (1 + sum of e(u/5)) / 5 = 0
    assert json.loads(captured.out)["abs"] < 1e-12 and captured.err == ""


@contextmanager
def no_digit_cap():
    """Python's cap on int-str conversion digits lifted, where the interpreter has one."""
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)


def test_exact_values_and_literals_past_the_digit_cap(capsys):
    """An exact value or a literal past 4300 digits is printed or read in full."""
    assert main(["oracle", "--expr", "norm(x1)^6000", "--level", "3"]) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    with no_digit_cap():
        assert Fraction(value) == riemann_integrate(
            parse_expr("norm(x1)^6000"), 1, 3, PrimeContext(5)).value
    assert main(["parse", "7" * 5000 + "*norm(x1)"]) == 0
    assert capsys.readouterr().out == "7" * 5000 + "*norm(x1)\n"
    assert main(["expsum", "--f", "1" * 5000 + "*x1^2", "--y", "1/5"]) == 0
    big = json.loads(capsys.readouterr().out)
    assert main(["expsum", "--f", "x1^2", "--y", "1/5"]) == 0  # 11...1 = 1 mod 5
    assert big == json.loads(capsys.readouterr().out)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-str digit cap")
@pytest.mark.parametrize("argv", [["oracle", "--expr", "norm(x1)^6000", "--level", "3"],
                                  ["parse", "norm(x1"], ["oracle", "--level", "0"]])
def test_main_restores_the_digit_cap(capsys, argv):
    before = sys.get_int_max_str_digits()
    main(argv)
    assert sys.get_int_max_str_digits() == before
    if before:  # the library runs under the cap again
        with pytest.raises(ValueError):
            int("1" * (before + 1))


def assert_one_error_line(capsys, *fragments):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert all(fragment in lines[0] for fragment in fragments), lines


def test_oracle_admits_every_level_before_running_any(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "refine_classes", lambda *args: pytest.fail("a level ran"))
    assert main(["oracle", "--expr", "norm(x1)", "--level", "4,0"]) == 1
    assert_one_error_line(capsys, "level m must be >= 1")


def test_oracle_argument_errors_exit_1(capsys):
    for argv in (["oracle", "--expr", "norm(x2)", "--arity", "1", "--level", "2",
                  "--prime", "5"],
                 ["oracle", "--expr", "norm(x1)", "--level", "0"]):
        assert main(argv) == 1
        assert_one_error_line(capsys)


def test_oracle_empty_level_list_exit_1(capsys):
    assert main(["oracle", "--expr", "norm(x1)", "--level", ","]) == 1
    assert_one_error_line(capsys, "--level")


HUGE = "1" + "0" * 400  # past the float range


def test_float_view_overflow_exit_1(tmp_path, capsys):
    """An exact value too large for its float view is one error line, not a traceback."""
    terms = json.loads(json.dumps(NORM_TERMS))
    terms["terms"][1]["coeff"] = HUGE
    argv = ["integrate", "--certificate", write_json(tmp_path / "cert.json", ZP_CERT),
            "--terms", write_json(tmp_path / "t.json", terms)]
    assert main(argv) == 1
    assert_one_error_line(capsys, "value is too large for a float")
    assert main(["oracle", "--expr", f"{HUGE}*norm(x1)", "--level", "2"]) == 1
    assert_one_error_line(capsys, "value is too large for a float")


def test_nonpositive_budget_exit_1(capsys):
    assert main(["oracle", "--expr", "norm(x1)", "--level", "2", "--budget", "0"]) == 1
    assert_one_error_line(capsys, "budget must be positive")


def test_unreadable_config_exit_1(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert main(["expsum", "--config", str(missing)]) == 1
    assert_one_error_line(capsys, "missing.cfg")
    config = tmp_path / "run.cfg"
    config.write_text("prime=7\nf x1^2\n", encoding="utf-8")
    assert main(["expsum", "--config", str(config)]) == 1
    assert_one_error_line(capsys, "run.cfg", "'f x1^2'")
    config.write_bytes(b"prime=7\xff\n")
    assert main(["expsum", "--config", str(config)]) == 1
    assert_one_error_line(capsys, "run.cfg", "utf-8")


@pytest.mark.parametrize("argv, entry", [
    (["oracle", "--expr", "norm(x1)", "--level", "2,a"], "'a'"),
    (["kloosterman", "--f", "x1", "--a", "x", "--m", "1"], "'x'"),
    (["kloosterman", "--f", "x1", "--a", "1", "--m", "1.5"], "'1.5'"),
    (["expsum", "--f", "x1^2", "--y", "a"], "'a'"),
    (["expsum", "--f", "x1^2", "--y", "1/0"], "'1/0'"),
    (["singular", "--f", "x1^2", "--z", "1;b"], "'b'"),
    (["decay", "--f", "x1^2", "--direction", "1,c"], "'c'"),
])
def test_non_numeric_list_entry_exit_1(capsys, argv, entry):
    assert main(argv) == 1
    assert_one_error_line(capsys, entry)


@pytest.mark.parametrize("argv", [
    ["expsum", "--f", "x1^2", "--y", "1/0", "--prime", "5"],
    ["singular", "--f", "x1^2", "--z", "2;1/0"],
    ["decay", "--f", "x1^2", "--direction", "1/0"],
])
def test_zero_denominator_in_number_list_exit_1(capsys, argv):
    """The DSL's wording, not the repr of the Fraction that failed."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad number list '1/0': denominator is zero\n"


@pytest.mark.parametrize("command, line, fragment", [
    (["expsum", "--f", "x1^2", "--y", "1/5"], "budget=abc", "budget='abc'"),
    (["decay", "--f", "x1^2"], "m-max=x", "m-max='x'"),
    (["singular", "--f", "x1^2", "--z", "1"], "m-min=2.5", "m-min=2.5"),
    (["oracle", "--expr", "norm(x1)", "--level", "2"], "arity=true", "arity=True"),
])
def test_non_integer_config_setting_exit_1(tmp_path, capsys, command, line, fragment):
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n", encoding="utf-8")
    assert main(command + ["--config", str(config)]) == 1
    assert_one_error_line(capsys, "integer setting", fragment)


@pytest.mark.parametrize("flag", ["--prime", "--budget", "--seed", "--arity", "--level",
                                  "--m-min", "--m-max", "--oracle-level", "--check-level"])
def test_non_integer_flag_exit_1(tmp_path, capsys, flag):
    """A bad integer flag is refused like the same value in a config file."""
    cert = write_json(tmp_path / "cert.json", ZP_CERT)
    terms = write_json(tmp_path / "terms.json", NORM_TERMS)
    command = {
        "--arity": ["oracle", "--expr", "norm(x1)", "--level", "2"],
        "--level": ["cells-check", "--certificate", cert],
        "--m-min": ["singular", "--f", "x1^2", "--z", "1"],
        "--m-max": ["decay", "--f", "x1^2"],
        "--oracle-level": ["integrate", "--certificate", cert, "--terms", terms,
                           "--expr", "norm(x1)"],
        "--check-level": ["integrate", "--certificate", cert, "--terms", terms],
    }.get(flag, ["expsum", "--f", "x1^2", "--y", "1/5"])
    assert main(command + [flag, "x"]) == 1
    assert_one_error_line(capsys, "integer setting", "'x'")


_DESCRIBED_CERT = dict(ZP_CERT, descriptions=[{"cell": 1, "function": 0, "a": 1, "level": 0}])


@pytest.mark.parametrize("path", [  # every integer field of the certificate and terms files
    ("prime",), ("domain", "arity"), ("cells", 1, "levels", 0, "coset", "n"),
    ("descriptions", 0, "cell"), ("descriptions", 0, "function"),
    ("descriptions", 0, "a"), ("descriptions", 0, "level"),
    ("terms", 1, "cell"), ("terms", 1, "levels", 0, "a"), ("terms", 1, "levels", 0, "l"),
])
@pytest.mark.parametrize("bad", [2.7, True, "two"])
def test_non_integer_file_field_exit_1(tmp_path, capsys, path, bad):
    """A fractional, boolean or non-numeric integer field is refused, never truncated."""
    what = "terms" if path[0] == "terms" else "certificate"
    cert, terms = json.loads(json.dumps(_DESCRIBED_CERT)), json.loads(json.dumps(NORM_TERMS))
    parent = terms if what == "terms" else cert
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = bad
    cert, terms = write_json(tmp_path / "cert.json", cert), write_json(tmp_path / "t.json", terms)
    commands = [["integrate", "--certificate", cert, "--terms", terms]]
    if what == "certificate":
        commands.append(["cells-check", "--certificate", cert, "--functions", "x1"])
    for argv in commands:
        assert main(argv) == 1
        assert_one_error_line(capsys, f"error: malformed {what}: ",
                              f"{path[-1]}={bad!r} is not an integer")


def test_negative_valuation_exponent_exit_1(tmp_path, capsys):
    """l < 0 on a lambda != 0 level is a malformed terms file, not a traceback."""
    terms = json.loads(json.dumps(NORM_TERMS))
    terms["terms"][1]["levels"][0] = {"a": 0, "l": -1}
    argv = ["integrate", "--certificate", write_json(tmp_path / "cert.json", ZP_CERT),
            "--terms", write_json(tmp_path / "t.json", terms)]
    assert main(argv) == 1
    assert_one_error_line(capsys, "error: malformed terms: ", "l=-1 must be >= 0")


def test_parser_reuse_carries_nothing_over(capsys):
    argv = ["expsum", "--f", "x1^2", "--y", "1/5;1/25", "--prime", "5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert main(["oracle", "--expr", "norm(x2)", "--arity", "2", "--level", "2"]) == 0
    capsys.readouterr()
    # without --arity the default 1 applies again, which is below x2
    assert main(["oracle", "--expr", "norm(x2)", "--level", "2"]) == 1
    assert_one_error_line(capsys, "arity")


def test_readme_command_lines_parse():
    """Every `cellint ...` line of README's Command line block names real flags."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("cellint ")]
    assert len(lines) >= 8
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_integral_float_config_setting_accepted(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("budget=1e9\nprime=7.0\n", encoding="utf-8")
    assert main(["expsum", "--f", "x1^2", "--y", "1/7", "--config", str(config)]) == 0
    assert abs(json.loads(capsys.readouterr().out)["abs"] - 7**-0.5) < 1e-9


@pytest.mark.parametrize("argv, fragment", [
    (["singular", "--f", "x1^2", "--z", "1", "--m-min", "0"], "level m must be >= 1"),
    (["singular", "--f", "x1^2", "--z", "1", "--m-min", "3", "--m-max", "2"], "m-max >= m-min"),
    (["decay", "--f", "x1^2", "--m-min", "0"], "m2 > m1 >= 1"),
    (["decay", "--f", "x1^2", "--m-min", "3", "--m-max", "2"], "m2 > m1 >= 1"),
    (["expsum", "--f", "x1^2", "--y", "1/5,1"], "one component per polynomial"),
    (["kloosterman", "--f", "x1", "--a", "5", "--m", "1"], "not prime to p = 5"),
    (["kloosterman", "--f", "x1", "--a", "1", "--m", "0"], "must be positive"),
    (["decay", "--f", "x1^2", "--direction", "5"], "is not a unit"),
    (["decay", "--f", "x1^2", "--direction", ";"], "at least one direction"),
    (["expsum", "--f", "x1^2", "--y", ";"], "--y needs at least one point"),
    (["singular", "--f", "x1^2", "--z", ";"], "--z needs at least one value"),
    (["decay", "--f", ""], "--f needs at least one polynomial"),
    (["kloosterman", "--f", "", "--a", "", "--m", ""], "--f needs at least one polynomial"),
    (["expsum", "--f", ";", "--y", "1/5"], "--f needs at least one polynomial"),
    (["singular", "--f", " ", "--z", "1"], "--f needs at least one polynomial"),
])
def test_exponential_sum_argument_errors_exit_1(capsys, argv, fragment):
    assert main(argv + ["--prime", "5"]) == 1
    assert_one_error_line(capsys, fragment)


@pytest.mark.parametrize("argv, fragment", [
    (["cells-check", "--level", "0"], "level m must be >= 1"),
    (["cells-check", "--level", "-1"], "level m must be >= 1"),
    (["integrate", "--terms", "{terms}", "--check-level", "0"], "level m must be >= 1"),
    (["cells-check", "--level", "2", "--functions", ";"], "--functions needs at least one"),
])
def test_certificate_argument_errors_exit_1(tmp_path, capsys, argv, fragment):
    """A check at level <= 0 tests no point, so it must not report a broken
    certificate (two of COSET_CERT's four cosets dropped) as a partition."""
    broken = dict(COSET_CERT, cells=COSET_CERT["cells"][:2],
                  descriptions=[{"cell": 0, "a": 0}])
    cert = write_json(tmp_path / "cert.json", broken)
    terms = write_json(tmp_path / "terms.json", {"terms": [
        {"cell": 0, "coeff": "1", "levels": [{"a": 0, "l": 0}]}]})
    argv = [arg.format(terms=terms) for arg in argv]
    assert main(argv + ["--certificate", cert]) == 1
    assert_one_error_line(capsys, fragment)


POINT_LEVEL, BALL_LEVEL = ZP_CERT["cells"][0]["levels"][0], ZP_CERT["cells"][1]["levels"][0]
OUTSIDE_LEVEL = {"center": "0", "lower": {"expr": "1"}, "coset": {"lambda": "1", "n": 1}}


@pytest.mark.parametrize("arity, cells, description, functions, fragment", [
    (1, [POINT_LEVEL, BALL_LEVEL], {"cell": 1, "a": 1, "level": 0}, "x1*x2",
     "function 0 (x1*x2) uses x2, but cell 1 has arity 1"),
    (1, [POINT_LEVEL, BALL_LEVEL], {"cell": 1, "a": 1, "delta": "x2", "level": 0}, "x1",
     "description delta x2 uses x2, but only 0 variable(s) precede level 0 of cell 1"),
    (0, [None], {"cell": 0, "a": 0}, "1", "description level -1 is not a level of cell 0 (0 "),
    (1, [POINT_LEVEL, BALL_LEVEL], {"cell": 1, "a": 1, "level": 7}, "x1",
     "description level 7 is not a level of cell 1 (1 level(s))"),
    (1, [POINT_LEVEL, BALL_LEVEL], {"cell": 0, "a": 1}, "x1", "lambda = 0 level requires a = 0"),
    # |t| > 1 holds at no class of Z_p: the description is still checked
    (1, [POINT_LEVEL, BALL_LEVEL, OUTSIDE_LEVEL], {"cell": 2, "a": 1, "delta": "x1"}, "x1",
     "description delta x1 uses x1"),
])
def test_malformed_norm_description_exit_1(tmp_path, capsys, monkeypatch, arity, cells,
                                           description, functions, fragment):
    """A description that does not fit its cell is one error line, checked
    before any class is walked (the partition check is never called), never a
    traceback or a wrapped level; it wins over a budget the check would exceed."""
    def walked(*args, **kwargs):
        raise AssertionError("check_partition walked a certificate with a bad description")

    monkeypatch.setattr(cli, "check_partition", walked)
    cert = write_json(tmp_path / "cert.json", {
        "prime": 5, "domain": {"kind": "box", "arity": arity},
        "cells": [{"levels": [] if level is None else [level]} for level in cells],
        "descriptions": [description]})
    argv = ["cells-check", "--certificate", cert, "--level", "2", "--functions", functions]
    assert main(argv) == 1
    assert_one_error_line(capsys, fragment)
    assert main(argv + ["--level", "12", "--budget", "1000"]) == 1
    assert_one_error_line(capsys, fragment)


def test_unwritable_out_file_exit_1(tmp_path, capsys):
    args = ["decay", "--f", "x1^2", "--prime", "5", "--m-max", "2", "--out"]
    assert main(args + [str(tmp_path / "missing" / "x.csv")]) == 1
    assert_one_error_line(capsys, "missing/x.csv.json", "No such file or directory")
    (tmp_path / "run.csv").mkdir()  # the .json is written, the .csv cannot be
    assert main(args + [str(tmp_path / "run")]) == 1
    assert_one_error_line(capsys, "run.csv")
    assert json.loads((tmp_path / "run.json").read_text())["samples"]


def test_non_prime_exit_1(capsys):
    assert main(["oracle", "--expr", "norm(x1)", "--level", "2", "--prime", "6"]) == 1
    assert_one_error_line(capsys, "p = 6 is not prime")


@pytest.mark.parametrize("case, fragment", [
    ("missing certificate", "cert.json"),
    ("missing terms", "terms.json"),
    ("certificate not JSON", "cert.json"),
    ("certificate without domain", "'domain'"),
    ("certificate without cells", "'cells'"),
    ("terms without terms", "'terms'"),
])
def test_unreadable_input_files_exit_1(tmp_path, capsys, case, fragment):
    cert, terms = tmp_path / "cert.json", tmp_path / "terms.json"
    cert_payload = {"missing certificate": None, "certificate not JSON": "{'prime': 5",
                    "certificate without domain": {k: v for k, v in ZP_CERT.items()
                                                   if k != "domain"},
                    "certificate without cells": {k: v for k, v in ZP_CERT.items()
                                                  if k != "cells"}}.get(case, ZP_CERT)
    terms_payload = {"missing terms": None, "terms without terms": {}}.get(case, NORM_TERMS)
    if isinstance(cert_payload, str):
        cert.write_text(cert_payload, encoding="utf-8")
    elif cert_payload is not None:
        write_json(cert, cert_payload)
    if terms_payload is not None:
        write_json(terms, terms_payload)
    assert main(["integrate", "--certificate", str(cert), "--terms", str(terms)]) == 1
    assert_one_error_line(capsys, fragment)
    if "terms" not in case:
        assert main(["cells-check", "--certificate", str(cert)]) == 1
        assert_one_error_line(capsys, fragment)


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("prime=7\nf=x1^2\ny=1/7\n", encoding="utf-8")
    rc = main(["expsum", "--config", str(config)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["abs"] - 7**-0.5) < 1e-9
    # flag overrides config
    rc = main(["expsum", "--config", str(config), "--y", "1/49"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["level"] == 2


# -- each command accepts only the settings it reads ---------------------------------


def _flags(command):
    return {"--config"} | {arg for arg in cli.COMMANDS[command][2] if arg.startswith("--")}


def test_each_subparser_takes_config_and_its_settings_only():
    """COMMANDS is the one list of each command's settings; --config is the one
    flag every command takes."""
    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction)).choices
    assert set(subparsers) == set(cli.COMMANDS)
    slots = 0
    for name, sub in subparsers.items():
        flags = {flag for action in sub._actions for flag in action.option_strings
                 if flag.startswith("--") and flag != "--help"}
        assert flags == _flags(name)
        slots += len(flags) + sum(1 for action in sub._actions if not action.option_strings)
    assert slots == 54
    reads = {flag: sorted(name for name in cli.COMMANDS if flag in _flags(name))
             for flag in ("--prime", "--budget", "--seed", "--out")}
    assert reads == {
        "--prime": ["decay", "expsum", "kloosterman", "oracle", "singular"],
        "--budget": sorted(set(cli.COMMANDS) - {"parse"}),
        "--seed": ["decay", "expsum"],
        "--out": sorted(set(cli.COMMANDS) - {"parse"}),
    }


@pytest.mark.parametrize("argv", [
    ["cells-check", "--certificate", "cert.json", "--prime", "7"],
    ["integrate", "--certificate", "cert.json", "--terms", "terms.json", "--prime", "7"],
    ["parse", "norm(x1)", "--out", "x"],
    ["parse", "norm(x1)", "--budget", "10"],
    ["parse", "norm(x1)", "--prime", "7"],
    ["oracle", "--expr", "norm(x1)", "--seed", "1"],
    ["singular", "--f", "x1", "--z", "1", "--seed", "1"],
])
def test_unread_flag_is_a_usage_error_exit_2(capsys, argv):
    """A flag the command would never read is refused by argparse before any
    file is read, so a certificate's prime cannot be silently overridden."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: " + argv[-2] in captured.err


@pytest.mark.parametrize("command, lines, key", [
    (["cells-check", "--certificate", "{cert}"], "prime=7", "prime"),
    (["integrate", "--certificate", "{cert}", "--terms", "{terms}"], "prime=7\nseed=2", "prime"),
    (["parse", "norm(x1)"], "out=x\nbudget=10", "budget"),
    (["oracle", "--expr", "norm(x1)"], "seed=1\nlevel=2", "seed"),
    (["expsum", "--f", "x1^2", "--y", "1/5"], "zeta=1\nm_min=2\nalpha=0\nprime=5", "alpha"),
    (["decay", "--f", "x1^2"], "config=other.cfg", "config"),
])
def test_config_key_the_command_does_not_read_exit_1(tmp_path, capsys, command, lines, key):
    """One error line naming the first unread key in sorted order; nothing is run."""
    cert = write_json(tmp_path / "cert.json", ZP_CERT)
    terms = write_json(tmp_path / "terms.json", NORM_TERMS)
    config = tmp_path / "run.cfg"
    config.write_text(lines + "\n", encoding="utf-8")
    argv = [arg.format(cert=cert, terms=terms) for arg in command]
    assert main(argv + ["--config", str(config)]) == 1
    assert_one_error_line(capsys, f"config key '{key}' is not a setting of {command[0]}")


def test_every_config_key_of_a_command_is_accepted(tmp_path, capsys):
    """A config file may hold every setting the command reads, and a flag wins."""
    config = tmp_path / "run.cfg"
    config.write_text(f"f=x1^2\ny=1/7\nprime=7\nbudget=1000\nseed=3\n"
                      f"out={tmp_path / 'res'}\n", encoding="utf-8")
    assert main(["expsum", "--config", str(config), "--y", "1/49"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["level"] == 2
    assert json.loads((tmp_path / "res.json").read_text()) == payload
    assert main(["expsum", "--config", str(config), "--y", "1/2401"]) == 4
    assert capsys.readouterr().err.startswith("budget exceeded: ")


@pytest.mark.parametrize("setting, value, fragment", [
    ("--budget", "0", "budget must be positive"),
    ("--budget", "x", "budget='x'"),
])
@pytest.mark.parametrize("command", ["integrate", "cells-check"])
def test_budget_is_checked_before_the_certificate_is_read(tmp_path, capsys, command,
                                                         setting, value, fragment):
    missing = str(tmp_path / "missing.json")
    argv = [command, "--certificate", missing] + \
        (["--terms", missing] if command == "integrate" else [])
    assert main(argv + [setting, value]) == 1
    assert_one_error_line(capsys, fragment)
    assert main(argv) == 1
    assert_one_error_line(capsys, "missing.json")
