"""Command-line front end.

Subcommands: parse, integrate, cells-check, oracle, expsum, kloosterman,
singular, decay.  The COMMANDS table declares once the settings each command
reads, each a flag and a key of its --config file (flat key=value lines; flags
win), and each reaches its command as text, converted where the command reads it.

Exit codes: 0 success, 1 any other cellint error (one "error: ..." line on
stderr), such as a non-integer --arity on the command line or arity=x in the
config file, or a config key the command does not read, 2 expression parse
error or argparse usage error (an unknown subcommand, or a flag the command
does not read or without its value), 3 certificate verification failure,
4 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .cells import (
    check_norm_description,
    check_partition,
    load_certificate,
    load_terms,
    read_integer,
)
from .errors import BudgetExceededError, CellintError, ExprSyntaxError, InvalidArgumentError
from .expsums import (
    bound_check,
    bound_violations,
    decay_fits,
    dominance_warning,
    exp_sum,
    normalized_kloosterman,
    singular_values,
)
from .formula_dsl import format_expr, parse_expr, parse_poly
from .oracle import DEFAULT_LEVEL, _arity, riemann_integrate, riemann_sums, stabilization_check
from .padic_core import DEFAULT_BUDGET, PrimeContext, check_budget
from .qexp_sum import integrate_explicit_tower
from .rootval import RootScaledValue


@dataclass
class RunConfig:
    """Merged run settings: flags win over the config file."""

    payload: dict = field(default_factory=dict)

    def get(self, key: str, default=None):
        value = self.payload.get(key, default)
        return default if value is None else value

    def integer(self, key: str, default: int) -> int:
        """A scalar setting from a flag or the config file, checked by cells.read_integer."""
        try:
            return read_integer(self.get(key, default), key)
        except ValueError as ex:
            raise InvalidArgumentError(f"bad integer setting: {ex}") from None

    def require(self, key: str):
        value = self.payload.get(key)
        if value is None:
            raise CellintError(f"missing required setting '{key}'")
        return value

    @property
    def budget(self) -> int:
        budget = self.integer("budget", DEFAULT_BUDGET)
        if budget <= 0:
            raise InvalidArgumentError(f"budget must be positive, got {budget}")
        return budget

    @property
    def context(self) -> PrimeContext:
        return PrimeContext(self.integer("prime", 5))


def load_config(path: str) -> dict:
    """Flat key=value config; values are JSON where possible, raw strings otherwise."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as ex:
        reason = getattr(ex, "strerror", ex)
        raise InvalidArgumentError(f"cannot read config file {path}: {reason}") from ex
    out: dict = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidArgumentError(f"config file {path}: line without '=': {line!r}")
        key, _, value = line.partition("=")
        value = value.strip()
        try:
            out[key.strip()] = json.loads(value)
        except json.JSONDecodeError:
            out[key.strip()] = value
    return out


def make_run_config(args) -> RunConfig:
    """The config file overridden by the flags; a key the command does not read is refused."""
    payload = dict(load_config(args.config)) if args.config else {}
    unknown = sorted(set(payload) - {arg.lstrip("-") for arg in COMMANDS[args.command][2]})
    if unknown:  # the first in sorted order, so the message does not depend on hashing
        raise InvalidArgumentError(f"config key '{unknown[0]}' is not a setting of {args.command}")
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        payload[key.replace("_", "-")] = value
    return RunConfig(payload)


def _poly_list(spec, flag: str) -> list:
    """The ';'-separated polynomials of a flag; an empty list is an InvalidArgumentError."""
    polys = [parse_poly(part) for part in str(spec).split(";") if part.strip()]
    if not polys:
        raise InvalidArgumentError(f"{flag} needs at least one polynomial")
    return polys


def _convert(kind, text: str, what: str):
    """kind(text); a bad value is an InvalidArgumentError naming what it was."""
    try:
        return kind(text)
    except ValueError as ex:
        raise InvalidArgumentError(f"bad {what}: {ex}") from None
    except ZeroDivisionError:
        raise InvalidArgumentError(f"bad {what}: denominator is zero") from None


def _number_list(spec, kind) -> list:
    """Comma-separated ints or Fractions (kind); a bad entry is an InvalidArgumentError."""
    return [_convert(kind, part.strip(), f"number list {spec!r}")
            for part in str(spec).split(",") if part.strip()]


def _grid(spec, flag: str, what: str) -> list[list[Fraction]]:
    """The ';'-separated points of a grid flag; an empty grid is an InvalidArgumentError."""
    grid = [_number_list(part, Fraction) for part in str(spec).split(";") if part.strip()]
    if not grid:
        raise InvalidArgumentError(f"{flag} needs at least one {what}")
    return grid


def _emit(payload: dict, run: RunConfig, csv_rows: list[str] | None = None):
    """Write the --out files, then print the JSON; an unwritable file is an
    InvalidArgumentError naming it, and nothing is printed."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    files = [(".json", text)] + ([] if csv_rows is None else [(".csv", "\n".join(csv_rows))])
    out = run.get("out")
    for suffix, body in files if out else ():
        try:
            with open(f"{out}{suffix}", "w", encoding="utf-8", newline="") as fh:
                fh.write(body + "\n")
        except OSError as ex:
            raise InvalidArgumentError(f"cannot write {out}{suffix}: {ex.strerror}") from None
    print(text)


# -- subcommand implementations ---------------------------------------------------


def _cmd_parse(run: RunConfig) -> int:
    expr = run.get("expr")
    if expr is None:
        print("parse: missing expression", file=sys.stderr)
        return 2
    print(format_expr(parse_expr(str(expr))))
    return 0


def _outside_payload(report) -> dict:
    """The cells that reach outside the domain, a violation of their own kind;
    nothing when there are none."""
    return {"outside_domain": report.outside} if report.outside else {}


def _cmd_integrate(run: RunConfig) -> int:
    budget = run.budget
    cert = load_certificate(run.require("certificate"))
    terms = load_terms(run.require("terms"))
    ctx = PrimeContext(cert.prime)
    level, expr = run.integer("check-level", 3), run.get("expr")
    oracle_level = level if expr is None else run.integer("oracle-level", DEFAULT_LEVEL)
    check_budget(ctx.p, max(level, oracle_level), cert.domain.arity, budget)
    report = check_partition(cert, level, ctx, budget=budget)
    if not report.ok:
        print(json.dumps({"certificate": report.summary(),
                          "violations": [[list(pt), cells] for pt, cells
                                         in report.violations[:20]],
                          **_outside_payload(report)},
                         indent=2, sort_keys=True), file=sys.stderr)
        return 3
    value, integrable = integrate_explicit_tower(terms, cert, ctx)
    payload = {
        "closed_form": str(value),
        "real_value": value.real_value(),
        "integrable": integrable,
        "certificate": report.summary(),
    }
    if expr is not None:
        oracle = riemann_integrate(parse_expr(str(expr)), cert.domain.arity,
                                   oracle_level, ctx, domain=cert.domain, budget=budget)
        payload.update({
            "oracle_value": oracle.real_value(),
            "oracle_exact": str(oracle.value),
            "oracle_level": oracle.level,
            "oracle_ambiguous": oracle.ambiguous_count,
            "abs_diff": abs(value.real_value() - oracle.real_value()),
        })
    _emit(payload, run)
    return 0


def _cmd_cells_check(run: RunConfig) -> int:
    budget = run.budget
    cert = load_certificate(run.require("certificate"))
    ctx = PrimeContext(cert.prime)
    level = run.integer("level", 4)
    functions, norm_report = run.get("functions"), None
    if functions is not None:  # a malformed description fails before any class is walked
        functions = _poly_list(functions, "--functions")
        if cert.descriptions:
            norm_report = check_norm_description(functions, cert, level, ctx, budget=budget)
    report = check_partition(cert, level, ctx, budget=budget)
    payload = {
        "partition_ok": report.ok,
        "points_tested": report.points_tested,
        "ambiguous_points": report.ambiguous_points,
        "violations": [[list(pt), cells] for pt, cells in report.violations[:50]],
        **_outside_payload(report),
    }
    ok = report.ok
    if norm_report is not None:
        payload.update({
            "norms_ok": norm_report.ok,
            "norm_points_checked": norm_report.points_checked,
            "norm_mismatches": [
                [list(pt), str(lhs), str(rhs)]
                for pt, lhs, rhs in norm_report.mismatches[:50]],
        })
        ok = ok and norm_report.ok
    _emit(payload, run)
    return 0 if ok else 3


def _cmd_oracle(run: RunConfig) -> int:
    ctx, budget = run.context, run.budget
    expr = parse_expr(str(run.require("expr")))
    arity = run.integer("arity", 1)
    level_list = _number_list(run.get("level", DEFAULT_LEVEL), int)
    if not level_list:
        raise InvalidArgumentError("--level needs at least one level")
    results = riemann_sums(expr, arity, level_list, ctx, budget=budget)
    rows = ["level,value,ambiguous"] + [
        f"{result.level},{result.real_value()!r},{result.ambiguous_count}" for result in results]
    result = results[-1]
    payload = {
        "value": str(result.value),
        "real_value": result.real_value(),
        "level": result.level,
        "ambiguous": result.ambiguous_count,
    }
    if len(results) >= 3:
        payload["stabilizing"] = stabilization_check(
            [r.value.as_exact_rational() if isinstance(r.value, RootScaledValue)
             else Fraction(r.value) for r in results], level_list, ctx)
    _emit(payload, run, rows)
    return 0


def _cmd_expsum(run: RunConfig) -> int:
    ctx, budget, seed = run.context, run.budget, run.integer("seed", 0)
    fs = _poly_list(run.require("f"), "--f")
    grid = _grid(run.require("y"), "--y", "point")
    rows = ["y,re,im,abs"]
    entries = []
    for y in grid:
        result = exp_sum(fs, y, ctx, budget=budget)
        entries.append({
            "y": [str(v) for v in y],
            "re": result.value.real,
            "im": result.value.imag,
            "abs": abs(result.value),
            "level": result.level,
            "n": result.n,
            "r": result.r,
        })
        rows.append(f"\"{','.join(str(v) for v in y)}\",{result.value.real!r},"
                    f"{result.value.imag!r},{abs(result.value)!r}")
    payload = entries[0] if len(entries) == 1 else {"results": entries}
    # after the sums, so a run past the budget exits before this differentiates
    if warning := dominance_warning(fs, seed=seed):
        payload["warning"] = warning
    _emit(payload, run, rows)
    return 0


def _cmd_kloosterman(run: RunConfig) -> int:
    ctx, budget = run.context, run.budget
    fs = _poly_list(run.require("f"), "--f")
    a = _number_list(run.require("a"), int)
    m = _number_list(run.require("m"), int)
    value = normalized_kloosterman(fs, a, m, ctx, budget=budget)
    payload = {"re": value.real, "im": value.imag, "abs": abs(value),
               "a": a, "m": m}
    rows = ["a,m,re,im,abs",
            f"\"{','.join(map(str, a))}\",\"{','.join(map(str, m))}\","
            f"{value.real!r},{value.imag!r},{abs(value)!r}"]
    _emit(payload, run, rows)
    return 0


def _cmd_singular(run: RunConfig) -> int:
    ctx, budget = run.context, run.budget
    fs = _poly_list(run.require("f"), "--f")
    zs = _grid(run.require("z"), "--z", "value")
    m_min = run.integer("m-min", 1)
    m_max = run.integer("m-max", 3)
    if m_max < m_min:
        raise InvalidArgumentError(f"need m-max >= m-min, got {m_min} > {m_max}")
    check_budget(ctx.p, m_max, _arity(fs), budget)
    levels = range(m_min, m_max + 1)
    by_level = [singular_values(fs, zs, m, ctx, budget=budget) for m in levels]
    rows = ["z,m,F"]
    summary = []
    for z, values in zip(zs, map(list, zip(*by_level))):
        for m, value in zip(levels, values):
            rows.append(f"\"{','.join(str(v) for v in z)}\",{m},{value}")
        entry = {"z": [str(v) for v in z], "values": [str(v) for v in values],
                 "final": str(values[-1])}
        if len(values) >= 3:
            entry["stabilizing"] = stabilization_check(values, list(levels), ctx)
        summary.append(entry)
    _emit({"series": summary}, run, rows)
    return 0


def _fit_payload(fit) -> dict:
    return {
        "alpha_hat": fit.alpha_hat,
        "c_hat": fit.c_hat,
        "bound_ok": bound_check(fit),
        "violations": len(bound_violations(fit)),
        "max_bound_violation": fit.max_bound_violation,
        "samples": fit.samples,
        "vanished": fit.vanished,
    }


def _cmd_decay(run: RunConfig) -> int:
    ctx, budget, seed = run.context, run.budget, run.integer("seed", 0)
    fs = _poly_list(run.require("f"), "--f")
    m_min = run.integer("m-min", 1)
    m_max = run.integer("m-max", 4)
    dir_spec = run.get("direction")
    directions = [[Fraction(1)] * len(fs)] if dir_spec is None \
        else _grid(dir_spec, "--direction", "direction")
    p = ctx.p
    multi = len(directions) > 1
    rows = ["direction,m,re,im,abs,logp_abs" if multi else "m,re,im,abs,logp_abs"]
    fits = list(zip(directions, decay_fits(fs, directions, (m_min, m_max), ctx,
                                           budget=budget)))
    for direction, fit in fits:
        for m, value in fit.values:
            mod = abs(value)
            logp = math.log(mod) / math.log(p) if mod > 0 else float("-inf")
            row = f"{m},{value.real!r},{value.imag!r},{mod!r},{logp!r}"
            if multi:
                row = f"\"{','.join(str(u) for u in direction)}\"," + row
            rows.append(row)
    if multi:
        # the bound must hold along every ray: report the weakest decay
        worst_dir, worst = max(fits, key=lambda df: df[1].alpha_hat)
        payload = _fit_payload(worst)
        payload["worst_direction"] = [str(u) for u in worst_dir]
        payload["per_direction"] = [
            {"direction": [str(u) for u in d], **_fit_payload(f)}
            for d, f in fits]
    else:
        payload = _fit_payload(fits[0][1])
    if warning := dominance_warning(fs, seed=seed):
        payload["warning"] = warning
    _emit(payload, run, rows)
    return 0


# -- driver ------------------------------------------------------------------------


# name: (handler, help, settings): the settings the command reads, each a flag and a
# config key; a setting without "--" is an optional positional.  A certificate
# carries its own prime, so integrate and cells-check take no --prime.
COMMANDS = {
    "parse": (_cmd_parse, "echo canonical form", ("expr",)),
    "integrate": (_cmd_integrate, "closed-form tower integral vs residue oracle",
                  ("--certificate", "--terms", "--expr", "--oracle-level", "--check-level",
                   "--budget", "--out")),
    "cells-check": (_cmd_cells_check, "verify a decomposition certificate",
                    ("--certificate", "--level", "--functions", "--budget", "--out")),
    "oracle": (_cmd_oracle, "brute-force Riemann sum",
               ("--expr", "--arity", "--level", "--prime", "--budget", "--out")),
    "expsum": (_cmd_expsum, "exponential sum E(y)",
               ("--f", "--y", "--prime", "--budget", "--seed", "--out")),
    "kloosterman": (_cmd_kloosterman, "normalized Kloosterman sum E(a, m)",
                    ("--f", "--a", "--m", "--prime", "--budget", "--out")),
    "singular": (_cmd_singular, "local singular series",
                 ("--f", "--z", "--m-min", "--m-max", "--prime", "--budget", "--out")),
    "decay": (_cmd_decay, "decay-rate fit of |E|",
              ("--f", "--direction", "--m-min", "--m-max", "--prime", "--budget", "--seed",
               "--out")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellint",
        description="exact p-adic cell integration and exponential-sum workbench")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, arguments) in COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        for arg in ("--config",) + arguments:
            sp.add_argument(arg, nargs=None if arg.startswith("--") else "?")
    return parser


_PARSER = build_parser()  # parse_args leaves it unchanged, so every call shares it


def main(argv=None) -> int:
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if cap is not None:  # exact values and literals may pass the int-str digit cap
        sys.set_int_max_str_digits(0)
    try:
        args = _PARSER.parse_args(argv)
        return COMMANDS[args.command][0](make_run_config(args))
    except ExprSyntaxError as ex:
        print(f"parse error: {ex}", file=sys.stderr)
        return 2
    except BudgetExceededError as ex:
        print(f"budget exceeded: {ex}", file=sys.stderr)
        return 4
    except CellintError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)


def entry():  # console-script target
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
