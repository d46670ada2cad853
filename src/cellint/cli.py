"""Command-line front end.

Subcommands: parse, integrate, cells-check, oracle, expsum, kloosterman,
singular, decay.  Global flags: --prime, --budget, --seed, --out, --config.
Configs are flat key=value files; command-line flags win over config values.

Exit codes: 0 success, 2 parse error, 3 certificate verification failure,
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
    BoxDomain,
    check_norm_description,
    check_partition,
    load_certificate,
    load_terms,
)
from .errors import BudgetExceededError, CellintError, ExprSyntaxError
from .expsums import (
    bound_check,
    decay_fit,
    dominance_warning,
    exp_sum,
    normalized_kloosterman,
    singular_series,
)
from .formula_dsl import format_expr, parse_expr, parse_poly
from .oracle import DEFAULT_BUDGET, riemann_integrate, stabilization_check
from .padic_core import PrimeContext
from .qexp_sum import integrate_explicit_tower
from .rootval import RootScaledValue


@dataclass
class RunConfig:
    """Merged run settings: flags win over the config file."""

    prime: int = 5
    budget: int = DEFAULT_BUDGET
    seed: int = 0
    out: str | None = None
    payload: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.budget <= 0:
            raise ValueError("budget must be positive")

    def get(self, key: str, default=None):
        value = self.payload.get(key, default)
        return default if value is None else value

    def require(self, key: str):
        value = self.payload.get(key)
        if value is None:
            raise CellintError(f"missing required setting '{key}'")
        return value

    @property
    def context(self) -> PrimeContext:
        return PrimeContext(self.prime)


def load_config(path: str) -> dict:
    """Flat key=value config; values are JSON where possible, raw strings otherwise."""
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, _, value = line.partition("=")
            value = value.strip()
            try:
                out[key.strip()] = json.loads(value)
            except json.JSONDecodeError:
                out[key.strip()] = value
    return out


def make_run_config(args) -> RunConfig:
    payload = dict(load_config(args.config)) if args.config else {}
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        payload[key.replace("_", "-")] = value
    return RunConfig(
        prime=int(payload.pop("prime", 5)),
        budget=int(payload.pop("budget", DEFAULT_BUDGET)),
        seed=int(payload.pop("seed", 0)),
        out=payload.pop("out", None),
        payload=payload)


def _poly_list(spec: str):
    return [parse_poly(part) for part in str(spec).split(";") if part.strip()]


def _rational_list(spec) -> list[Fraction]:
    return [Fraction(part.strip()) for part in str(spec).split(",") if part.strip()]


def _int_list(spec) -> list[int]:
    return [int(part) for part in str(spec).split(",") if part.strip()]


def _emit(payload: dict, run: RunConfig, csv_rows: list[str] | None = None):
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if run.out:
        with open(f"{run.out}.json", "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        if csv_rows is not None:
            with open(f"{run.out}.csv", "w", encoding="utf-8", newline="") as fh:
                fh.write("\n".join(csv_rows) + "\n")


# -- subcommand implementations ---------------------------------------------------


def _cmd_parse(run: RunConfig) -> int:
    expr = run.get("expr")
    if expr is None:
        print("parse: missing expression", file=sys.stderr)
        return 2
    print(format_expr(parse_expr(str(expr))))
    return 0


def _cmd_integrate(run: RunConfig) -> int:
    cert = load_certificate(run.require("certificate"))
    terms = load_terms(run.require("terms"))
    ctx = PrimeContext(cert.prime)
    report = check_partition(cert, int(run.get("check-level", 3)), ctx)
    if not report.ok:
        print(json.dumps({"certificate": report.summary(),
                          "violations": [[list(pt), cells] for pt, cells
                                         in report.violations[:20]]},
                         indent=2, sort_keys=True), file=sys.stderr)
        return 3
    value, integrable = integrate_explicit_tower(terms, cert, ctx)
    payload = {
        "closed_form": str(value),
        "real_value": value.real_value(),
        "integrable": integrable,
        "certificate": report.summary(),
    }
    expr = run.get("expr")
    if expr is not None:
        level = int(run.get("oracle-level", 6))
        domain = None if isinstance(cert.domain, BoxDomain) else cert.domain
        oracle = riemann_integrate(parse_expr(str(expr)), cert.domain.arity,
                                   level, ctx, domain=domain, budget=run.budget)
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
    cert = load_certificate(run.require("certificate"))
    ctx = PrimeContext(cert.prime)
    level = int(run.get("level", 4))
    report = check_partition(cert, level, ctx)
    payload = {
        "partition_ok": report.ok,
        "points_tested": report.points_tested,
        "ambiguous_points": report.ambiguous_points,
        "violations": [[list(pt), cells] for pt, cells in report.violations[:50]],
    }
    ok = report.ok
    functions = run.get("functions")
    if functions is not None and cert.descriptions:
        norm_report = check_norm_description(_poly_list(functions), cert, level, ctx)
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
    ctx = run.context
    expr = parse_expr(str(run.require("expr")))
    arity = int(run.get("arity", 1))
    levels = run.get("level", ctx.default_level)
    level_list = _int_list(levels) if isinstance(levels, str) else [int(levels)]
    rows = ["level,value,ambiguous"]
    values = []
    result = None
    for level in level_list:
        result = riemann_integrate(expr, arity, level, ctx, budget=run.budget)
        values.append(result.value)
        rows.append(f"{level},{result.real_value()!r},{result.ambiguous_count}")
    payload = {
        "value": str(result.value),
        "real_value": result.real_value(),
        "level": result.level,
        "ambiguous": result.ambiguous_count,
    }
    if len(values) >= 3:
        payload["stabilizing"] = stabilization_check(
            [v.as_exact_rational() if isinstance(v, RootScaledValue) else Fraction(v)
             for v in values], level_list, ctx)
    _emit(payload, run, rows)
    return 0


def _cmd_expsum(run: RunConfig) -> int:
    ctx = run.context
    fs = _poly_list(run.require("f"))
    grid = [_rational_list(part) for part in str(run.require("y")).split(";")
            if part.strip()]
    warning = dominance_warning(fs, ctx, seed=run.seed)
    rows = ["y,re,im,abs"]
    entries = []
    for y in grid:
        result = exp_sum(fs, y, ctx, budget=run.budget)
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
    if warning:
        payload["warning"] = warning
    _emit(payload, run, rows)
    return 0


def _cmd_kloosterman(run: RunConfig) -> int:
    ctx = run.context
    fs = _poly_list(run.require("f"))
    a = _int_list(run.require("a"))
    m = _int_list(run.require("m"))
    value = normalized_kloosterman(fs, a, m, ctx, budget=run.budget)
    payload = {"re": value.real, "im": value.imag, "abs": abs(value),
               "a": a, "m": m}
    rows = ["a,m,re,im,abs",
            f"\"{','.join(map(str, a))}\",\"{','.join(map(str, m))}\","
            f"{value.real!r},{value.imag!r},{abs(value)!r}"]
    _emit(payload, run, rows)
    return 0


def _cmd_singular(run: RunConfig) -> int:
    ctx = run.context
    fs = _poly_list(run.require("f"))
    zs = [_rational_list(part) for part in str(run.require("z")).split(";")
          if part.strip()]
    m_min = int(run.get("m-min", 1))
    m_max = int(run.get("m-max", 3))
    rows = ["z,m,F"]
    summary = []
    for z in zs:
        values = []
        for m in range(m_min, m_max + 1):
            value = singular_series(fs, z, m, ctx, budget=run.budget)
            values.append(value)
            rows.append(f"\"{','.join(str(v) for v in z)}\",{m},{value}")
        entry = {"z": [str(v) for v in z], "values": [str(v) for v in values],
                 "final": str(values[-1])}
        if len(values) >= 3:
            entry["stabilizing"] = stabilization_check(
                values, list(range(m_min, m_max + 1)), ctx)
        summary.append(entry)
    _emit({"series": summary}, run, rows)
    return 0


def _fit_payload(fit, p: int) -> dict:
    violations = sum(
        1 for m, v in fit.samples
        if v > fit.c_hat * min(p ** (m * fit.alpha_hat), 1.0) * (1 + 1e-9))
    return {
        "alpha_hat": fit.alpha_hat,
        "c_hat": fit.c_hat,
        "bound_ok": bound_check(fit),
        "violations": violations,
        "max_bound_violation": fit.max_bound_violation,
        "samples": fit.samples,
        "vanished": fit.vanished,
    }


def _cmd_decay(run: RunConfig) -> int:
    ctx = run.context
    fs = _poly_list(run.require("f"))
    m_min = int(run.get("m-min", 1))
    m_max = int(run.get("m-max", 4))
    dir_spec = run.get("direction")
    directions = [_rational_list(part) for part in str(dir_spec).split(";")
                  if part.strip()] if dir_spec is not None \
        else [[Fraction(1)] * len(fs)]
    warning = dominance_warning(fs, ctx, seed=run.seed)
    p = ctx.p
    multi = len(directions) > 1
    rows = ["direction,m,re,im,abs,logp_abs" if multi else "m,re,im,abs,logp_abs"]
    fits = []
    for direction in directions:
        fit = decay_fit(fs, direction, (m_min, m_max), ctx, budget=run.budget)
        fits.append((direction, fit))
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
        payload = _fit_payload(worst, p)
        payload["worst_direction"] = [str(u) for u in worst_dir]
        payload["per_direction"] = [
            {"direction": [str(u) for u in d], **_fit_payload(f, p)}
            for d, f in fits]
    else:
        payload = _fit_payload(fits[0][1], p)
    if warning:
        payload["warning"] = warning
    _emit(payload, run, rows)
    return 0


# -- driver ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellint",
        description="exact p-adic cell integration and exponential-sum workbench")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prime", type=int, default=None)
    common.add_argument("--budget", type=int, default=None)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--out", default=None)
    common.add_argument("--config", default=None)

    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", parents=[common], help="echo canonical form")
    sp.add_argument("expr", nargs="?", default=None)

    sp = sub.add_parser("integrate", parents=[common],
                        help="closed-form tower integral vs residue oracle")
    sp.add_argument("--certificate")
    sp.add_argument("--terms")
    sp.add_argument("--expr")
    sp.add_argument("--oracle-level", type=int, dest="oracle_level")
    sp.add_argument("--check-level", type=int, dest="check_level")

    sp = sub.add_parser("cells-check", parents=[common],
                        help="verify a decomposition certificate")
    sp.add_argument("--certificate")
    sp.add_argument("--level", type=int)
    sp.add_argument("--functions")

    sp = sub.add_parser("oracle", parents=[common], help="brute-force Riemann sum")
    sp.add_argument("--expr")
    sp.add_argument("--arity", type=int)
    sp.add_argument("--level")

    sp = sub.add_parser("expsum", parents=[common], help="exponential sum E(y)")
    sp.add_argument("--f")
    sp.add_argument("--y")

    sp = sub.add_parser("kloosterman", parents=[common],
                        help="normalized Kloosterman sum E(a, m)")
    sp.add_argument("--f")
    sp.add_argument("--a")
    sp.add_argument("--m")

    sp = sub.add_parser("singular", parents=[common], help="local singular series")
    sp.add_argument("--f")
    sp.add_argument("--z")
    sp.add_argument("--m-min", type=int, dest="m_min")
    sp.add_argument("--m-max", type=int, dest="m_max")

    sp = sub.add_parser("decay", parents=[common], help="decay-rate fit of |E|")
    sp.add_argument("--f")
    sp.add_argument("--direction")
    sp.add_argument("--m-min", type=int, dest="m_min")
    sp.add_argument("--m-max", type=int, dest="m_max")
    return parser


_COMMANDS = {
    "parse": _cmd_parse,
    "integrate": _cmd_integrate,
    "cells-check": _cmd_cells_check,
    "oracle": _cmd_oracle,
    "expsum": _cmd_expsum,
    "kloosterman": _cmd_kloosterman,
    "singular": _cmd_singular,
    "decay": _cmd_decay,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        run = make_run_config(args)
        return _COMMANDS[args.command](run)
    except ExprSyntaxError as ex:
        print(f"parse error: {ex}", file=sys.stderr)
        return 2
    except BudgetExceededError as ex:
        print(f"budget exceeded: {ex}", file=sys.stderr)
        return 4
    except CellintError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1


def entry():  # console-script target
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
