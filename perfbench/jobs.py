"""Seeded job lists for the four benchmark workloads.

A job is a plain JSON-serialisable dict, so the same seed always gives a
byte-identical list (see ``jobs_digest``).  The slot schedule of each list
(which prime, level, arity and job family sits at which position) is fixed;
the seed only draws the polynomials, coefficients and coset data.  That
keeps the amount of enumeration nearly constant from seed to seed while the
inputs themselves vary.

Every job carries ``classes``: the residue classes its enumeration decides,
sum of p^(m*n) over the levels it needs.  Closed-form jobs decide none.

No job in a workload raises at the commit the references were recorded on:
the inputs that hit a known defect (see ``checks.KNOWN_FAILURES``) are kept
out of the measured lists and run instead as the fixed ``DEFECT_JOBS``.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

WORKLOADS = ("oracle_box", "cells_cert", "expsum", "closed_form")

# jobs per pass; each list has at least 100 so the p90 has 10 samples beyond it
JOB_COUNTS = {"oracle_box": 180, "cells_cert": 105, "expsum": 200, "closed_form": 3000}


def make_jobs(workload: str, seed: int) -> list[dict]:
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    return _numbered(_GENERATORS[workload](rng, JOB_COUNTS[workload]))


def _numbered(jobs: list[dict]) -> list[dict]:
    for i, job in enumerate(jobs):
        job["id"] = i
        if "argv" in job:  # values may start with '-', so pass each as --name=value
            cmd, *opts = job["argv"]
            job["argv"] = [cmd] + [f"{k}={v}" for k, v in zip(opts[::2], opts[1::2])]
    return jobs


def jobs_digest(jobs: list[dict]) -> str:
    text = json.dumps(jobs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- polynomial and expression text ---------------------------------------------


def _term(coeff: int, exps: tuple[int, ...]) -> tuple[int, str]:
    factors = [f"x{i + 1}" + (f"^{k}" if k > 1 else "") for i, k in enumerate(exps) if k]
    mag = abs(coeff)
    body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
    return (1 if coeff > 0 else -1), body


def poly_text(terms: list[tuple[int, tuple[int, ...]]]) -> str:
    """DSL text of sum(coeff * x^exps); terms must have distinct exponents."""
    out = ""
    for coeff, exps in terms:
        sign, body = _term(coeff, exps)
        if not out:
            out = body if sign > 0 else f"-{body}"
        else:
            out += f" + {body}" if sign > 0 else f" - {body}"
    return out


def _coeff(rng: random.Random, lo: int = 1, hi: int = 9) -> int:
    return rng.randint(lo, hi) * rng.choice((1, -1))


def _random_exps(rng: random.Random, nvars: int, max_deg: int = 3) -> tuple[int, ...]:
    exps = [0] * nvars
    for _ in range(rng.randint(1, max_deg)):
        exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def generic_poly(rng: random.Random, nvars: int, nterms: int, constant: bool) -> str:
    """Random integer polynomial of degree <= 3 using every variable."""
    seen: dict[tuple[int, ...], int] = {}
    for var in range(nvars):  # make sure each variable appears
        exps = [0] * nvars
        exps[var] = rng.randint(1, 3)
        seen[tuple(exps)] = _coeff(rng)
    while len(seen) < nterms:
        seen.setdefault(_random_exps(rng, nvars), _coeff(rng))
    terms = list(seen.items())
    rng.shuffle(terms)
    out = [(c, e) for e, c in terms]
    if constant:
        out.append((_coeff(rng), (0,) * nvars))
    return poly_text(out)


def monomial_poly(rng: random.Random, nvars: int) -> str:
    """A single monomial: few distinct valuations, so few value keys."""
    exps = tuple(rng.randint(1, 2) if nvars == 1 or rng.random() < 0.7 else 0
                 for _ in range(nvars))
    if not any(exps):
        exps = (1,) + exps[1:]
    return poly_text([(rng.choice((1, 2, 3, 6)), exps)])


def singular_poly(rng: random.Random, nvars: int) -> str:
    """Carriers with a singular zero locus, like x1^2 - x2^3."""
    a, b = rng.choice(((2, 3), (3, 2), (2, 5), (3, 4)))
    c = rng.choice((1, 2, 3))
    if nvars == 1:
        root = rng.randint(1, 6)
        return f"(x1 - {root})^{a}*x1"
    return poly_text([(1, (a, 0)), (-c, (0, b))])


# -- oracle_box -------------------------------------------------------------------

# (p, n, m): library riemann_integrate sizes, p^(m*n) from 243 to 2401
_ORACLE_SIZES = ((2, 1, 9), (3, 1, 6), (5, 1, 4), (7, 1, 3), (2, 2, 5), (3, 2, 3),
                 (5, 2, 2), (7, 2, 2), (2, 1, 10), (3, 1, 5), (7, 1, 4), (2, 2, 4))
# (p, n, m): CLI oracle --level m-2,m-1,m sizes
_ORACLE_CLI_SIZES = ((2, 1, 9), (3, 1, 6), (5, 1, 4), (7, 1, 3), (2, 2, 5), (3, 2, 3))
_FRACTIONS = ((1, 2), (1, 3), (2, 3), (3, 2), (-1, 2), (-1, 3))
# integrand templates without norm^{a/n}: CLI oracle --level needs rational values
_RATIONAL_TEMPLATES = (0, 1, 3, 4, 6)
_SCALARS = ("2", "3", "1/2", "3/2", "5/4")


def _carrier(rng: random.Random, nvars: int, kind: int) -> str:
    if kind == 0:
        return monomial_poly(rng, nvars)
    if kind == 1:
        return singular_poly(rng, nvars)
    return generic_poly(rng, nvars, rng.randint(nvars, 3), constant=rng.random() < 0.6)


def _integrand(rng: random.Random, nvars: int, template: int, kind: int) -> str:
    f = _carrier(rng, nvars, kind)
    g = _carrier(rng, nvars, (kind + 1) % 3)
    a, k = rng.choice(_FRACTIONS)
    s = rng.choice(_SCALARS)
    return (
        f"norm({f})",
        f"val({f})",
        f"norm({f})^{{{a}/{k}}}",
        f"{s}*norm({f}) + val({g})",
        f"norm({f})*val({g})",
        f"{s}*norm({f})^{{{a}/{k}}} + norm({g})",
        f"val({f})^2 + {s}",
    )[template]


def _oracle_box(rng: random.Random, count: int) -> list[dict]:
    jobs = []
    for i in range(count):
        template, kind = i % 7, i % 3
        if i % 4 == 3:
            template = _RATIONAL_TEMPLATES[(i // 4) % len(_RATIONAL_TEMPLATES)]
            p, n, m = _ORACLE_CLI_SIZES[(i // 4) % len(_ORACLE_CLI_SIZES)]
            levels = [m - 2, m - 1, m]
            expr = _integrand(rng, n, template, kind)
            jobs.append({
                "kind": "cli_oracle", "p": p, "n": n, "levels": levels, "expr": expr,
                "classes": sum(p ** (lv * n) for lv in levels),
                "argv": ["oracle", "--expr", expr, "--arity", str(n),
                         "--level", ",".join(map(str, levels)), "--prime", str(p)]})
        else:
            p, n, m = _ORACLE_SIZES[i % len(_ORACLE_SIZES)]
            jobs.append({"kind": "lib_riemann", "p": p, "n": n, "m": m,
                         "expr": _integrand(rng, n, template, kind),
                         "classes": p ** (m * n)})
    return jobs


# -- cells_cert ---------------------------------------------------------------------

def _hensel_level(n: int, p: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return 2 * e + 3 if p == 2 else 2 * e + 1


def coset_reps(n: int, p: int) -> list[int]:
    """Representatives p^j * u of Q_p^x / P_n in the order coset_representatives(n)
    lists them, recomputed here so that a job list never changes with cellint."""
    m = _hensel_level(n, p)
    pm = p**m
    powers = {pow(u, n, pm) for u in range(1, pm) if u % p}
    units: list[int] = []
    for u in range(1, pm):
        if u % p and all((u * pow(r, -1, pm)) % pm not in powers for r in units):
            units.append(u)
    return [u * p**j for j in range(n) for u in units]


def _level(center: str, lam, n: int, upper=("1", False), lower=None) -> dict:
    out: dict = {"center": center, "coset": {"lambda": str(lam), "n": n}}
    if upper is not None:
        out["upper"] = {"expr": upper[0], "strict": upper[1]}
    if lower is not None:
        out["lower"] = {"expr": lower[0], "strict": lower[1]}
    return out


def _punctured(centers: list[str]) -> dict:
    """Z_p minus a point at every level: |t - c| <= 1, t - c in 1*P_1."""
    return {"kind": "tower", "levels": [_level(c, 1, 1) for c in centers]}


def _product_cells(centers: list[str], orders: list[int], p: int) -> list[dict]:
    cells: list[dict] = [{"levels": []}]
    for center, n in zip(centers, orders):
        cells = [{"levels": c["levels"] + [_level(center, lam, n)]}
                 for c in cells for lam in coset_reps(n, p)]
    return cells


def _break(rng: random.Random, cert: dict, drop: bool):
    """Drop or duplicate a cell that holds points of valuation 0 at every level,
    so that the check sees the hole or the overlap at any level."""
    cells = cert["cells"]
    shallow = [i for i, cell in enumerate(cells)
               if all(Fraction(lv["coset"]["lambda"]).numerator % cert["prime"]
                      and lv.get("upper", {}).get("expr") == "1" for lv in cell["levels"])]
    idx = rng.choice(shallow)
    if drop and len(cells) > 1:
        del cells[idx]
    else:
        cells.insert(idx, json.loads(json.dumps(cells[idx])))


# (p, n, level) for one-level coset partitions: p^m from 64 to 343
_COSET_SIZES = ((2, 2, 6), (3, 2, 4), (5, 2, 3), (7, 2, 3), (2, 3, 6), (3, 3, 4),
                (5, 3, 3), (7, 3, 2), (2, 4, 5), (3, 4, 3), (5, 4, 2), (7, 4, 2))
# (p, level, shells) for annulus partitions
_ANNULI_SIZES = ((2, 7, 4), (3, 5, 3), (5, 3, 2), (7, 3, 2))
# (p, orders, level) for two-level towers; p^(2m) from 64 to 625
_TWO_LEVEL_SIZES = ((2, (1, 2), 3), (3, (2, 1), 2), (5, (1, 1), 2), (3, (1, 3), 2),
                    (2, (2, 1), 3), (3, (2, 2), 2), (2, (1, 1), 4), (3, (1, 2), 2))
# (p, n, oracle level, check level) for one-level integrate jobs
_INTEGRATE1_SIZES = ((2, 2, 7, 5), (3, 2, 5, 3), (5, 2, 4, 2), (7, 2, 3, 2),
                     (3, 3, 5, 3), (5, 3, 3, 2))
# (p, orders, oracle level, check level) for two-level integrate jobs
_INTEGRATE2_SIZES = ((2, (1, 2), 4, 3), (3, (2, 1), 2, 2), (2, (1, 1), 4, 3),
                     (3, (1, 1), 3, 2), (2, (2, 1), 3, 3))


def _center(rng: random.Random, p: int) -> str:
    return str(rng.randrange(p * p))


def _cells_check_job(p, m, cert, functions, broken) -> dict:
    arity = len(cert["cells"][0]["levels"])
    ndesc = len(cert.get("descriptions", ())) if functions else 0
    job = {"kind": "cli_cells_check", "p": p, "n": arity, "m": m,
           "classes": p ** (m * arity) * (1 + (ndesc if not broken else 0)),
           "expect_exit": 3 if broken else 0,
           "files": {"cert": cert},
           "argv": ["cells-check", "--certificate", "{cert}", "--level", str(m)]}
    if functions:
        job["argv"] += ["--functions", functions]
    return job


def _coset_partition(rng: random.Random, slot: int) -> tuple[int, int, dict, str]:
    p, n, m = _COSET_SIZES[slot % len(_COSET_SIZES)]
    c = _center(rng, p)
    reps = coset_reps(n, p)
    cert = {"prime": p, "domain": _punctured([c]),
            "cells": [{"levels": [_level(c, lam, n)]} for lam in reps]}
    # |u*(t-c)^k| = |delta| * |(t-c)^(kn) lam^(-kn)|^(1/n) with delta = u*lam^k
    k, u = rng.randint(1, 2), rng.choice((1, 2, 3, 4, 6))
    functions = f"{u}*(x1 - {c})^{k}"
    picks = rng.sample(range(len(reps)), min(3, len(reps)))
    cert["descriptions"] = [{"cell": i, "function": 0, "delta": str(u * reps[i] ** k),
                             "a": k * n} for i in sorted(picks)]
    return p, m, cert, functions


def _annuli(rng: random.Random, slot: int) -> tuple[int, int, dict]:
    p, m, shells = _ANNULI_SIZES[slot % len(_ANNULI_SIZES)]
    c = _center(rng, p)
    cells = [{"levels": [_level(c, 1, 1, upper=(str(p**j), False),
                                lower=(str(p ** (j + 1)), True))]}
             for j in range(shells)]
    cells.append({"levels": [_level(c, 1, 1, upper=(str(p**shells), False))]})
    rng.shuffle(cells)
    return p, m, {"prime": p, "domain": _punctured([c]), "cells": cells}


def _two_level(rng: random.Random, slot: int) -> tuple[int, int, dict]:
    p, orders, m = _TWO_LEVEL_SIZES[slot % len(_TWO_LEVEL_SIZES)]
    centers = [_center(rng, p), generic_poly(rng, 1, rng.randint(1, 2), constant=True)]
    return p, m, {"prime": p, "domain": _punctured(centers),
                  "cells": _product_cells(centers, list(orders), p)}


def _integrate_job(rng: random.Random, slot: int, two_level: bool, broken: bool) -> dict:
    """Certificate, matching cell terms and the DSL integrand they encode.

    The integrand w * prod |t_i - c_i|^s_i v(t_i - c_i)^l_i becomes, on a cell
    with cosets lam_i * P_n_i, the term with a_i = s_i * n_i and coefficient
    w * prod |lam_i|^s_i, which is rational because s_i is an integer.
    """
    if two_level:
        p, orders, level, check = _INTEGRATE2_SIZES[slot % len(_INTEGRATE2_SIZES)]
    else:
        p, n1, level, check = _INTEGRATE1_SIZES[slot % len(_INTEGRATE1_SIZES)]
        orders = (n1,)
    centers = [_center(rng, p) for _ in orders]
    cells = _product_cells(centers, list(orders), p)
    cert = {"prime": p, "domain": _punctured(centers), "cells": cells}
    shape = [(rng.randint(0, 2), rng.randint(0, 2)) for _ in orders]
    weight = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    terms = []
    for idx, cell in enumerate(cells):
        coeff = weight
        levels = []
        for lv, (s, l), n in zip(cell["levels"], shape, orders):
            lam = Fraction(lv["coset"]["lambda"])
            vlam = 0
            while lam.numerator % p ** (vlam + 1) == 0:
                vlam += 1
            coeff *= Fraction(1, p ** (s * vlam))
            levels.append({"a": s * n, "l": l})
        terms.append({"cell": idx, "coeff": str(coeff), "levels": levels})
    factors = [str(weight)]
    for i, ((s, l), c) in enumerate(zip(shape, centers)):
        diff = f"x{i + 1} - {c}"
        if s:
            factors.append(f"norm({diff})" + (f"^{s}" if s > 1 else ""))
        if l:
            factors.append(f"val({diff})" + (f"^{l}" if l > 1 else ""))
    expr = "*".join(factors)
    if broken:
        _break(rng, cert, drop=slot % 2 == 0)
    arity = len(orders)
    return {"kind": "cli_integrate", "p": p, "n": arity, "m": level,
            "classes": p ** (check * arity) + (0 if broken else p ** (level * arity)),
            "expect_exit": 3 if broken else 0,
            "files": {"cert": cert, "terms": {"terms": terms}},
            "argv": ["integrate", "--certificate", "{cert}", "--terms", "{terms}",
                     "--expr", expr, "--oracle-level", str(level),
                     "--check-level", str(check)]}


def _cells_cert(rng: random.Random, count: int) -> list[dict]:
    jobs = []
    for i in range(count):
        family, slot, broken = i % 5, i // 5, i % 7 == 3
        if family == 0:
            p, m, cert, functions = _coset_partition(rng, slot)
            if broken:
                _break(rng, cert, drop=slot % 2 == 0)
                cert["descriptions"] = []
            jobs.append(_cells_check_job(p, m, cert, functions, broken))
        elif family in (1, 2):
            p, m, cert = (_annuli if family == 1 else _two_level)(rng, slot)
            if broken:
                _break(rng, cert, drop=slot % 2 == 0)
            jobs.append(_cells_check_job(p, m, cert, None, broken))
        else:
            jobs.append(_integrate_job(rng, slot, family == 4, broken))
        jobs[-1]["family"] = ("coset_partition", "annuli", "two_level",
                              "integrate_one_level", "integrate_two_level")[family]
    return jobs


# -- expsum -------------------------------------------------------------------------

_EXPSUM_PRIMES = (3, 5, 7)


def _nondegenerate_poly(rng: random.Random, nvars: int) -> str:
    """Unit c_i x_i^2 in every variable plus a cubic term: |E| never vanishes
    identically (p is odd, so the quadratic part is nondegenerate)."""
    terms = [(rng.choice((1, 2, 4)), tuple(2 if j == i else 0 for j in range(nvars)))
             for i in range(nvars)]
    cubic = (3,) if nvars == 1 else rng.choice(((3, 0), (2, 1), (1, 2), (0, 3)))
    terms.append((_coeff(rng), cubic))
    return poly_text(terms)


def _unit(rng: random.Random, p: int) -> int:
    while True:
        u = rng.randint(1, p * p)
        if u % p:
            return u


def _grid_entry(rng: random.Random, p: int, m: int, r: int) -> str:
    # the first component pins v(y) = -m; the others are p-integral or finer
    parts = [f"{_unit(rng, p)}/{p**m}"]
    for _ in range(r - 1):
        parts.append(f"{rng.randrange(p**m)}/{p**m}")
    return ",".join(parts)


# (n, m) per prime for one exp_sum call: p^(m*n) roughly 300 to 2500
_EXPSUM_LEVEL = {(3, 1): 7, (5, 1): 5, (7, 1): 4, (3, 2): 3, (5, 2): 2, (7, 2): 2}
# m_max for a decay fit along one direction
_DECAY_MMAX = {(3, 1): 7, (5, 1): 5, (7, 1): 4, (3, 2): 4, (5, 2): 2, (7, 2): 2}


def _expsum(rng: random.Random, count: int) -> list[dict]:
    jobs = []
    for i in range(count):
        family = i % 6
        p = _EXPSUM_PRIMES[(i // 6) % 3]
        n = 1 + (i // 18) % 2
        shape = (n + (i // 72) % 2, (i // 144) % 2 == 0)  # terms, constant term
        if family == 0:  # expsum over a grid of two y's, r = 1 or 2
            r = 1 + (i // 36) % 2 if n == 2 else 1
            fs = ";".join(generic_poly(rng, n, *shape)
                          for _ in range(r))
            m = _EXPSUM_LEVEL[(p, n)]
            grid = ";".join(_grid_entry(rng, p, mm, r) for mm in (m - 1, m))
            jobs.append({"kind": "cli_expsum", "family": "expsum", "p": p, "n": n,
                         "classes": p ** ((m - 1) * n) + p ** (m * n),
                         "argv": ["expsum", "--f", fs, "--y", grid, "--prime", str(p)]})
        elif family in (1, 2):  # decay along one direction, or three
            f = _nondegenerate_poly(rng, n)
            mmax = max(2, _DECAY_MMAX[(p, n)] - (family - 1))
            argv = ["decay", "--f", f, "--m-min", "1", "--m-max", str(mmax),
                    "--prime", str(p)]
            ndir = 1 if family == 1 else 3
            if ndir > 1:
                dirs = sorted(rng.sample([u for u in range(1, p * p) if u % p], ndir))
                argv += ["--direction", ";".join(map(str, dirs))]
            jobs.append({"kind": "cli_decay", "family": "decay" if ndir == 1 else
                         "decay_multi", "p": p, "n": n, "directions": ndir,
                         "classes": ndir * sum(p ** (m * n) for m in range(1, mmax + 1)),
                         "argv": argv})
        elif family == 3:  # Kloosterman-type sum at a_i p^(-m_i)
            r = 1 + (i // 36) % 2 if n == 2 else 1
            fs = [generic_poly(rng, n, *shape)
                  for _ in range(r)]
            m = _EXPSUM_LEVEL[(p, n)]
            ms = [m] + [rng.randint(1, m) for _ in range(r - 1)]
            jobs.append({"kind": "cli_kloosterman", "family": "kloosterman", "p": p,
                         "n": n, "classes": p ** (m * n),
                         "argv": ["kloosterman", "--f", ";".join(fs),
                                  "--a", ",".join(str(_unit(rng, p)) for _ in range(r)),
                                  "--m", ",".join(map(str, ms)), "--prime", str(p)]})
        elif family == 4:  # local singular series F_m(z) for a few z
            f = generic_poly(rng, n, *shape)
            mmax = _EXPSUM_LEVEL[(p, n)] - 1
            zs = sorted(rng.sample(range(p * p), 2))
            jobs.append({"kind": "cli_singular", "family": "singular", "p": p, "n": n,
                         "classes": len(zs) * sum(p ** (m * n) for m in range(1, mmax + 1)),
                         "argv": ["singular", "--f", f, "--z", ";".join(map(str, zs)),
                                  "--m-min", "1", "--m-max", str(mmax),
                                  "--prime", str(p)]})
        else:  # library fourier_check: exp_sum plus the histogram side
            r = 1 + (i // 36) % 2 if n == 2 else 1
            fs = [generic_poly(rng, n, *shape)
                  for _ in range(r)]
            m = _EXPSUM_LEVEL[(p, n)]
            jobs.append({"kind": "lib_fourier", "family": "fourier", "p": p, "n": n,
                         "fs": fs, "y": _grid_entry(rng, p, m, r).split(","),
                         "classes": 2 * p ** (m * n)})
    return jobs


# -- closed_form --------------------------------------------------------------------

# coset orders per prime; the multiples of p push the Hensel level M above 1,
# capped so that p^M <= 16807
_ORDERS = {2: (1, 2, 3, 4, 6, 8, 16), 3: (1, 2, 3, 4, 6, 9, 27),
           5: (1, 2, 3, 4, 5, 10, 25), 7: (1, 2, 3, 6, 7, 14, 49)}


def _explicit_level(rng: random.Random, p: int, n: int, need_upper: bool) -> dict:
    if rng.random() < 0.05:
        return _level(str(rng.randrange(p)), 0, 1, upper=None)
    lam = Fraction(_unit(rng, p) * p ** rng.randint(0, 2), p ** rng.choice((0, 0, 1)))
    b = rng.randint(-1, 2)
    upper = (str(Fraction(p) ** b), rng.random() < 0.5)
    if not need_upper and rng.random() < 0.15:
        upper = None
    lower = None
    if rng.random() < 0.4:
        lower = (str(Fraction(p) ** (b + rng.randint(1, 4))), rng.random() < 0.5)
    return _level(str(rng.randrange(p * p)), lam, n, upper=upper, lower=lower)


def _explicit_cert(rng: random.Random, p: int, slot: int, ncells: int,
                   need_upper: bool) -> dict:
    """Depth, cell count and coset orders follow the slot; the seed fills in the rest."""
    depth = 1 + slot % 3
    orders = _ORDERS[p]
    cells = [{"levels": [_explicit_level(rng, p, orders[(slot + 2 * j + 3 * c) % len(orders)],
                                         need_upper) for j in range(depth)]}
             for c in range(ncells)]
    return {"prime": p, "domain": {"kind": "box", "arity": depth}, "cells": cells}


def _closed_form(rng: random.Random, count: int) -> list[dict]:
    jobs = []
    for i in range(count):
        family, p, slot = i % 4, (2, 3, 5, 7)[(i // 4) % 4], i // 16
        if family in (0, 1):
            cert = _explicit_cert(rng, p, slot + family, 1 + (slot // 3) % 3, need_upper=False)
            terms = []
            for idx, cell in enumerate(cert["cells"]):
                levels = []
                for lv in cell["levels"]:
                    n = lv["coset"]["n"]
                    a = 0 if lv["coset"]["lambda"] == "0" else rng.randint(-n - 1, 2 * n)
                    levels.append({"a": a, "l": rng.randint(0, 4)})
                terms.append({"cell": idx, "coeff": str(Fraction(_coeff(rng),
                                                                 rng.randint(1, 6))),
                              "levels": levels})
            jobs.append({"kind": "lib_tower_integral", "family": "tower_integral",
                         "p": p, "cert": cert, "terms": {"terms": terms}, "classes": 0})
        elif family == 2:
            cert = _explicit_cert(rng, p, slot, 1, need_upper=True)
            jobs.append({"kind": "lib_tower_measure", "family": "tower_measure",
                         "p": p, "tower": cert["cells"][0], "classes": 0})
        else:
            terms = []
            for _ in range(1 + slot % 3):
                factors = []
                for _ in range(1 + (slot // 3) % 2):
                    # finite, unbounded above or unbounded below (all of Z is in
                    # DEFECT_JOBS)
                    n, start = rng.randint(1, 3), rng.randint(-3, 3)
                    shape = rng.randrange(3)
                    lo = None if shape == 2 else start
                    hi = None if shape == 1 else start + rng.randint(0, 12)
                    factors.append({"l": rng.randint(0, 4), "c": rng.randint(-3, 4),
                                    "modulus": n, "residue": rng.randrange(n),
                                    "lo": lo, "hi": hi})
                terms.append({"coeff": str(Fraction(_coeff(rng), rng.randint(1, 6))),
                              "factors": factors})
            jobs.append({"kind": "lib_mixed_sum", "family": "mixed_sum", "p": p,
                         "terms": terms, "classes": 0})
    return jobs


# -- known defects ------------------------------------------------------------------

def _defect_oracle(expr: str, n: int, levels: list[int], p: int) -> dict:
    return {"kind": "cli_oracle", "p": p, "n": n, "levels": levels, "expr": expr,
            "classes": sum(p ** (lv * n) for lv in levels),
            "argv": ["oracle", "--expr", expr, "--arity", str(n),
                     "--level", ",".join(map(str, levels)), "--prime", str(p)]}


def _defect_mixed_sum(c: int, p: int) -> dict:
    return {"kind": "lib_mixed_sum", "p": p, "classes": 0, "terms": [
        {"coeff": "1", "factors": [{"l": 1, "c": c, "modulus": 1, "residue": 0,
                                    "lo": None, "hi": None}]}]}


# Inputs that raise at the recorded commit, one family per entry of
# checks.KNOWN_FAILURES.  They are run once per measuring run, untimed, so
# that the report shows whether each defect is still there.
DEFECT_JOBS = {
    "oracle_box": [_defect_oracle("norm(x1)^{1/2}", 1, [4, 5, 6], 3),
                   _defect_oracle("norm(x1^2 - 2*x2^3)^{1/3}", 2, [1, 2, 3], 3)],
    "closed_form": [_defect_mixed_sum(2, 3), _defect_mixed_sum(1, 7)],
}


def defect_jobs(workload: str) -> list[dict]:
    return _numbered(json.loads(json.dumps(DEFECT_JOBS.get(workload, []))))


_GENERATORS = {
    "oracle_box": _oracle_box,
    "cells_cert": _cells_cert,
    "expsum": _expsum,
    "closed_form": _closed_form,
}
