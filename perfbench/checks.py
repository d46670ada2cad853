"""Output checks: reference outputs, invariants and known failures.

Every job outcome is normalised to a small JSON-able dict.  For the seeds in
``REFERENCE_SEEDS`` the dict is compared with the reference recorded in
``reference/``: exact fields (value strings, counts, flags) bit for bit,
floats within ``FLOAT_TOL`` absolute.  For every seed the invariants below
hold.  A job that raises is a failure; it is a *known* failure when it
matches one of ``KNOWN_FAILURES`` (a defect present at the recorded commit).
The measured job lists hold no such input; ``jobs.DEFECT_JOBS`` does.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEEDS = (0, 97)  # the default seed and one held-out seed
FLOAT_TOL = 1e-12
FOURIER_TOL = 1e-9

# (job kind, exception type, message fragment, cause)
KNOWN_FAILURES = (
    ("cli_oracle", "ValueError", "is not rational",
     "oracle --level a,b,c on an integrand whose value lies in Q[p^(1/N)] but "
     "not in Q: stabilization_check calls as_exact_rational on it (ROADMAP item 5)"),
    ("lib_mixed_sum", "ValueError", "range unbounded below",
     "mixed_sum over a lattice range with no bound at all and c > 0: "
     "progression_power_sum calls KRange.first() instead of reporting divergence in-band"),
)


def known_failure(kind: str, error: str) -> str | None:
    """The cause of a documented failure, or None for an unexpected one."""
    for k, exc, fragment, cause in KNOWN_FAILURES:
        if kind == k and error.startswith(exc + ":") and fragment in error:
            return cause
    return None


# -- normalisation ------------------------------------------------------------------


def _cli_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def normalize(job: dict, raw) -> dict:
    """Reduce a raw job result to the fields the checks compare."""
    kind = job["kind"]
    if kind.startswith("cli_"):
        code, out, err = raw
        doc = _cli_json(out) if code in (0, 3) else None
        if kind == "cli_integrate" and code == 3:
            doc = _cli_json(err)
        base = {"exit": code}
        if doc is None:
            return base
        return {**base, **_CLI_FIELDS[kind](doc)}
    return _LIB_FIELDS[kind](raw)


def _oracle_fields(doc: dict) -> dict:
    out = {k: doc[k] for k in ("value", "real_value", "level", "ambiguous")}
    if "stabilizing" in doc:
        out["stabilizing"] = doc["stabilizing"]
    return out


def _cells_fields(doc: dict) -> dict:
    out = {"partition_ok": doc["partition_ok"], "points_tested": doc["points_tested"],
           "ambiguous_points": doc["ambiguous_points"],
           "violations": len(doc["violations"])}
    if "norms_ok" in doc:
        out.update(norms_ok=doc["norms_ok"], norm_points_checked=doc["norm_points_checked"],
                   norm_mismatches=len(doc["norm_mismatches"]))
    return out


def _integrate_fields(doc: dict) -> dict:
    if "closed_form" not in doc:  # exit 3: certificate summary on stderr
        return {"certificate": doc["certificate"], "violations": len(doc["violations"])}
    keys = ("closed_form", "real_value", "integrable", "certificate", "oracle_exact",
            "oracle_value", "oracle_level", "oracle_ambiguous", "abs_diff")
    return {k: doc[k] for k in keys}


def _expsum_fields(doc: dict) -> dict:
    entries = doc["results"] if "results" in doc else [doc]
    return {"values": [[e["re"], e["im"], e["abs"], e["level"]] for e in entries]}


def _decay_fields(doc: dict) -> dict:
    out = {k: doc[k] for k in ("alpha_hat", "c_hat", "bound_ok", "violations",
                               "samples", "vanished")}
    if "per_direction" in doc:
        out["worst_direction"] = doc["worst_direction"]
        out["per_direction"] = [[d["direction"], d["alpha_hat"], d["c_hat"]]
                                for d in doc["per_direction"]]
    return out


_CLI_FIELDS = {
    "cli_oracle": _oracle_fields,
    "cli_cells_check": _cells_fields,
    "cli_integrate": _integrate_fields,
    "cli_expsum": _expsum_fields,
    "cli_decay": _decay_fields,
    "cli_kloosterman": lambda d: {"values": [d["re"], d["im"], d["abs"]]},
    "cli_singular": lambda d: {"series": [[s["values"], s.get("stabilizing")]
                                          for s in d["series"]]},
}


def _complex(z: complex) -> list[float]:
    return [z.real, z.imag]


_LIB_FIELDS = {
    "lib_riemann": lambda r: {"value": str(r.value), "real_value": r.real_value(),
                              "level": r.level, "ambiguous": r.ambiguous_count},
    "lib_fourier": lambda r: {"lhs": _complex(r[0]), "rhs": _complex(r[1]), "diff": r[2]},
    "lib_tower_integral": lambda r: {"value": str(r[0]), "integrable": r[1],
                                     "real_value": r[0].real_value()},
    "lib_tower_measure": lambda r: {"value": str(r)},
    "lib_mixed_sum": lambda r: {"value": str(r[0]), "integrable": r[1]},
}


# -- exact value strings ------------------------------------------------------------

_MONOMIAL = re.compile(r"^(-?\d+(?:/\d+)?)\*(\d+)\^\(-(\d+(?:/\d+)?)\)$")


def exact_to_float(text: str) -> float:
    """Float of a printed Fraction or RootScaledValue (sum of c*p^(-f) parts)."""
    total = 0.0
    for part in text.split(" + "):
        match = _MONOMIAL.match(part)
        if match:
            c, p, f = match.groups()
            total += float(Fraction(c)) * float(p) ** -float(Fraction(f))
        else:
            total += float(Fraction(part))
    return total


# -- invariants ----------------------------------------------------------------------


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def invariant_errors(job: dict, out: dict) -> list[str]:
    """Properties every correct output has, whatever the seed."""
    kind, errs = job["kind"], []

    def need(cond: bool, what: str):
        if not cond:
            errs.append(what)

    if kind.startswith("cli_"):
        need(out["exit"] == job.get("expect_exit", 0),
             f"exit {out['exit']}, expected {job.get('expect_exit', 0)}")
        if len(out) == 1:
            need(out["exit"] not in (0, 3), "no JSON output")
            return errs
    if kind in ("cli_oracle", "lib_riemann"):
        level = job["levels"][-1] if kind == "cli_oracle" else job["m"]
        need(out["level"] == level, "wrong level")
        need(0 <= out["ambiguous"] <= job["p"] ** (level * job["n"]),
             "ambiguous_count exceeds the classes")
        need(out["real_value"] >= 0, "negative integral of a nonnegative integrand")
        need(_close(exact_to_float(out["value"]), out["real_value"]),
             "real_value disagrees with the exact value")
    elif kind == "cli_cells_check":
        valid = job["expect_exit"] == 0
        need(out["partition_ok"] == valid, "partition verdict wrong")
        need((out["violations"] == 0) == valid, "violation count wrong")
        need(0 <= out["ambiguous_points"] <= out["points_tested"]
             <= job["p"] ** (job["m"] * job["n"]), "point counts out of range")
        if "norms_ok" in out:
            need(out["norms_ok"] and out["norm_mismatches"] == 0, "norm description failed")
    elif kind == "cli_integrate":
        if job["expect_exit"] == 3:
            need(out["violations"] > 0, "broken certificate passed")
        else:
            need(0 <= out["oracle_ambiguous"] <= job["p"] ** (job["m"] * job["n"]),
                 "oracle ambiguous count exceeds the classes")
            need(_close(exact_to_float(out["closed_form"]), out["real_value"]),
                 "real_value disagrees with the closed form")
            need(_close(abs(out["real_value"] - out["oracle_value"]), out["abs_diff"]),
                 "abs_diff inconsistent")
    elif kind in ("cli_expsum", "cli_kloosterman"):
        rows = out["values"] if kind == "cli_expsum" else [out["values"]]
        need(all(row[2] <= 1 + FLOAT_TOL for row in rows), "|E| > 1")
    elif kind == "cli_decay":
        need(out["bound_ok"] == (out["violations"] == 0), "bound verdict inconsistent")
        need(all(v <= 1 + FLOAT_TOL for _, v in out["samples"]), "|E| > 1")
    elif kind == "cli_singular":
        need(all(Fraction(v) >= 0 for values, _ in out["series"] for v in values),
             "negative singular series value")
    elif kind == "lib_fourier":
        need(math.hypot(*out["lhs"]) <= 1 + FLOAT_TOL, "|E| > 1")
        need(out["diff"] <= FOURIER_TOL, "Fourier identity off")
    elif kind in ("lib_tower_integral", "lib_mixed_sum"):
        need(out["integrable"] or out["value"] == "0", "divergent value not 0")
    elif kind == "lib_tower_measure":
        need(Fraction(out["value"]) >= 0, "negative measure")
    return errs


# -- reference comparison ---------------------------------------------------------------


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-seed{seed}.json"


def load_reference(workload: str, seed: int, digest: str) -> list | None:
    """Reference outcomes for this seed, or None when none were recorded."""
    if seed not in REFERENCE_SEEDS:
        return None
    path = reference_path(workload, seed)
    if not path.exists():
        raise FileNotFoundError(f"missing reference file {path.name}")
    data = json.loads(path.read_text())
    if data["jobs_sha256"] != digest:
        raise ValueError(f"{path.name} was recorded for another job list")
    return data["outcomes"]


def diff_outputs(expected, actual, where: str = "") -> list[str]:
    """Field paths where actual differs: floats by FLOAT_TOL, all else exactly."""
    if isinstance(expected, float) or isinstance(actual, float):
        if isinstance(expected, (int, float)) and isinstance(actual, (int, float)) \
                and not isinstance(expected, bool) and not isinstance(actual, bool) \
                and abs(expected - actual) <= FLOAT_TOL:
            return []
        return [where or "."]
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                out.append(f"{where}.{key}")
            else:
                out += diff_outputs(expected[key], actual[key], f"{where}.{key}")
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [where or "."]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += diff_outputs(e, a, f"{where}[{i}]")
        return out
    return [] if expected == actual and type(expected) is type(actual) else [where or "."]


def check_outcome(job: dict, outcome: dict, ref: dict | None) -> tuple[str, str]:
    """("ok" | "known" | "failed" | "mismatch", detail) for one job outcome.

    outcome is {"error": "Type: message"} when the job raised, else
    {"output": normalised dict}.  ref is the recorded outcome or None.
    """
    if "error" in outcome:
        cause = known_failure(job["kind"], outcome["error"])
        if cause is None:
            return "failed", outcome["error"]
        if ref is not None and "error" not in ref:
            return "failed", f"regressed: {outcome['error']}"
        return "known", cause
    out = outcome["output"]
    errs = invariant_errors(job, out)
    if errs:
        return "mismatch", "; ".join(errs)
    if ref is not None:
        fields = diff_outputs(ref["output"], out)
        if fields:
            return "mismatch", "differs from reference at " + ", ".join(fields[:5])
    return "ok", ""
