"""One fresh interpreter running one workload's job list as a closed loop.

``run.py`` starts this file; it is not meant to be run by hand.  The worker
sets up (imports cellint from the checkout's ``src/``, generates the jobs
from the seed, parses expressions, writes certificate and terms files),
prints a ready line so the parent can time that set-up, then repeats passes
over the job list: one client, one thread, each job sent when the previous
one returned.  Every pass starts from empty module caches.  The last stdout
line is one JSON object with the pass timings, the checked outcomes and,
in traced mode, the per-layer numbers.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import checks  # noqa: E402
import jobs as joblib  # noqa: E402
import tracing  # noqa: E402


def import_cellint():
    """cellint from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "cellint" / "__init__.py").is_file():
        raise SystemExit(f"no cellint sources under {src}")
    sys.path.insert(0, str(src))
    import cellint
    import cellint.cli  # noqa: F401  (jobs call cellint.cli.main)
    if Path(cellint.__file__).resolve().parent != (src / "cellint").resolve():
        raise SystemExit(f"imported cellint from {cellint.__file__}, not from {src}")
    return cellint


# -- preparing jobs -------------------------------------------------------------------


def _cli(ci, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = ci.cli.main(argv)
        except SystemExit as ex:  # argparse rejects
            code = ex.code
    return code, out.getvalue(), err.getvalue()


def prepare(job: dict, ci, workdir: Path):
    """A zero-argument call for the job.

    Inputs are parsed and files written here, at set-up; the call looks every
    cellint function up by attribute when it runs, so a traced run sees the
    rebound names.
    """
    kind = job["kind"]
    if kind.startswith("cli_"):
        argv = list(job["argv"])
        for key, doc in job.get("files", {}).items():
            path = workdir / f"job{job['id']}-{key}.json"
            path.write_text(json.dumps(doc, sort_keys=True))
            argv = [a.replace("{" + key + "}", str(path)) for a in argv]
        return lambda: _cli(ci, argv)
    ctx = ci.PrimeContext(job["p"])
    if kind == "lib_riemann":
        expr, n, m = ci.parse_expr(job["expr"]), job["n"], job["m"]
        return lambda: ci.riemann_integrate(expr, n, m, ctx)
    if kind == "lib_fourier":
        fs = [ci.parse_poly(f) for f in job["fs"]]
        y = [Fraction(v) for v in job["y"]]
        return lambda: ci.fourier_check(fs, y, ctx)
    if kind == "lib_tower_integral":
        cert = ci.certificate_from_dict(job["cert"])
        terms = ci.terms_from_dict(job["terms"])
        return lambda: ci.integrate_explicit_tower(terms, cert, ctx)
    if kind == "lib_tower_measure":
        tower = ci.certificate_from_dict({"prime": job["p"], "domain": {
            "kind": "box", "arity": len(job["tower"]["levels"])},
            "cells": [job["tower"]]}).cells[0]
        return lambda: ci.tower_measure(tower, ctx)
    if kind == "lib_mixed_sum":
        terms = [ci.LatticeTermSpec(Fraction(t["coeff"]), tuple(
            ci.LatticeFactor(f["l"], f["c"], ci.KRange(f["modulus"], f["residue"],
                                                        f["lo"], f["hi"]))
            for f in t["factors"])) for t in job["terms"]]
        return lambda: ci.mixed_sum(terms, ctx)
    raise ValueError(f"unknown job kind {kind}")


def clear_caches(ci):
    """Empty every module-level cache, so a pass pays what a CLI user pays."""
    for name, module in list(sys.modules.items()):
        if name != "cellint" and not name.startswith("cellint."):
            continue
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    eulerian = getattr(ci.qexp_sum, "_eulerian_cache", None)
    if isinstance(eulerian, list):
        del eulerian[1:]


# -- passes ------------------------------------------------------------------------------


SEGMENT_S = 0.05  # measured time between two calibration kernel runs
MIN_PASSES = 3


@dataclass
class Pass:
    wall: float  # raw seconds
    wall_ref: float  # reference seconds (see calibrate.py)
    times: list[float]
    times_ref: list[float]
    raws: list[tuple]


def run_pass(ci, calls, tracer=None) -> Pass:
    """One pass over the list, timed raw and in reference seconds.

    After every SEGMENT_S of measured time the calibration kernel runs once,
    outside the measured time.  Each segment is rescaled by the median kernel
    time of itself and its two neighbours on either side, which smooths the
    kernel's own jitter while following the host's drift (seconds or more).
    """
    clear_caches(ci)
    gc.collect()
    times, raws = [], []
    segments = []  # (first job, end job, raw seconds, kernel seconds)
    clock = time.perf_counter
    seg_start, seg_first = clock(), 0
    for i, (job, call) in enumerate(calls):
        if tracer is not None:
            tracer.begin_job(job)
        t0 = clock()
        try:
            raw = ("ok", call())
        except Exception as ex:  # a failing job is recorded, the loop goes on
            raw = ("error", f"{type(ex).__name__}: {ex}")
        t1 = clock()
        times.append(t1 - t0)
        raws.append(raw)
        if t1 - seg_start >= SEGMENT_S or i == len(calls) - 1:
            seg = clock() - seg_start
            segments.append((seg_first, len(times), seg, calibrate.kernel_seconds()))
            seg_start, seg_first = clock(), len(times)
    kernels = [s[3] for s in segments]
    wall_ref, times_ref = 0.0, []
    for k, (first, end, seg, _) in enumerate(segments):
        factor = calibrate.REFERENCE_KERNEL_S / statistics.median(kernels[max(0, k - 2):k + 3])
        wall_ref += seg * factor
        times_ref += [t * factor for t in times[first:end]]
    return Pass(sum(s[2] for s in segments), wall_ref, times, times_ref, raws)


def outcome_of(job: dict, raw: tuple) -> dict:
    status, value = raw
    return {"error": value} if status == "error" else {"output": checks.normalize(job, value)}


def check_pass(job_list, raws, reference):
    """Counts of ok / known / failed / mismatch and the first problems."""
    tally = {"ok": 0, "known": 0, "failed": 0, "mismatch": 0}
    problems, known = [], {}
    for job, raw, ref in zip(job_list, raws, reference or [None] * len(job_list)):
        try:
            status, detail = checks.check_outcome(job, outcome_of(job, raw), ref)
        except (KeyError, TypeError, ValueError) as ex:  # malformed output
            status, detail = "mismatch", f"unreadable output: {type(ex).__name__}: {ex}"
        tally[status] += 1
        if status == "known":
            known[detail] = known.get(detail, 0) + 1
        elif status != "ok" and len(problems) < 10:
            problems.append({"job": job["id"], "kind": job["kind"], "status": status,
                             "detail": detail})
    return tally, problems, known


def setup(workload: str, seed: int, workdir: Path):
    ci = import_cellint()
    job_list = joblib.make_jobs(workload, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    calls = [(job, prepare(job, ci, workdir)) for job in job_list]
    return ci, job_list, calls


def _emit(doc: dict):
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def measure(args, ci, job_list, calls) -> dict:
    digest = joblib.jobs_digest(job_list)
    reference = checks.load_reference(args.workload, args.seed, digest)
    untraced_share = 0.5 if args.trace else 1.0
    deadline = time.perf_counter() + args.seconds * untraced_share
    passes, tallies = [], []
    problems, known = [], {}
    while True:
        run = run_pass(ci, calls)
        passes.append(run)
        tally, probs, kn = check_pass(job_list, run.raws, reference)
        run.raws = None  # outputs are checked; keep memory flat across passes
        tallies.append(tally)
        problems += probs[: max(0, 10 - len(problems))]
        for cause, count in kn.items():
            known[cause] = known.get(cause, 0) + count
        left = deadline - time.perf_counter()
        if len(passes) == 1:
            maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if len(passes) >= MIN_PASSES and \
                left < statistics.median(p.wall for p in passes):
            break
    result = {
        "jobs": len(job_list), "jobs_sha256": digest,
        "classes_per_pass": sum(j["classes"] for j in job_list),
        "reference_checked": reference is not None,
        "walls": [p.wall for p in passes], "walls_ref": [p.wall_ref for p in passes],
        "job_times": [t for p in passes for t in p.times],
        "job_times_ref": [t for p in passes for t in p.times_ref],
        "tally": {k: sum(t[k] for t in tallies) for k in tallies[0]},
        "known": known, "problems": problems, "maxrss_kb": maxrss_kb,
    }
    # the known-defect inputs, once and untimed: still failing, or fixed and correct?
    defects = joblib.defect_jobs(args.workload)
    defect_calls = [(job, prepare(job, ci, Path(args.workdir))) for job in defects]
    tally, probs, kn = check_pass(defects, run_pass(ci, defect_calls).raws, None)
    result["defects"] = {"jobs": len(defects), "tally": tally, "known": kn,
                         "problems": probs}
    if args.trace:
        tracer = tracing.Tracer(ci)
        tracer.install()
        try:
            tracer.begin_setup()
            traced_calls = [(job, prepare(job, ci, Path(args.workdir))) for job in job_list]
            run = run_pass(ci, traced_calls, tracer)
        finally:
            tracer.uninstall()
        tally, probs, _ = check_pass(job_list, run.raws, reference)
        overhead = run.wall_ref - statistics.median(result["walls_ref"])
        result["traced"] = {
            "wall": run.wall, "wall_ref": run.wall_ref, "tally": tally, "problems": probs,
            "restored": tracer.restored(), "missing": tracer.missing,
            "metrics": tracer.metrics(job_list, overhead),
        }
        tracer.write_spans(ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.json")
    return result


def record(args, ci, job_list, calls):
    """Write the reference outcomes of this commit for one workload and seed."""
    outcomes = [outcome_of(job, raw) for job, raw in zip(job_list, run_pass(ci, calls).raws)]
    errors = [(job["id"], o["error"]) for job, o in zip(job_list, outcomes) if "error" in o]
    if errors:  # a measured job list must run without failures
        raise SystemExit(f"jobs raised, nothing recorded: {errors[:5]}")
    path = checks.reference_path(args.workload, args.seed)
    path.parent.mkdir(exist_ok=True)
    doc = {"workload": args.workload, "seed": args.seed,
           "jobs_sha256": joblib.jobs_digest(job_list), "outcomes": outcomes}
    path.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    return {"recorded": str(path.relative_to(ROOT)), "jobs": len(job_list)}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "record"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, required=True)
    ap.add_argument("--workdir", required=True, help="scratch directory; run.py removes it")
    args = ap.parse_args(argv)
    ci, job_list, calls = setup(args.workload, args.seed, Path(args.workdir))
    _emit({"ready": True})
    if args.mode == "run":
        _emit(measure(args, ci, job_list, calls))
    elif args.mode == "record":
        _emit(record(args, ci, job_list, calls))


if __name__ == "__main__":
    main()
