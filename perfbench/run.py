"""cellint benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload oracle_box --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --record-reference        # rewrite reference/*.json

Run from the root of a checkout; cellint is imported from its ``src/``.
Each measurement runs in fresh interpreters started by this script (see
worker.py): a few that only set up, to time set-up, and one that set up and
then repeats passes over the job list for ``--seconds``.  Untraced runs
(``--trace 0``) print the end-to-end metrics, traced runs (``--trace 1``)
the per-layer ones.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import checks  # noqa: E402
import jobs as joblib  # noqa: E402
import tracing  # noqa: E402

SETUP_SAMPLES = 5  # fresh interpreters timed for setup_s (one is the measuring run)
WORKER_TIMEOUT_S = 170

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("job_ms_p50", "ms"), ("job_ms_p90", "ms"),
              ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


@contextmanager
def _worker(mode: str, workload: str, seed: int, seconds: float, trace: int):
    """A started worker with its set-up time in raw and reference seconds.

    The worker is killed if it still runs when the block is left, always
    reaped, and its scratch directory removed.
    """
    workdir = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}-{time.monotonic_ns()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir)]
    before = calibrate.scale()
    start = time.perf_counter()
    try:
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                ready = time.perf_counter() - start
                if not line.startswith('{"ready"'):
                    raise BenchError(f"worker failed during set-up ({mode} {workload})")
                yield proc, ready, ready * (before + calibrate.scale()) / 2
            finally:
                if proc.poll() is None:
                    proc.kill()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only once no other run uses it
        except OSError:
            pass


def _finish(proc) -> str:
    """The rest of the worker's output, once it has exited cleanly."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def _result(proc) -> dict:
    out = _finish(proc).strip()
    if not out:
        raise BenchError("worker printed no result")
    return json.loads(out.splitlines()[-1])


def stamp(seed: int) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        else:
            commit = ref
    lines = sum(len(p.read_text().splitlines())
                for p in sorted((ROOT / "src" / "cellint").glob("*.py")))
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit,
            "seed": seed, "src_cellint_lines": lines}


def _quantile(values: list[float], q: int) -> float:
    """The q-th decile of values (q = 5 is the median)."""
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    setup_raw, setup_ref = [], []
    for _ in range(SETUP_SAMPLES - 1):
        with _worker("setup", workload, seed, 0, 0) as (proc, raw, ref):
            _finish(proc)
        setup_raw.append(raw)
        setup_ref.append(ref)
    with _worker("run", workload, seed, seconds, trace) as (proc, raw, ref):
        res = _result(proc)
    setup_raw.append(raw)
    setup_ref.append(ref)
    tally = res["tally"]
    attempted = sum(tally.values())
    failed = attempted - tally["ok"]
    defects = res["defects"]
    correct = (tally["failed"] == 0 and tally["mismatch"] == 0
               and defects["tally"]["failed"] == 0 and defects["tally"]["mismatch"] == 0)
    walls, walls_ref = res["walls"], res["walls_ref"]
    job_ms = [t * 1000 for t in res["job_times"]]
    job_ms_ref = [t * 1000 for t in res["job_times_ref"]]
    wall_s, passes, jobs_run = statistics.median(walls_ref), len(walls), len(job_ms)
    report = {
        "workload": workload, "stamp": stamp(seed), "jobs": res["jobs"],
        "jobs_sha256": res["jobs_sha256"], "passes": passes,
        "classes_per_pass": res["classes_per_pass"],
        "reference_checked": res["reference_checked"], "tally": tally,
        "known_failures": res["known"], "problems": res["problems"],
        "known_defects": defects,
        # name: (reference-second value, raw value, unit, sample count)
        "metrics": {
            "setup_s": (statistics.median(setup_ref), statistics.median(setup_raw), "s",
                        len(setup_ref)),
            "wall_s": (wall_s, statistics.median(walls), "s", passes),
            "classes_per_s": (res["classes_per_pass"] / wall_s,
                              res["classes_per_pass"] / statistics.median(walls),
                              "classes/s", passes),
            "job_ms_p50": (_quantile(job_ms_ref, 5), _quantile(job_ms, 5), "ms", jobs_run),
            "job_ms_p90": (_quantile(job_ms_ref, 9), _quantile(job_ms, 9), "ms", jobs_run),
            "peak_rss_mb": (res["maxrss_kb"] / 1024, None, "MB", 1),
            "fail_ratio": (failed / attempted, None, "failed/attempted", attempted),
        },
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed}
    if trace:
        traced = res["traced"]
        t = traced["tally"]
        report["traced"] = {"wall_s": traced["wall_ref"], "wall_raw_s": traced["wall"],
                            "restored": traced["restored"],
                            "missing": traced["missing"], "tally": t,
                            "problems": traced["problems"]}
        result["correct"] = (correct and traced["restored"]
                             and t["failed"] == 0 and t["mismatch"] == 0)
        units = tracing.metric_units()
        result["metrics"] = {k: {"value": traced["metrics"][k], "unit": u}
                             for k, u in units.items()}
    else:
        result["metrics"] = {k: {"value": report["metrics"][k][0], "unit": u}
                             for k, u in END_TO_END}
    return {"report": report, "result": result}


def print_report(rep: dict, result: dict):
    s = rep["stamp"]
    print(f"== {rep['workload']}  seed={s['seed']}  python={s['python']}  nproc={s['nproc']}"
          f"  commit={s['commit'][:12]}  src/cellint lines={s['src_cellint_lines']}")
    print(f"   jobs/pass={rep['jobs']}  classes decided/pass={rep['classes_per_pass']}"
          f"  passes={rep['passes']}  closed loop, 1 client, 1 thread"
          f"  reference check={'yes' if rep['reference_checked'] else 'invariants only'}")
    print("   times in reference seconds (see calibrate.py), raw seconds in brackets")
    for name, (value, raw, unit, count) in rep["metrics"].items():
        if name == "classes_per_s" and rep["classes_per_pass"] == 0:
            print(f"   {name:<16} n/a (no enumeration in this workload)")
            continue
        raw_text = "" if raw is None else f"[{raw:.6g}]"
        print(f"   {name:<16} {value:<12.6g} {raw_text:<12} {unit:<18} n={count}")
    for cause, count in rep["known_failures"].items():
        print(f"   known failure x{count}: {cause}")
    for prob in rep["problems"]:
        print(f"   PROBLEM job {prob['job']} ({prob['kind']}) {prob['status']}: "
              f"{prob['detail']}")
    defects = rep["known_defects"]
    if defects["jobs"]:
        t = defects["tally"]
        print(f"   known-defect jobs (untimed, not in attempted/failed): {defects['jobs']},"
              f" still failing {t['known']}, fixed {t['ok']},"
              f" wrong {t['failed'] + t['mismatch']}")
        for cause, count in defects["known"].items():
            print(f"   known defect x{count}: {cause}")
        for prob in defects["problems"]:
            print(f"   PROBLEM known-defect job {prob['job']} ({prob['kind']}) "
                  f"{prob['status']}: {prob['detail']}")
    if "traced" in rep:
        tr = rep["traced"]
        print(f"   traced pass: wall_s={tr['wall_s']:.6g} s  tracing overhead="
              f"{result['metrics']['trace.overhead_s']['value']:.6g} s  "
              f"names restored={tr['restored']}  missing={tr['missing'] or 'none'}")
        for name, m in result["metrics"].items():
            print(f"   {name:<44} {m['value']:<14.6g} {m['unit']}")
    print("report: " + json.dumps(rep, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=joblib.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--record-reference", action="store_true",
                    help="record reference outputs for the reference seeds and exit")
    args = ap.parse_args(argv)
    # on SIGTERM unwind normally, so that running workers are killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "cellint" / "__init__.py").is_file():
        print(f"error: no cellint sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.record_reference:
            for workload in joblib.WORKLOADS:
                for seed in checks.REFERENCE_SEEDS:
                    with _worker("record", workload, seed, 0, 0) as (proc, _, _):
                        print(json.dumps(_result(proc)))
            return 0
        workloads = joblib.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for workload in workloads:
            run = run_workload(workload, args.seed, args.seconds, args.trace)
            print_report(run["report"], run["result"])
            results[workload] = run["result"]
    except BenchError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": m for w, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
