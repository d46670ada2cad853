"""Self-tests of the benchmark harness: job generation, output checks, tracing."""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import jobs  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


@pytest.fixture(scope="module")
def ci():
    return worker.import_cellint()


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_job_lists_are_seeded(workload):
    first = jobs.jobs_digest(jobs.make_jobs(workload, 3))
    assert jobs.jobs_digest(jobs.make_jobs(workload, 3)) == first
    assert jobs.jobs_digest(jobs.make_jobs(workload, 4)) != first
    assert len(jobs.make_jobs(workload, 3)) >= 100


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_reference_matches_job_list(workload):
    for seed in checks.REFERENCE_SEEDS:
        digest = jobs.jobs_digest(jobs.make_jobs(workload, seed))
        assert len(checks.load_reference(workload, seed, digest)) == jobs.JOB_COUNTS[workload]


def _run(ci, job_list, tmp_path, tracer=None):
    calls = [(job, worker.prepare(job, ci, tmp_path)) for job in job_list]
    return worker.run_pass(ci, calls, tracer).raws


def test_corrupted_reference_is_a_failed_job(ci, tmp_path):
    job_list = jobs.make_jobs("closed_form", 0)[:8]
    digest = jobs.jobs_digest(jobs.make_jobs("closed_form", 0))
    reference = checks.load_reference("closed_form", 0, digest)[:8]
    raws = _run(ci, job_list, tmp_path)
    tally, problems, _ = worker.check_pass(job_list, raws, reference)
    assert tally == {"ok": 8, "known": 0, "failed": 0, "mismatch": 0}

    corrupted = copy.deepcopy(reference)
    value = corrupted[5]["output"]["value"]
    corrupted[5]["output"]["value"] = value + "1" if value != "0" else "1"
    tally, problems, _ = worker.check_pass(job_list, raws, corrupted)
    assert tally["mismatch"] == 1 and tally["ok"] == 7
    assert problems[0]["job"] == 5 and "reference" in problems[0]["detail"]


@pytest.mark.parametrize("workload, cause", [("oracle_box", 0), ("closed_form", 1)])
def test_known_failure_is_counted_but_documented(ci, tmp_path, workload, cause):
    defects = jobs.defect_jobs(workload)
    tally, _, known = worker.check_pass(defects, _run(ci, defects, tmp_path), None)
    assert tally["known"] == len(defects) > 0 and tally["ok"] == 0
    assert list(known) == [checks.KNOWN_FAILURES[cause][3]]


def _cellint_bindings():
    out = {}
    for name, module in sys.modules.items():
        if name == "cellint" or name.startswith("cellint."):
            for key, value in vars(module).items():
                out[(name, key)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for attr, member in vars(value).items():
                        out[(name, key, attr)] = member
    return out


def test_traced_run_restores_every_name(ci, tmp_path):
    picks = [jobs.make_jobs("oracle_box", 0)[3], jobs.make_jobs("cells_cert", 0)[1],
             jobs.make_jobs("expsum", 0)[5]] + jobs.make_jobs("closed_form", 0)[:4]
    for i, job in enumerate(picks):
        job["id"] = i
    before = _cellint_bindings()
    tracer = tracing.Tracer(ci)
    tracer.install()
    try:
        assert ci.riemann_integrate is not before[("cellint", "riemann_integrate")]
        raws = _run(ci, picks, tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert tracer.restored() and not tracer.missing
    after = _cellint_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    metrics = tracer.metrics(picks, 0.0)
    assert set(metrics) == set(tracing.metric_units())
    assert metrics["oracle.riemann_integrate.calls"] >= 3
    assert metrics["oracle.visit_ratio"] > 0
    assert metrics["cells.check_partition.calls"] == 1
    assert metrics["expsums.exp_sum.calls"] >= 1
    assert metrics["qexp_sum.shell_sum.calls"] >= 1
    assert all(status == "ok" for status, _ in raws), raws


def test_missing_name_is_reported_not_fatal(ci, monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("oracle", "oracle.gone", "cellint.oracle", "no_such_function", False),))
    tracer = tracing.Tracer(ci)
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["oracle.gone"] and tracer.restored()


def test_exact_to_float_reads_root_scaled_values():
    assert checks.exact_to_float("25/62") == 25 / 62
    assert checks.exact_to_float("1/2 + 3*5^(-1/2)") == pytest.approx(0.5 + 3 * 5 ** -0.5)


def test_reference_files_are_json(tmp_path):
    for path in checks.REFERENCE_DIR.glob("*.json"):
        doc = json.loads(path.read_text())
        assert set(doc) == {"workload", "seed", "jobs_sha256", "outcomes"}
