"""run_jobs: order stability, dedup, failure isolation, worker parity,
per-job memory figures."""

import os

import pytest

from repro.parallel import (
    Job,
    JobFailure,
    canonical_results,
    execute_job,
    run_jobs,
)

HERE = "tests.parallel.test_runner"


# Module-level so pool workers can resolve them by reference.
def square(x):
    return x * x


def metrics(size, seed):
    return {"size": size, "seed": seed, "score": size * 10 + seed}


def boom(x):
    raise ValueError(f"bad point {x}")


def flaky(x):
    if x == 3:
        raise RuntimeError("x=3 always fails")
    return x + 100


def peak_after(mb, tag):
    """Touch ``mb`` MiB, then report this worker's pid and peak RSS."""
    from repro.telemetry import memory_probe

    ballast = b"\x01" * (mb << 20)
    peak = memory_probe(count_objects=False)["peak_rss_mb"]
    del ballast
    return {"pid": os.getpid(), "peak_rss_mb": peak, "tag": tag}


# -- Job identity --------------------------------------------------------


def test_job_key_is_order_independent():
    a = Job.make(f"{HERE}:metrics", {"size": 5, "seed": 1})
    b = Job.make(f"{HERE}:metrics", {"seed": 1, "size": 5})
    assert a == b
    assert a.key == b.key


def test_job_rejects_bad_fn_ref():
    with pytest.raises(ValueError, match="module:function"):
        Job.make("no_colon_here")


def test_job_rejects_unjsonable_params():
    with pytest.raises(TypeError):
        Job.make(f"{HERE}:square", {"x": object()})


def test_execute_job_unknown_function_is_isolated():
    result = execute_job(Job.make(f"{HERE}:nope", {}))
    assert not result.ok
    assert "nope" in result.error


# -- ordering and determinism -------------------------------------------


def test_results_in_submission_order_inline():
    jobs = [Job.make(f"{HERE}:square", {"x": x}) for x in range(10)]
    results = run_jobs(jobs, workers=0)
    assert [r.value for r in results] == [x * x for x in range(10)]
    assert [r.index for r in results] == list(range(10))


def test_results_in_submission_order_pooled():
    jobs = [Job.make(f"{HERE}:square", {"x": x}) for x in range(10)]
    results = run_jobs(jobs, workers=3)
    assert [r.value for r in results] == [x * x for x in range(10)]


@pytest.mark.parametrize("workers", [0, 1, 2, 4, 7])
def test_canonical_results_identical_at_any_worker_count(workers):
    jobs = [Job.make(f"{HERE}:metrics", {"size": s, "seed": s % 3}) for s in range(12)]
    reference = canonical_results(run_jobs(jobs, workers=0))
    assert canonical_results(run_jobs(jobs, workers=workers)) == reference


# -- dedup ---------------------------------------------------------------


def test_duplicate_jobs_share_one_execution(monkeypatch):
    calls = []

    def counting_execute(job):
        calls.append(job.key)
        return real_execute(job)

    import repro.parallel.runner as runner_module

    real_execute = runner_module.execute_job
    monkeypatch.setattr(runner_module, "execute_job", counting_execute)

    jobs = [Job.make(f"{HERE}:square", {"x": 7})] * 5
    results = runner_module.run_jobs(jobs, workers=0)
    assert len(calls) == 1
    assert [r.value for r in results] == [49] * 5
    assert [r.index for r in results] == [0, 1, 2, 3, 4]


def test_dedup_disabled_executes_every_submission(monkeypatch):
    calls = []

    import repro.parallel.runner as runner_module

    real_execute = runner_module.execute_job

    def counting_execute(job):
        calls.append(job.key)
        return real_execute(job)

    monkeypatch.setattr(runner_module, "execute_job", counting_execute)
    jobs = [Job.make(f"{HERE}:square", {"x": 7})] * 5
    runner_module.run_jobs(jobs, workers=0, dedup=False)
    assert len(calls) == 5


# -- failure isolation ---------------------------------------------------


def test_one_failure_does_not_kill_the_batch():
    jobs = [Job.make(f"{HERE}:flaky", {"x": x}) for x in range(6)]
    results = run_jobs(jobs, workers=2)
    assert [r.ok for r in results] == [True, True, True, False, True, True]
    assert results[3].error == "RuntimeError: x=3 always fails"
    assert "x=3 always fails" in results[3].traceback
    assert [r.value for r in results if r.ok] == [100, 101, 102, 104, 105]


def test_on_error_raise_carries_all_results():
    jobs = [Job.make(f"{HERE}:flaky", {"x": x}) for x in range(6)]
    with pytest.raises(JobFailure, match="1/6 jobs failed") as excinfo:
        run_jobs(jobs, workers=0, on_error="raise")
    salvage = excinfo.value.results
    assert len(salvage) == 6
    assert sum(1 for r in salvage if r.ok) == 5


def test_all_failures_reported():
    jobs = [Job.make(f"{HERE}:boom", {"x": x}) for x in range(3)]
    results = run_jobs(jobs, workers=2)
    assert all(not r.ok for r in results)
    assert results[1].error == "ValueError: bad point 1"


def test_bad_on_error_value_rejected():
    with pytest.raises(ValueError, match="on_error"):
        run_jobs([], on_error="explode")


# -- edge cases ----------------------------------------------------------


def test_empty_batch():
    assert run_jobs([], workers=4) == []


def test_single_job_runs_inline_even_with_many_workers():
    jobs = [Job.make(f"{HERE}:square", {"x": 9})]
    results = run_jobs(jobs, workers=8)
    assert results[0].value == 81


def test_workers_none_uses_cpu_count():
    jobs = [Job.make(f"{HERE}:square", {"x": x}) for x in range(4)]
    results = run_jobs(jobs, workers=None)
    assert [r.value for r in results] == [0, 1, 4, 9]


# -- per-job memory ------------------------------------------------------


def test_pooled_job_reports_its_own_peak():
    """A small job that follows large ones in a two-worker pool runs in
    a worker that has run nothing else, so its peak is not theirs."""
    jobs = [Job.make(f"{HERE}:peak_after", {"mb": 64, "tag": i}) for i in range(2)]
    jobs += [Job.make(f"{HERE}:peak_after", {"mb": 0, "tag": i}) for i in range(2)]
    values = [r.value for r in run_jobs(jobs, workers=2, on_error="raise")]
    if any(v["peak_rss_mb"] is None for v in values):
        pytest.skip("no peak-RSS source on this platform")
    assert len({v["pid"] for v in values}) == len(jobs)
    big = min(v["peak_rss_mb"] for v in values[:2])
    for small in values[2:]:
        assert small["peak_rss_mb"] < big - 32, (small, big)
