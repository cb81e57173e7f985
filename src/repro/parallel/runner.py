"""The deterministic shard runner: fan jobs across a process pool.

A :class:`Job` names a module-level function (``"package.module:fn"``)
plus JSON-able keyword arguments; :func:`run_jobs` executes a batch of
them and returns :class:`JobResult` objects **in submission order**, no
matter how the pool interleaves completions.  Three properties the
whole harness leans on:

* **Determinism** — a job's result depends only on (function, params),
  never on which worker ran it or when.  The runner therefore memoizes
  duplicate jobs: two jobs with the same identity are computed once and
  fanned out (timing repeats of a deterministic simulation are the
  common case).  ``run_jobs(jobs, workers=k)`` is bit-for-bit identical
  for every ``k``, including the inline ``workers=0`` path.
* **Failure isolation** — a job that raises reports ``ok=False`` with
  the repr and traceback; the pool and every other job keep going.
  Pass ``on_error="raise"`` to turn any failure into a
  :class:`JobFailure` after the whole batch has run.
* **Simplicity of the unit** — a job runs a *complete* simulation in a
  worker process.  Workers share nothing, so the simulator itself needs
  no locks and stays single-threaded-fast.  Each pooled job gets a
  freshly forked worker, so a job's peak RSS (``memory_probe``) is its
  own, not the high-water mark of whatever ran before it.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing
import time
import traceback as traceback_module
from dataclasses import dataclass
from typing import Any, Optional, Sequence

__all__ = ["Job", "JobResult", "JobFailure", "run_jobs", "execute_job"]


@dataclass(frozen=True)
class Job:
    """One schedulable unit: a function reference and its arguments.

    ``fn`` is a ``"package.module:function"`` reference (resolved in the
    worker, so the job itself pickles cheaply); ``params`` is the
    canonical, sorted tuple of keyword-argument pairs.  ``key`` is the
    job's stable identity — equal keys mean provably equal results.
    """

    fn: str
    params: tuple = ()

    @classmethod
    def make(cls, fn: str, params: Optional[dict] = None) -> "Job":
        if ":" not in fn:
            raise ValueError(
                f"fn must be a 'module:function' reference, got {fn!r}"
            )
        items = sorted((params or {}).items())
        for key, value in items:
            # Fail at submission, not inside a worker: params must be
            # canonical JSON-able values for the key to mean anything.
            json.dumps({key: value})
        return cls(fn=fn, params=tuple(items))

    @property
    def kwargs(self) -> dict:
        return dict(self.params)

    @property
    def key(self) -> str:
        return f"{self.fn}{json.dumps(self.kwargs, sort_keys=True)}"


@dataclass
class JobResult:
    """Outcome of one job, tagged with its submission index."""

    index: int
    key: str
    ok: bool
    value: Any = None
    error: Optional[str] = None
    traceback: Optional[str] = None
    #: Worker-side wall clock; excluded from canonical/deterministic
    #: comparisons (see :func:`repro.parallel.aggregate.canonical_results`).
    wall_s: float = 0.0


class JobFailure(RuntimeError):
    """Raised by ``run_jobs(on_error='raise')`` when any job failed.

    Carries the full result list (``.results``) so a caller can still
    salvage the jobs that succeeded.
    """

    def __init__(self, message: str, results: list) -> None:
        super().__init__(message)
        self.results = results


def _resolve(fn_ref: str):
    module_name, _, fn_name = fn_ref.partition(":")
    module = importlib.import_module(module_name)
    try:
        return getattr(module, fn_name)
    except AttributeError as exc:
        raise ValueError(f"{module_name} has no function {fn_name!r}") from exc


def execute_job(job: Job) -> JobResult:
    """Run one job in this process (the unit the pool workers run).

    Never raises for a job-level failure: the exception is captured so
    one bad sweep point cannot take down a worker or the batch.
    """
    started = time.perf_counter()
    try:
        value = _resolve(job.fn)(**job.kwargs)
    except Exception as exc:
        return JobResult(
            index=-1,
            key=job.key,
            ok=False,
            error=f"{type(exc).__name__}: {exc}",
            traceback=traceback_module.format_exc(),
            wall_s=time.perf_counter() - started,
        )
    return JobResult(
        index=-1,
        key=job.key,
        ok=True,
        value=value,
        wall_s=time.perf_counter() - started,
    )


def _execute_indexed(indexed_job: "tuple[int, Job]") -> "tuple[int, JobResult]":
    position, job = indexed_job
    return position, execute_job(job)


def _pool_context():
    """Prefer fork (cheap, inherits imports); fall back to spawn."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def run_jobs(
    jobs: Sequence[Job],
    workers: Optional[int] = None,
    dedup: bool = True,
    on_error: str = "collect",
) -> list[JobResult]:
    """Execute ``jobs`` and return results in submission order.

    ``workers``:
        ``None`` — one worker per CPU (capped by the distinct job
        count); ``0`` or ``1`` — run inline in this process (the serial
        reference path, no pool, still deduplicated); ``>= 2`` — a
        ``multiprocessing`` pool of that many workers, each of which
        runs one job and exits (the pool forks a fresh one for the
        next), so per-job memory figures are not inherited.
    ``dedup``:
        Compute each distinct job identity once and fan the result out
        to every duplicate (sound because jobs are deterministic
        functions of their params).  Disable to force every submission
        to execute — the naive serial harness the benchmarks compare
        against.
    ``on_error``:
        ``"collect"`` (default) returns failed jobs as ``ok=False``
        results; ``"raise"`` raises :class:`JobFailure` after the batch
        completes if anything failed.
    """
    if on_error not in ("collect", "raise"):
        raise ValueError(f"on_error must be 'collect' or 'raise', got {on_error!r}")
    jobs = list(jobs)
    if workers is None:
        workers = multiprocessing.cpu_count()

    # Distinct identities, in first-submission order (determinism: the
    # execution set never depends on pool scheduling).
    if dedup:
        distinct: dict[str, Job] = {}
        for job in jobs:
            distinct.setdefault(job.key, job)
        work = list(distinct.values())
    else:
        work = jobs

    if workers <= 1 or len(work) <= 1:
        executed = [execute_job(job) for job in work]
    else:
        # Each job gets a freshly forked worker: import the job modules
        # here once, or every worker imports them again.  A module that
        # fails to import is left to fail its jobs, in their workers.
        for module_name in dict.fromkeys(job.fn.partition(":")[0] for job in work):
            try:
                importlib.import_module(module_name)
            except Exception:  # noqa: BLE001 - reported per job by execute_job
                pass
        ctx = _pool_context()
        n_workers = min(workers, len(work))
        executed = [None] * len(work)
        with ctx.Pool(processes=n_workers, maxtasksperchild=1) as pool:
            for position, result in pool.imap_unordered(
                _execute_indexed, list(enumerate(work))
            ):
                executed[position] = result

    if dedup:
        by_key = {result.key: result for result in executed}
        results = []
        for index, job in enumerate(jobs):
            shared = by_key[job.key]
            results.append(
                JobResult(
                    index=index,
                    key=shared.key,
                    ok=shared.ok,
                    value=shared.value,
                    error=shared.error,
                    traceback=shared.traceback,
                    wall_s=shared.wall_s,
                )
            )
    else:
        results = []
        for index, (job, result) in enumerate(zip(jobs, executed)):
            result.index = index
            results.append(result)

    if on_error == "raise":
        failed = [r for r in results if not r.ok]
        if failed:
            summary = "; ".join(
                f"job[{r.index}] {r.key}: {r.error}" for r in failed[:5]
            )
            raise JobFailure(
                f"{len(failed)}/{len(results)} jobs failed: {summary}", results
            )
    return results
