"""Batch task execution over a process pool.

Many workloads in this repository are *batches of independent task
invocations*: the twelve Table I rows, a resolution-sensitivity sweep, a
robustness screen over delay scenarios.  :func:`run_batch` runs such a batch
over a pool of persistent fork workers (:class:`repro.workers.TaskWorkerPool`)
with

* **deterministic per-job seeds** — every job gets a seed that is a pure
  function of the batch seed, the job index, and the job name, so a batch
  is reproducible regardless of how its jobs were scheduled;
* **structured per-job results** — each job yields a
  :class:`BatchJobResult` carrying the returned value *or* the captured
  error, never an exception that kills the batch;
* **graceful degradation** — ``processes=1``, a single-job batch, or a
  platform without ``fork`` runs the jobs serially in-process, with
  identical results.

A worker's death costs its one job, not the pool: the job is
**retried** once on the respawned worker, then **recovered** serially in
the parent (as is every job of a pool that cannot fork at all); a
``manifest_path`` persists every finished job to a JSONL manifest so a
*killed batch* can be re-run and skip its completed jobs, and
``job_timeout_s`` bounds each job with a SIGALRM-based wall clock.  All
recovery activity is counted in ``BatchReport.metrics``
(``batch.pool_broken``, ``retry.attempts``, ``batch.serial_recoveries``,
``batch.job_timeouts``, …).  The jobs reach the workers through
``fork``; only job indexes and results (values must pickle) cross the
pipes.

The module also packages the paper's Table I as a ready-made batch
(:func:`table1_jobs` / :func:`run_table1`), which is what ``python -m repro
table1 --jobs N`` executes.
"""

from __future__ import annotations

import importlib
import json
import signal
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs import trace
from repro.obs.metrics import MetricsRegistry
from repro.sat.portfolio import default_processes, fork_available
from repro.testing import faults
from repro.workers import TaskWorkerPool, WorkerCrashed

#: Retries of a job whose pool worker died, on the respawned worker,
#: before the parent runs it serially ...
MAX_RETRIES = 1
#: ... each after this pause (seconds).
RETRY_BACKOFF_S = 0.05


@dataclass(frozen=True)
class BatchJob:
    """One unit of a batch: a callable plus its arguments.

    ``seed_kwarg`` names a keyword argument through which the job wants to
    receive its deterministic per-job seed (omitted when None).
    """

    name: str
    func: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    seed_kwarg: str | None = None


@dataclass
class BatchJobResult:
    """Outcome of one batch job (value or captured error, never both).

    ``spans`` carries the trace spans recorded in the worker process when
    tracing is on; :func:`run_batch` merges them into the parent's trace.
    """

    name: str
    index: int
    ok: bool
    value: Any = None
    error: str = ""
    runtime_s: float = 0.0
    seed: int = 0
    spans: list = field(default_factory=list)


@dataclass
class BatchReport:
    """Outcome of a whole batch.

    ``serial`` records the *scheduling decision* (the batch ran serially
    in-process from the start); the recovery story after a worker death
    is split out into ``retried_jobs`` (re-run on a respawned pool
    worker) and ``recovered_jobs`` (re-run serially in the parent after
    the retry, or because the pool could not start).  ``resumed_jobs``
    were restored from the manifest without running at all.
    """

    results: list[BatchJobResult]
    wall_time_s: float
    processes: int
    serial: bool
    recovered_jobs: list[str] = field(default_factory=list)
    retried_jobs: list[str] = field(default_factory=list)
    resumed_jobs: list[str] = field(default_factory=list)
    pool_error: str = ""
    metrics: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every job succeeded."""
        return all(result.ok for result in self.results)

    def failures(self) -> list[BatchJobResult]:
        """The jobs that raised, in batch order."""
        return [result for result in self.results if not result.ok]

    def values(self) -> list[Any]:
        """The returned values of the successful jobs, in batch order."""
        return [result.value for result in self.results if result.ok]

    def value_of(self, name: str) -> Any:
        """The value returned by the job called ``name``."""
        for result in self.results:
            if result.name == name:
                if not result.ok:
                    raise RuntimeError(
                        f"batch job {name!r} failed: {result.error}"
                    )
                return result.value
        raise KeyError(f"no batch job named {name!r}")


def job_seed(batch_seed: int, index: int, name: str) -> int:
    """Deterministic per-job seed: a pure function of batch seed/index/name."""
    return zlib.crc32(f"{batch_seed}:{index}:{name}".encode()) & 0x7FFFFFFF


class BatchJobTimeout(Exception):
    """A job exceeded ``job_timeout_s`` (raised inside the job via SIGALRM)."""


@contextmanager
def _job_alarm(timeout_s: float | None):
    """Interrupt the enclosed block after ``timeout_s`` via SIGALRM.

    Only armed on the main thread of a POSIX process (SIGALRM cannot be
    delivered to other threads, and Windows has no itimers); elsewhere
    the block runs unbounded.  An outer itimer (e.g. a test-suite
    timeout) is saved and re-armed with its remaining time on exit.
    """
    usable = (
        timeout_s is not None
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _expired(signum, frame):
        raise BatchJobTimeout(f"job exceeded {timeout_s:.3g}s")

    previous_handler = signal.signal(signal.SIGALRM, _expired)
    outer_remaining, __ = signal.setitimer(signal.ITIMER_REAL, timeout_s)
    start = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous_handler)
        if outer_remaining > 0:
            # Re-arm the enclosing timer with whatever it had left.
            remaining = outer_remaining - (time.monotonic() - start)
            signal.setitimer(signal.ITIMER_REAL, max(remaining, 0.001))


def _execute(
    job: BatchJob,
    index: int,
    seed: int,
    timeout_s: float | None = None,
    in_pool: bool = False,
    attempt: int = 0,
) -> BatchJobResult:
    """Run one job in the current process, capturing any exception.

    ``in_pool`` marks a pool worker: there the job runs under a fresh
    per-job tracer whose spans are shipped back in the result (the
    fork-inherited parent tracer tells the worker whether tracing is
    on), and the fault-injection hook fires, so the parent's serial
    recovery always survives an injected worker kill.
    """
    start = time.perf_counter()
    child_trace = in_pool and trace.enabled()
    if child_trace:
        trace.install(trace.fork_child(tid=f"batch:{job.name}"))
    if in_pool:
        faults.on_batch_job(job.name, attempt)
    kwargs = dict(job.kwargs)
    if job.seed_kwarg is not None:
        kwargs[job.seed_kwarg] = seed
    try:
        with _job_alarm(timeout_s):
            with trace.span("batch.job", job=job.name, seed=seed):
                value = job.func(*job.args, **kwargs)
    except Exception as exc:  # captured, reported, never re-raised
        return BatchJobResult(
            name=job.name, index=index, ok=False,
            error=f"{type(exc).__name__}: {exc}",
            runtime_s=time.perf_counter() - start, seed=seed,
            spans=trace.export_spans() if child_trace else [],
        )
    return BatchJobResult(
        name=job.name, index=index, ok=True, value=value,
        runtime_s=time.perf_counter() - start, seed=seed,
        spans=trace.export_spans() if child_trace else [],
    )


def _attempts(pool: TaskWorkerPool, index: int) -> list:
    """Run job ``index`` on ``pool``, retrying it on the respawned worker
    after a worker death (up to :data:`MAX_RETRIES` times); returns each
    attempt's outcome, a :class:`BatchJobResult` or the crash."""
    outcomes: list = []
    for attempt in range(MAX_RETRIES + 1):
        if attempt:
            time.sleep(RETRY_BACKOFF_S)
        try:
            outcomes.append(pool.run((index, attempt)))
            break
        except WorkerCrashed as exc:
            outcomes.append(exc)
    return outcomes


def _restore_value(value_type: str, payload):
    """Rebuild a manifest value recorded through a ``to_manifest`` codec.

    ``value_type`` is ``"module:QualName"`` of the original class; its
    ``from_manifest`` classmethod gets the JSON payload back.  Plain
    JSON values (empty ``value_type``) pass through untouched.
    """
    if not value_type:
        return payload
    module_name, _, qualname = value_type.partition(":")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj.from_manifest(payload)


class BatchManifest:
    """JSONL record of finished jobs, for resuming a killed batch.

    Each line is one finished job keyed by ``(index, name, seed)`` — the
    key includes the seed so a manifest written under a different batch
    seed (or job order) never leaks stale results into a resume.  A
    successful job is *restored* when its value is JSON-representable or
    its value's class offers a ``to_manifest()`` / ``from_manifest()``
    JSON codec (:class:`repro.tasks.result.TaskResult` does, minus the
    decoded solution); everything else is recorded for the log but
    re-runs.
    """

    def __init__(self, path: str):
        self.path = path
        self._handle = None
        self._disabled = False

    def load(self) -> dict[tuple[int, str, int], dict]:
        """Previously recorded jobs, keyed by (index, name, seed)."""
        entries: dict[tuple[int, str, int], dict] = {}
        try:
            with open(self.path, encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        continue  # torn trailing line from a kill
                    key = (
                        record.get("index"),
                        record.get("name"),
                        record.get("seed"),
                    )
                    entries[key] = record
        except FileNotFoundError:
            pass
        return entries

    def open(self) -> None:
        try:
            self._handle = open(self.path, "a", encoding="utf-8")
        except OSError as exc:
            self._disabled = True
            trace.event("manifest.open_failed", path=self.path,
                        error=str(exc))

    def record(self, result: BatchJobResult) -> None:
        """Append one finished job; flushed so a kill loses at most it."""
        if self._disabled or self._handle is None:
            return
        value, restorable, value_type = None, False, ""
        if result.ok:
            payload = result.value
            to_manifest = getattr(payload, "to_manifest", None)
            if callable(to_manifest):
                try:
                    payload = to_manifest()
                    value_type = (
                        f"{type(result.value).__module__}:"
                        f"{type(result.value).__qualname__}"
                    )
                except Exception:
                    payload, value_type = result.value, ""
            try:
                value = json.loads(json.dumps(payload))
                restorable = True
            except (TypeError, ValueError):
                value_type = ""  # non-JSON value: logged but re-run
        record = {
            "index": result.index, "name": result.name,
            "seed": result.seed, "ok": result.ok,
            "error": result.error, "runtime_s": result.runtime_s,
            "restorable": restorable, "value": value,
            "value_type": value_type,
        }
        try:
            self._handle.write(json.dumps(record) + "\n")
            self._handle.flush()
        except OSError as exc:
            self._disabled = True
            trace.event("manifest.write_failed", path=self.path,
                        error=str(exc))

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None


def run_batch(
    jobs: list[BatchJob],
    processes: int | None = None,
    seed: int = 0,
    job_timeout_s: float | None = None,
    manifest_path: str | None = None,
) -> BatchReport:
    """Run ``jobs`` concurrently over a pool of fork workers.

    ``processes`` defaults to :func:`repro.sat.portfolio.default_processes`.
    With ``processes <= 1``, a single job, or no ``fork`` support the batch
    runs serially in-process (bit-identical results).

    Otherwise ``min(processes, len(jobs))`` persistent workers run the
    jobs.  A worker that dies abruptly (beyond a captured Python
    exception) costs its one job: the job is retried on the respawned
    worker, then recovered serially in the parent.  ``job_timeout_s``
    bounds each job's wall clock (the job fails with
    :class:`BatchJobTimeout` instead of hanging the batch).
    ``manifest_path`` appends every finished job to a JSONL manifest and
    — when the file already exists — restores completed jobs from it
    instead of re-running them.
    """
    start = time.perf_counter()
    met = MetricsRegistry()
    if processes is None:
        processes = default_processes()
    seeds = [job_seed(seed, i, job.name) for i, job in enumerate(jobs)]

    results: list[BatchJobResult | None] = [None] * len(jobs)
    recovered: list[str] = []
    retried: list[str] = []
    resumed: list[str] = []
    pool_error = ""

    manifest = BatchManifest(manifest_path) if manifest_path else None
    if manifest is not None:
        previous = manifest.load()
        for i, job in enumerate(jobs):
            record = previous.get((i, job.name, seeds[i]))
            if record is None:
                continue
            if record.get("ok") and record.get("restorable"):
                try:
                    value = _restore_value(
                        record.get("value_type", ""), record.get("value")
                    )
                except Exception as exc:
                    trace.event("manifest.restore_failed", job=job.name,
                                error=f"{type(exc).__name__}: {exc}")
                    met.inc("batch.manifest_skipped")
                    continue
                results[i] = BatchJobResult(
                    name=job.name, index=i, ok=True, value=value,
                    runtime_s=record.get("runtime_s", 0.0),
                    seed=seeds[i],
                )
                resumed.append(job.name)
                met.inc("batch.manifest_restored")
            else:
                met.inc("batch.manifest_skipped")
        manifest.open()

    todo = [i for i in range(len(jobs)) if results[i] is None]
    serial = processes <= 1 or len(jobs) <= 1 or not fork_available()

    def note_pool_error(exc: BaseException) -> None:
        nonlocal pool_error
        message = f"{type(exc).__name__}: {exc}"
        if not pool_error:
            pool_error = message
        met.inc("batch.pool_broken")
        trace.event("batch.pool_broken", error=message)

    def finish(result: BatchJobResult) -> None:
        results[result.index] = result
        if not result.ok and result.error.startswith("BatchJobTimeout"):
            met.inc("batch.job_timeouts")
        if manifest is not None:
            manifest.record(result)

    def serve(msg: tuple[int, int]) -> BatchJobResult:
        # Runs in a pool worker, which inherits ``jobs`` through fork.
        index, attempt = msg
        return _execute(jobs[index], index, seeds[index], job_timeout_s,
                        in_pool=True, attempt=attempt)

    with trace.span(
        "batch", jobs=len(jobs), processes=processes, serial=serial
    ):
        if serial:
            for i in todo:
                finish(_execute(jobs[i], i, seeds[i], job_timeout_s))
        elif todo:
            try:
                pool = TaskWorkerPool(min(processes, len(todo)), serve)
            except OSError as exc:
                note_pool_error(exc)  # every job recovers in the parent
            else:
                # One driver thread per worker; results, counters, span
                # merges and manifest writes stay on this thread.
                drivers = ThreadPoolExecutor(pool.processes)
                try:
                    futures = {drivers.submit(_attempts, pool, i): i
                               for i in todo}
                    for future in as_completed(futures):
                        i = futures[future]
                        for attempt, outcome in enumerate(future.result()):
                            if isinstance(outcome, BatchJobResult):
                                trace.merge(outcome.spans)
                                finish(outcome)
                                continue
                            note_pool_error(outcome)
                            if attempt:
                                met.inc("retry.worker_deaths")
                            if attempt < MAX_RETRIES:
                                met.inc("retry.attempts")
                                met.observe("retry.backoff_s",
                                            RETRY_BACKOFF_S)
                                retried.append(jobs[i].name)
                finally:
                    pool.close()
                    drivers.shutdown(cancel_futures=True)

            # Last resort: run what is still missing serially in the
            # parent (no fault hooks fire here, so injected kills
            # cannot reach this path).
            for i in todo:
                if results[i] is None:
                    finish(_execute(jobs[i], i, seeds[i], job_timeout_s))
                    recovered.append(jobs[i].name)
                    met.inc("batch.serial_recoveries")
                    trace.event("batch.serial_recovery", job=jobs[i].name)

    if manifest is not None:
        manifest.close()

    return BatchReport(
        results=[result for result in results if result is not None],
        wall_time_s=time.perf_counter() - start,
        processes=processes,
        serial=serial,
        recovered_jobs=recovered,
        retried_jobs=retried,
        resumed_jobs=resumed,
        pool_error=pool_error,
        metrics=met.as_dict(),
    )


# ----------------------------------------------------------------------
# Ready-made batches
# ----------------------------------------------------------------------


def run_case_task(case: str, task: str, parallel: int = 1, **kwargs):
    """Run one design task on one named case study (a batchable unit).

    ``case`` is the case-study key (e.g. ``"running-example"``), ``task``
    one of ``"verification"``, ``"generation"``, ``"optimization"``.
    Remaining keyword arguments are forwarded to the task function.
    """
    from repro.casestudies import case_study
    from repro.tasks.generation import generate_layout
    from repro.tasks.optimization import optimize_schedule
    from repro.tasks.verification import verify_schedule

    study = case_study(case)
    net = study.discretize()
    if task == "verification":
        return verify_schedule(
            net, study.schedule, study.r_t_min, parallel=parallel, **kwargs
        )
    if task == "generation":
        return generate_layout(
            net, study.schedule, study.r_t_min, parallel=parallel, **kwargs
        )
    if task == "optimization":
        return optimize_schedule(
            net, study.schedule, study.r_t_min, parallel=parallel, **kwargs
        )
    raise ValueError(f"unknown task {task!r}")


def table1_jobs(
    skip_slow: bool = False, parallel: int = 1, profile: bool = False
) -> list[BatchJob]:
    """The paper's Table I (all case studies × all three tasks) as a batch.

    ``parallel`` and ``profile`` reach every row's task call.
    """
    from repro.casestudies import all_case_studies

    studies = all_case_studies()
    if skip_slow:
        studies = studies[:2]
    jobs = []
    for study in studies:
        key = study.key
        for task, kwargs in (
            ("verification", {}),
            ("generation", {}),
            ("optimization", {"minimize_borders_secondary": True}),
        ):
            jobs.append(
                BatchJob(
                    name=f"{key}/{task}",
                    func=run_case_task,
                    args=(key, task),
                    kwargs={"parallel": parallel, "profile": profile,
                            **kwargs},
                )
            )
    return jobs


def run_table1(
    skip_slow: bool = False,
    processes: int | None = None,
    parallel: int = 1,
    job_timeout_s: float | None = None,
    manifest_path: str | None = None,
    profile: bool = False,
) -> BatchReport:
    """Regenerate Table I as a batch: one job per row, ``processes`` wide
    (serially in process at ``processes <= 1``)."""
    return run_batch(
        table1_jobs(skip_slow, parallel, profile),
        processes=processes,
        job_timeout_s=job_timeout_s,
        manifest_path=manifest_path,
    )
