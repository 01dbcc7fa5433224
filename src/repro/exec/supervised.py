"""A supervised ``ProcessPoolExecutor``: deadlines, retry, degradation.

``concurrent.futures.ProcessPoolExecutor`` is brittle in exactly the
ways a long synthesis campaign cannot afford: one worker dying (OOM
kill, segfault in a C extension, ``os._exit``) raises
``BrokenProcessPool`` on *every* pending future and poisons the pool;
a hung worker stalls the whole ``map``; an unpicklable exception
surfaces as an opaque pickling error; and any of these loses every
already-completed result of the batch.

:class:`SupervisedPool` keeps the executor but gives every worker its
own: a slot is a one-worker ``ProcessPoolExecutor`` plus the task it is
running, so a dead or hung worker breaks only its own slot and costs
only its own task, as one faulty cell costs only the module on it.

* **Deadlines.** A slot runs one task at a time, so a submitted task
  starts immediately and ``submit time + task_timeout`` is its
  deadline. A watchdog SIGKILLs an overrun slot's worker (a hung
  worker ignores polite shutdown) and rebuilds that slot's executor.
* **Bounded retry.** A lost execution (worker death, deadline overrun,
  non-library exception) is retried up to ``max_retries`` times with a
  deterministic exponential backoff. A worker that dies between tasks
  costs no task an attempt: the next task goes back to the queue and
  the slot is rebuilt.
* **Graceful degradation.** Past ``pool_failure_limit`` slot rebuilds
  the pool gives up on process isolation, tears every slot down and
  drains the in-flight and queued tasks in-process, serially, each at
  its current attempt — slower, but a campaign finishes.
* **No orphans.** Every worker watches the process that started it and
  exits once that process is gone, so a SIGKILLed campaign leaves no
  worker behind.
* **Structured outcomes.** Every task yields a :class:`TaskOutcome`
  (``ok | infeasible | timeout | crashed | retried-then-ok``) carrying
  either the value or the originating error text, so callers merge
  partial results instead of catching one exception for N tasks.

Determinism contract: task functions are pure functions of their
(pre-seeded) task payload, outcomes are collected by task index, and a
retry resubmits the identical payload — so results are bit-identical
for any worker count, any retry history, and any injected chaos that
retries eventually recover (property-tested in
``tests/test_exec_supervised.py``).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
import time
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.testing.chaos import ChaosPolicy
from repro.util.errors import ReproError

#: Final per-task statuses. ``ok``/``retried-then-ok`` carry a value;
#: the others carry the originating error text.
STATUS_OK = "ok"
STATUS_RETRIED_OK = "retried-then-ok"
STATUS_INFEASIBLE = "infeasible"
STATUS_TIMEOUT = "timeout"
STATUS_CRASHED = "crashed"

ALL_STATUSES = (
    STATUS_OK,
    STATUS_RETRIED_OK,
    STATUS_INFEASIBLE,
    STATUS_TIMEOUT,
    STATUS_CRASHED,
)


@dataclass
class TaskOutcome:
    """One task's supervised execution record."""

    index: int
    key: str
    status: str
    #: Executions performed (1 = clean first run; retries add one each).
    attempts: int
    value: object = None
    error: str | None = None
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status in (STATUS_OK, STATUS_RETRIED_OK)

    def to_dict(self) -> dict:
        """JSON-safe summary; ``value`` is the caller's to serialize."""
        return {
            "index": self.index,
            "key": self.key,
            "status": self.status,
            "attempts": self.attempts,
            "error": self.error,
            "wall_s": self.wall_s,
        }


def _init_worker() -> None:
    """Worker initializer: exit when the process that started us is gone.

    A parent killed by SIGKILL cannot shut its pool down, and its
    workers, re-parented, would live on and hold its stdout open. A
    daemon thread waits on the pool's process's sentinel and exits the
    worker once it fires. The sentinel names that process under every
    start method; the OS parent does not: a ``forkserver`` worker's is
    the fork server, which outlives the pool's process while any worker
    does.
    """
    parent = multiprocessing.parent_process()

    def watch() -> None:
        parent.join()
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()


def _supervised_call(fn, task, index: int, attempt: int, chaos: ChaosPolicy | None):
    """Worker entry point — module level so it pickles.

    Chaos fires *before* the task body: it models the worker failing,
    not the work being wrong, which is what keeps retried results
    bit-identical to an uninjected run.
    """
    if chaos is not None:
        chaos.inject(index, attempt)
    return fn(task)


@dataclass
class _TaskState:
    """Book-keeping for one task not yet finalized."""

    index: int
    attempt: int = 0  # next attempt number (0-based)
    started: float = 0.0  # first submit instant (monotonic)


@dataclass
class _Slot:
    """One single-worker executor and the task it is running, if any."""

    executor: ProcessPoolExecutor | None = None
    task: _TaskState | None = None
    future: Future | None = None
    deadline: float = math.inf  # ``task``'s deadline (monotonic)

    def take(self) -> _TaskState:
        """Free the slot and return the task it was running."""
        task, self.task, self.future = self.task, None, None
        return task


class SupervisedPool:
    """Deadline/retry/degradation supervision over a process pool.

    *jobs* = 1 executes in-process with no pool (and no deadlines:
    nothing can preempt the caller's own thread); *jobs* > 1 fans tasks
    over at most ``min(jobs, #tasks)`` worker processes. *task_timeout*
    is the per-task deadline in seconds (``None`` = none).
    *max_retries* bounds how many times one task may be re-executed
    after a worker death, deadline overrun, or non-library exception.
    *chaos* injects deterministic worker faults (``None`` = consult
    ``REPRO_CHAOS``; pass ``ChaosPolicy.none()`` to force quiet).
    """

    #: Deterministic backoff before resubmitting attempt k (seconds):
    #: ``backoff_base * 2**(k-1)``, capped at ``BACKOFF_CAP_S``. Real
    #: crash storms (OOM, a dying node) need breathing room; tests
    #: shrink the base to ~0.
    BACKOFF_CAP_S = 1.0

    def __init__(
        self,
        jobs: int = 1,
        task_timeout: float | None = None,
        max_retries: int = 2,
        chaos: ChaosPolicy | None = None,
        pool_failure_limit: int = 3,
        backoff_base: float = 0.05,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, got {task_timeout}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if pool_failure_limit < 0:
            raise ValueError(
                f"pool_failure_limit must be >= 0, got {pool_failure_limit}"
            )
        self.jobs = jobs
        self.task_timeout = task_timeout
        self.max_retries = max_retries
        self.chaos = ChaosPolicy.from_env() if chaos is None else chaos
        if self.chaos is not None and not self.chaos.active:
            self.chaos = None
        self.pool_failure_limit = pool_failure_limit
        self.backoff_base = backoff_base
        #: Pool rebuilds this instance performed (stats/tests).
        self.rebuilds = 0
        #: True once a map degraded to in-process serial execution.
        self.degraded = False

    # -- public API -----------------------------------------------------------

    def map(
        self,
        fn: Callable,
        tasks: Sequence,
        keys: Iterable[str] | None = None,
        on_outcome: Callable[[TaskOutcome], None] | None = None,
    ) -> list[TaskOutcome]:
        """Run ``fn(task)`` for every task under supervision.

        Returns one :class:`TaskOutcome` per task, **in task order**.
        *keys* names tasks for journals/error records (defaults to the
        stringified index). *on_outcome* is called in the parent, in
        completion order, as each task finalizes — the journaling hook.
        """
        tasks = list(tasks)
        keys = [str(i) for i in range(len(tasks))] if keys is None else list(keys)
        if len(keys) != len(tasks):
            raise ValueError(
                f"got {len(keys)} keys for {len(tasks)} tasks"
            )
        if not tasks:
            return []
        outcomes: list[TaskOutcome | None] = [None] * len(tasks)

        def finalize(outcome: TaskOutcome) -> None:
            outcomes[outcome.index] = outcome
            if on_outcome is not None:
                on_outcome(outcome)

        if self.jobs == 1 or len(tasks) == 1:
            for i, task in enumerate(tasks):
                finalize(self._run_serial(fn, task, i, keys[i], attempt=0))
        else:
            self._map_parallel(fn, tasks, keys, finalize)
        assert all(o is not None for o in outcomes)
        return outcomes  # type: ignore[return-value]

    # -- serial / degraded execution ------------------------------------------

    def _run_serial(
        self, fn, task, index: int, key: str, attempt: int
    ) -> TaskOutcome:
        """One in-process execution (the jobs=1 and degraded paths).

        No deadline applies — nothing can preempt the caller's own
        thread — and chaos never fires in the parent process, so a
        degraded campaign always terminates.
        """
        t0 = time.perf_counter()
        try:
            value = _supervised_call(fn, task, index, attempt, self.chaos)
        except ReproError as exc:
            return TaskOutcome(
                index, key, STATUS_INFEASIBLE, attempt + 1,
                error=f"{type(exc).__name__}: {exc}",
                wall_s=time.perf_counter() - t0,
            )
        except Exception as exc:  # a bug in the task body, not the library
            return TaskOutcome(
                index, key, STATUS_CRASHED, attempt + 1,
                error=f"{type(exc).__name__}: {exc}",
                wall_s=time.perf_counter() - t0,
            )
        status = STATUS_OK if attempt == 0 else STATUS_RETRIED_OK
        return TaskOutcome(
            index, key, status, attempt + 1, value=value,
            wall_s=time.perf_counter() - t0,
        )

    # -- the supervisor loop --------------------------------------------------

    def _map_parallel(self, fn, tasks, keys, finalize) -> None:
        queue: deque[_TaskState] = deque(_TaskState(i) for i in range(len(tasks)))
        slots = [_Slot() for _ in range(min(self.jobs, len(tasks)))]

        def exhaust(p: _TaskState, status: str, reason: str) -> None:
            finalize(
                TaskOutcome(
                    p.index, keys[p.index], status, p.attempt + 1, error=reason,
                    wall_s=time.monotonic() - p.started,
                )
            )

        def lost(p: _TaskState, status_if_exhausted: str, reason: str) -> None:
            """A lost execution: retry with backoff or finalize."""
            if p.attempt >= self.max_retries:
                exhaust(p, status_if_exhausted, reason)
                return
            delay = min(self.BACKOFF_CAP_S, self.backoff_base * 2**p.attempt)
            if delay > 0:
                time.sleep(delay)
            p.attempt += 1
            queue.append(p)

        def handle_done(fut: Future, p: _TaskState) -> bool:
            """Finalize one completed future; True if its worker died."""
            try:
                value = fut.result()
            except ReproError as exc:
                # A library-declared failure is the *task's* verdict —
                # deterministic, so retrying cannot change it.
                finalize(
                    TaskOutcome(
                        p.index, keys[p.index], STATUS_INFEASIBLE, p.attempt + 1,
                        error=f"{type(exc).__name__}: {exc}",
                        wall_s=time.monotonic() - p.started,
                    )
                )
            except BrokenProcessPool:
                lost(
                    p, STATUS_CRASHED,
                    f"worker process died (attempt {p.attempt + 1})",
                )
                return True
            except Exception as exc:
                # Anything else — including the executor's "unpicklable
                # exception" wrapper — is a worker-side failure: retry.
                lost(p, STATUS_CRASHED, f"{type(exc).__name__}: {exc}")
            else:
                status = STATUS_OK if p.attempt == 0 else STATUS_RETRIED_OK
                finalize(
                    TaskOutcome(
                        p.index, keys[p.index], status, p.attempt + 1, value=value,
                        wall_s=time.monotonic() - p.started,
                    )
                )
            return False

        def retire(slot: _Slot, kill: bool) -> None:
            """Dispose of one slot's executor; its next task gets a new one."""
            self._teardown(slot.executor, kill)
            slot.executor = None
            self.rebuilds += 1

        try:
            while queue or any(s.task is not None for s in slots):
                if self.rebuilds > self.pool_failure_limit:
                    self.degraded = True
                    break

                # One task per worker, so every submitted task starts
                # immediately and its deadline clock is real.
                for slot in slots:
                    if slot.task is not None or not queue:
                        continue
                    if slot.executor is None:
                        slot.executor = ProcessPoolExecutor(
                            max_workers=1, initializer=_init_worker
                        )
                    p = queue.popleft()
                    try:
                        slot.future = slot.executor.submit(
                            _supervised_call, fn, tasks[p.index], p.index, p.attempt,
                            self.chaos,
                        )
                    except BrokenProcessPool:
                        # The worker died between tasks: not p's doing.
                        queue.appendleft(p)
                        retire(slot, kill=False)
                        continue
                    now = time.monotonic()
                    slot.task, slot.deadline = p, now + (self.task_timeout or math.inf)
                    if p.started == 0.0:
                        p.started = now

                busy = {s.future: s for s in slots if s.task is not None}
                nearest = min((s.deadline for s in busy.values()), default=math.inf)
                timeout = None
                if nearest < math.inf:
                    timeout = max(0.0, nearest - time.monotonic())
                done, _ = wait(busy, timeout=timeout, return_when=FIRST_COMPLETED)
                for fut in done:
                    slot = busy[fut]
                    if handle_done(fut, slot.take()):
                        retire(slot, kill=False)

                now = time.monotonic()
                for slot in slots:
                    if slot.task is not None and now > slot.deadline:
                        # A hung worker never yields control back to its
                        # executor: SIGKILL it.
                        retire(slot, kill=True)
                        p = slot.take()
                        lost(
                            p, STATUS_TIMEOUT,
                            f"deadline {self.task_timeout:g}s exceeded "
                            f"(attempt {p.attempt + 1})",
                        )
        finally:
            for slot in slots:
                if slot.executor is not None:
                    self._teardown(slot.executor, kill=self.degraded)

        # Degraded: process isolation failed too often to be worth its
        # cost, so what is left runs in-process, each at its current attempt.
        for p in [s.task for s in slots if s.task is not None] + list(queue):
            finalize(
                self._run_serial(fn, tasks[p.index], p.index, keys[p.index], p.attempt)
            )

    @staticmethod
    def _teardown(executor: ProcessPoolExecutor, kill: bool) -> None:
        """Shut one slot's executor down.

        ``kill=True`` SIGKILLs the worker process first — the only way
        to reclaim a worker stuck in C code or a sleep. Reaches into
        ``_processes`` (no public API exposes the workers); guarded so
        a stdlib rename degrades to a plain shutdown.
        """
        if kill:
            for proc in list(getattr(executor, "_processes", {}).values()):
                try:
                    proc.kill()
                except Exception:
                    pass
        try:
            executor.shutdown(wait=True, cancel_futures=True)
        except Exception:
            pass
