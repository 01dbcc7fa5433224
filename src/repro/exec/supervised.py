"""Supervised worker processes: deadlines, retry, degradation.

:class:`SupervisedPool` runs tasks on a fixed list of slots. A slot is
one long-lived worker process, one pipe to it, and the task it is
running, so a dead or hung worker costs only its own task, as one
faulty cell costs only the module on it. The parent is one thread. It
waits on every busy slot's pipe and process sentinel at once, with the
nearest deadline as the timeout, and reads three signals:

* **A readable pipe is a reply**: the task's value or the exception it
  raised. A reply that will not pickle in the worker, or will not
  unpickle in the parent, arrives as that error's text and is retried;
  the pipe stays usable.
* **A ready sentinel with no reply is a dead worker** (OOM kill,
  segfault, ``os._exit``): its task is charged an attempt and the slot
  respawned. A worker that dies between tasks charges no task.
* **A passed deadline** (``task_timeout`` after the task was sent, or
  after the worker reported ready if it was still starting, so a
  worker's start-up never counts against its first task; a slot runs
  one task at a time) SIGKILLs the worker, charges its task an attempt
  and respawns the slot. A worker that dies while starting is caught by
  its sentinel like any other death.

A lost execution is retried up to ``max_retries`` times with a
deterministic exponential backoff. Past ``pool_failure_limit`` slot
respawns the pool drains the in-flight and queued tasks in-process,
serially, each at its current attempt, so a campaign still finishes.
A worker exits once the process that started it is gone, so a
SIGKILLed campaign leaves no orphans. Every task yields a
:class:`TaskOutcome` with its status, value or error text.

A map may label its tasks with ``groups`` (unlabelled, every task is
its own group, so tasks dispatch in task order). Tasks of one group
share a costly prefix that a worker keeps between tasks
(a campaign unit's synthesis), so a free slot then takes the next
queued task of its own group, else the first task of a group no slot
has started, else it steals from the group with the most queued tasks,
among those with more queued tasks than slots running them (the
thief builds the prefix again, so it never races the group's own
slots for its last tasks). A slot never leaves its group while that
group has queued tasks, and every group is started by one slot before
any is shared. A retried task goes first in its group, so the slot
that lost it runs it next.

A group's tasks share the prefix, so a worker loss is charged to the
group: deaths and overruns of its tasks count toward
``pool_failure_limit`` once per attempt depth (losing two workers to
one slow prefix at attempt 0 is one failure, as when the group was one
task), and once a task of the group exhausts its retries to them, the
group's queued tasks get that outcome unrun and a running one gets it
when it is lost too. A task that raises is retried and finalized on
its own, as at ``jobs=1``.

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
import pickle
import threading
import time
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from multiprocessing.reduction import ForkingPickler

from repro.testing.chaos import ChaosPolicy
from repro.util.errors import ReproError

#: Final per-task statuses. ``ok``/``retried-then-ok`` carry a value;
#: the others carry the originating error text.
STATUS_OK = "ok"
STATUS_RETRIED_OK = "retried-then-ok"
STATUS_INFEASIBLE = "infeasible"
STATUS_TIMEOUT = "timeout"
STATUS_CRASHED = "crashed"


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


#: Reply kinds: the task's value, the exception it raised, or the text
#: of an error that kept either from crossing the pipe.
_VALUE, _RAISED, _FAILED = "value", "raised", "failed"

#: The message that stops a worker. It must be explicit: a forked
#: sibling inherits the parent's end of this pipe, so EOF never arrives.
_STOP = b""

#: A worker's first message: it has started (under ``spawn`` and
#: ``forkserver``, imported this module) and is reading its pipe. No
#: reply is empty, since every reply is a pickle.
_READY = b""


#: A slot's group before its first task: equal to no group label.
_NO_GROUP = object()


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _supervised_call(fn, task, index: int, attempt: int, chaos: ChaosPolicy | None):
    """Run one task, in a worker or (serial paths) in-process.

    Chaos fires *before* the task body: it models the worker failing,
    not the work being wrong, which is what keeps retried results
    bit-identical to an uninjected run.
    """
    if chaos is not None:
        chaos.inject(index, attempt)
    return fn(task)


def _serve(conn: Connection) -> None:
    """A slot's worker loop: one ``_supervised_call`` per message.

    A daemon thread exits the worker once the process that started it
    is gone (a SIGKILLed parent cannot stop its workers). That process
    is ``multiprocessing.parent_process()`` under every start method;
    the OS parent of a ``forkserver`` worker is the fork server.
    """
    parent = multiprocessing.parent_process()

    def watch() -> None:
        parent.join()
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()
    conn.send_bytes(_READY)
    while (data := conn.recv_bytes()) != _STOP:
        try:
            reply = (_VALUE, _supervised_call(*pickle.loads(data)))
        except Exception as exc:
            reply = (_RAISED, exc)
        try:
            data = ForkingPickler.dumps(reply)
        except Exception as exc:
            data = ForkingPickler.dumps((_FAILED, _describe(exc)))
        conn.send_bytes(data)


@dataclass
class _TaskState:
    """Book-keeping for one task not yet finalized."""

    index: int
    attempt: int = 0  # next attempt number (0-based)
    started: float = 0.0  # first send instant (monotonic)


@dataclass
class _Slot:
    """One worker process, the parent's end of its pipe, and its task."""

    proc: multiprocessing.process.BaseProcess | None = None
    conn: Connection | None = None
    task: _TaskState | None = None
    deadline: float = math.inf  # ``task``'s deadline (monotonic)
    ready: bool = False  # the worker has sent ``_READY``
    group: object = _NO_GROUP  # the group of the last task sent here

    def take(self) -> _TaskState:
        """Free the slot and return the task it was running."""
        task, self.task = self.task, None
        return task

    def start(self) -> None:
        conn, child = multiprocessing.Pipe()
        proc = multiprocessing.Process(target=_serve, args=(child,))
        with child:
            proc.start()
        self.proc, self.conn, self.ready = proc, conn, False

    def stop(self, kill: bool) -> None:
        """End the worker: SIGKILL it if *kill* (a busy or hung worker
        does not read its pipe), else send it the stop message."""
        if kill:
            self.proc.kill()
        else:
            try:
                self.conn.send_bytes(_STOP)
            except OSError:
                pass  # it died idle; nothing is left to stop
        self.proc.join()
        self.proc.close()
        self.conn.close()
        self.proc = self.conn = None


class _GroupQueue:
    """The queued tasks of a map: one deque per group, groups in
    task order, and the groups no slot has started (the dispatch rule
    of the module docstring, each step O(1) but the steal, which scans
    only groups that still have queued tasks)."""

    def __init__(self, groups: Sequence) -> None:
        self.groups = groups
        self.queues: dict[object, deque[_TaskState]] = {}
        for i, group in enumerate(groups):
            self.queues.setdefault(group, deque()).append(_TaskState(i))
        # Groups start in task order, so this is a FIFO too.
        self.unstarted = deque(self.queues)
        self.size = len(groups)

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        for queue in self.queues.values():
            yield from queue

    def take(self, own: object, slots: Sequence[_Slot]) -> _TaskState | None:
        """Remove and return the task a free slot whose last task was of
        group *own* runs next, or ``None`` to leave it idle."""
        if not self.queues.get(own):
            if self.unstarted:
                own = self.unstarted.popleft()
            else:
                running: dict[object, int] = {}
                for s in slots:
                    if s.task is not None:
                        running[s.group] = running.get(s.group, 0) + 1
                backlog = {
                    g: len(q) for g, q in self.queues.items()
                    if len(q) > running.get(g, 0)
                }
                if not backlog:
                    return None
                own = max(backlog, key=backlog.__getitem__)
        queue = self.queues[own]
        p = queue.popleft()
        if not queue:
            del self.queues[own]
        self.size -= 1
        return p

    def putback(self, p: _TaskState) -> None:
        """Queue *p* first in its group (a retry, or a task its worker
        died before receiving)."""
        self.queues.setdefault(self.groups[p.index], deque()).appendleft(p)
        self.size += 1

    retry = putback

    def drain(self, group: object) -> list[_TaskState]:
        """Remove and return *group*'s queued tasks."""
        queue = self.queues.pop(group, ())
        self.size -= len(queue)
        return list(queue)


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

    A map's optional *groups* labels each task for the group dispatch
    and group failure of the module docstring. A deadline bounds one
    task, including whatever its worker builds for the group on its
    first task of it.
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
        #: Slot respawns this instance performed (stats/tests).
        self.rebuilds = 0
        #: True once a map degraded to in-process serial execution.
        self.degraded = False
        #: Worker losses charged toward ``pool_failure_limit``.
        self._charged = 0

    # -- public API -----------------------------------------------------------

    def map(
        self,
        fn: Callable,
        tasks: Sequence,
        keys: Iterable[str] | None = None,
        on_outcome: Callable[[TaskOutcome], None] | None = None,
        groups: Iterable | None = None,
    ) -> list[TaskOutcome]:
        """Run ``fn(task)`` for every task under supervision.

        Returns one :class:`TaskOutcome` per task, **in task order**.
        *keys* names tasks for journals/error records (defaults to the
        stringified index). *on_outcome* is called in the parent, in
        completion order, as each task finalizes — the journaling hook.
        *groups* labels each task for dispatch (``None``: each task its
        own group); the ``jobs=1`` path runs in task order either way.
        """
        tasks = list(tasks)
        keys = [str(i) for i in range(len(tasks))] if keys is None else list(keys)
        if len(keys) != len(tasks):
            raise ValueError(f"got {len(keys)} keys for {len(tasks)} tasks")
        groups = range(len(tasks)) if groups is None else list(groups)
        if len(groups) != len(tasks):
            raise ValueError(f"got {len(groups)} groups for {len(tasks)} tasks")
        if not tasks:
            return []
        outcomes: list[TaskOutcome | None] = [None] * len(tasks)

        def finalize(outcome: TaskOutcome) -> None:
            outcomes[outcome.index] = outcome
            if on_outcome is not None:
                on_outcome(outcome)

        if self.jobs == 1:
            for i, task in enumerate(tasks):
                finalize(self._run_serial(fn, task, i, keys[i], attempt=0))
        else:
            self._map_parallel(fn, tasks, keys, groups, finalize)
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
        except Exception as exc:
            # A library-declared failure is the task's verdict; anything
            # else is a bug in the task body.
            status = STATUS_INFEASIBLE if isinstance(exc, ReproError) else STATUS_CRASHED
            return TaskOutcome(
                index, key, status, attempt + 1, error=_describe(exc),
                wall_s=time.perf_counter() - t0,
            )
        status = STATUS_OK if attempt == 0 else STATUS_RETRIED_OK
        return TaskOutcome(
            index, key, status, attempt + 1, value=value,
            wall_s=time.perf_counter() - t0,
        )

    # -- the supervisor loop --------------------------------------------------

    def _map_parallel(self, fn, tasks, keys, groups, finalize) -> None:
        queue = _GroupQueue(groups)
        slots = [_Slot() for _ in range(min(self.jobs, len(tasks)))]
        #: Per group, the deepest attempt a worker was lost at; and the
        #: groups one of whose tasks exhausted its retries to worker
        #: losses.
        depth: dict = {}
        gone: set = set()

        def outcome(p: _TaskState, status: str, **fields) -> None:
            finalize(
                TaskOutcome(
                    p.index, keys[p.index], status, p.attempt + 1,
                    wall_s=time.monotonic() - p.started, **fields,
                )
            )

        def lost(
            p: _TaskState, status_if_exhausted: str, reason: str,
            worker: bool = False,
        ) -> None:
            """A lost execution (*worker*: its worker died or overran):
            retry with backoff or finalize."""
            group = groups[p.index]
            if p.attempt < self.max_retries and not (worker and group in gone):
                delay = min(self.BACKOFF_CAP_S, self.backoff_base * 2**p.attempt)
                if delay > 0:
                    time.sleep(delay)
                p.attempt += 1
                queue.retry(p)
                return
            outcome(p, status_if_exhausted, error=reason)
            if worker and group not in gone:
                gone.add(group)
                error = f"not run: {keys[p.index]} of its group was lost: {reason}"
                for q in queue.drain(group):
                    finalize(TaskOutcome(
                        q.index, keys[q.index], status_if_exhausted, q.attempt,
                        error=error,
                        wall_s=time.monotonic() - q.started if q.started else 0.0,
                    ))

        def settle(p: _TaskState, data: bytes) -> None:
            """Finalize or retry one task from its worker's reply."""
            try:
                kind, payload = pickle.loads(data)
            except Exception as exc:
                kind, payload = _FAILED, f"reply could not be decoded: {_describe(exc)}"
            if kind == _VALUE:
                status = STATUS_OK if p.attempt == 0 else STATUS_RETRIED_OK
                outcome(p, status, value=payload)
            elif kind == _RAISED and isinstance(payload, ReproError):
                # A library-declared failure is the *task's* verdict —
                # deterministic, so retrying cannot change it.
                outcome(p, STATUS_INFEASIBLE, error=_describe(payload))
            else:
                reason = payload if kind == _FAILED else _describe(payload)
                lost(p, STATUS_CRASHED, reason)

        def respawn(slot: _Slot, p: _TaskState | None = None) -> None:
            """Kill one slot's worker (its next task gets a new one) and
            charge the loss: once per attempt depth of the group of *p*,
            the task it was running, or once if it was running none."""
            slot.stop(kill=True)
            self.rebuilds += 1
            if p is not None:
                group = groups[p.index]
                if p.attempt < depth.get(group, 0):
                    return
                depth[group] = p.attempt + 1
            self._charged += 1

        try:
            while queue or any(s.task is not None for s in slots):
                if self._charged > self.pool_failure_limit:
                    self.degraded = True
                    break

                # One task per worker, so a sent task starts as soon as
                # its worker is ready and its deadline clock is real.
                for slot in slots:
                    if slot.task is not None or not queue:
                        continue
                    p = queue.take(slot.group, slots)
                    if p is None:
                        continue
                    slot.group = groups[p.index]
                    if p.started == 0.0:
                        p.started = time.monotonic()
                    try:
                        data = ForkingPickler.dumps(
                            (fn, tasks[p.index], p.index, p.attempt, self.chaos)
                        )
                    except Exception as exc:  # no worker could run it
                        lost(p, STATUS_CRASHED, _describe(exc))
                        continue
                    if slot.proc is None:
                        slot.start()
                    try:
                        slot.conn.send_bytes(data)
                    except OSError:
                        # The worker died between tasks: not p's doing.
                        queue.putback(p)
                        respawn(slot)
                        continue
                    slot.task = p
                    # A starting worker's clock starts when it is ready.
                    slot.deadline = (
                        time.monotonic() + (self.task_timeout or math.inf)
                        if slot.ready else math.inf
                    )

                busy = [s for s in slots if s.task is not None]
                if not busy:
                    continue
                nearest = min(s.deadline for s in busy)
                timeout = None
                if nearest < math.inf:
                    timeout = max(0.0, nearest - time.monotonic())
                ready = wait([s.conn for s in busy] + [s.proc.sentinel for s in busy], timeout)
                now = time.monotonic()
                for slot in busy:
                    dead = slot.proc.sentinel in ready
                    if slot.conn in ready:
                        try:
                            data = slot.conn.recv_bytes()
                        except (EOFError, OSError):
                            dead = True
                        else:
                            if data == _READY:
                                slot.ready = True
                                slot.deadline = now + (self.task_timeout or math.inf)
                            else:
                                settle(slot.take(), data)
                    if dead:
                        p = slot.take()
                        respawn(slot, p)
                        if p is not None:
                            lost(
                                p, STATUS_CRASHED,
                                f"worker process died (attempt {p.attempt + 1})",
                                worker=True,
                            )
                    elif slot.task is not None and now > slot.deadline:
                        # A hung worker never reads its pipe again: SIGKILL it.
                        p = slot.take()
                        respawn(slot, p)
                        lost(
                            p, STATUS_TIMEOUT,
                            f"deadline {self.task_timeout:g}s exceeded "
                            f"(attempt {p.attempt + 1})",
                            worker=True,
                        )
        finally:
            for slot in slots:
                if slot.proc is not None:
                    slot.stop(kill=slot.task is not None)

        # Degraded: process isolation failed too often to be worth its
        # cost, so what is left runs in-process, each at its current attempt.
        for p in [s.task for s in slots if s.task is not None] + list(queue):
            finalize(
                self._run_serial(fn, tasks[p.index], p.index, keys[p.index], p.attempt)
            )
