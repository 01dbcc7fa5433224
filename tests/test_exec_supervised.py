"""Supervision semantics of :class:`repro.exec.SupervisedPool`.

Every supervision path is driven by deterministic chaos injection
(:mod:`repro.testing.chaos`) rather than real faults, so the suite is
reproducible on a single-core box. Sizes are deliberately tiny — the
pool's behaviour, not its throughput, is under test.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import (
    STATUS_CRASHED,
    STATUS_INFEASIBLE,
    STATUS_OK,
    STATUS_RETRIED_OK,
    STATUS_TIMEOUT,
    SupervisedPool,
    TaskOutcome,
)
from repro.exec.supervised import _NO_GROUP, _GroupQueue, _Slot
from repro.testing.chaos import ChaosPolicy
from repro.util.errors import PipelineError


def square(x):
    return x * x


def square_or_infeasible(x):
    if x % 2:
        raise PipelineError(f"odd input {x}")
    return x * x


def buggy(x):
    raise KeyError(x)


def square_or_closure(x):
    return (lambda: x) if x == "closure" else x * x


class BadUnpickle(Exception):
    """Pickles, but unpickling calls ``__init__`` with one argument of two."""

    def __init__(self, a, b):
        super().__init__(a)


def square_or_bad_unpickle(x):
    if x in (1, 3):
        raise BadUnpickle("x", "y")
    return x * x


def slow_square(args):
    import time

    x, delay = args
    time.sleep(delay)
    return x * x


def worker_pid(_):
    return os.getpid()


def nap_in_group(args):
    """Sleep *delay*; return (worker pid, start instant, group)."""
    group, delay = args
    start = time.monotonic()
    time.sleep(delay)
    return os.getpid(), start, group


def quiet_pool(**kw):
    kw.setdefault("chaos", ChaosPolicy.none())
    kw.setdefault("backoff_base", 0.0)
    return SupervisedPool(**kw)


class TestSerialPath:
    def test_jobs_one_runs_in_process(self):
        pool = quiet_pool(jobs=1)
        outcomes = pool.map(square, [1, 2, 3])
        assert [o.value for o in outcomes] == [1, 4, 9]
        assert all(o.status == STATUS_OK and o.attempts == 1 for o in outcomes)
        assert pool.rebuilds == 0 and not pool.degraded

    def test_single_task_runs_in_a_worker(self):
        # Only jobs=1 runs in-process: a lone task still gets a worker,
        # and so its deadline and crash isolation.
        outcomes = quiet_pool(jobs=4).map(worker_pid, [5])
        assert outcomes[0].status == STATUS_OK
        assert outcomes[0].value != os.getpid()

    def test_repro_error_is_infeasible_not_crash(self):
        outcomes = quiet_pool(jobs=1).map(square_or_infeasible, [2, 3])
        assert outcomes[0].status == STATUS_OK
        assert outcomes[1].status == STATUS_INFEASIBLE
        assert "PipelineError" in outcomes[1].error
        assert outcomes[1].value is None and not outcomes[1].ok

    def test_non_library_exception_is_crashed(self):
        outcomes = quiet_pool(jobs=1).map(buggy, [7])
        assert outcomes[0].status == STATUS_CRASHED
        assert "KeyError" in outcomes[0].error

    def test_empty_task_list(self):
        assert quiet_pool(jobs=2).map(square, []) == []

    def test_default_keys_are_indices(self):
        outcomes = quiet_pool(jobs=1).map(square, [1, 2])
        assert [o.key for o in outcomes] == ["0", "1"]


class TestValidation:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            SupervisedPool(jobs=0)

    def test_rejects_bad_timeout(self):
        with pytest.raises(ValueError, match="task_timeout"):
            SupervisedPool(task_timeout=0)

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError, match="max_retries"):
            SupervisedPool(max_retries=-1)

    def test_rejects_key_count_mismatch(self):
        with pytest.raises(ValueError, match="keys"):
            quiet_pool(jobs=1).map(square, [1, 2], keys=["only-one"])

    def test_rejects_group_count_mismatch(self):
        with pytest.raises(ValueError, match="groups"):
            quiet_pool(jobs=2).map(square, [1, 2], groups=["only-one"])


class TestParallelSupervision:
    def test_plain_parallel_map(self):
        pool = quiet_pool(jobs=2)
        outcomes = pool.map(square, list(range(5)))
        assert [o.value for o in outcomes] == [0, 1, 4, 9, 16]
        assert [o.index for o in outcomes] == list(range(5))
        assert pool.rebuilds == 0

    def test_infeasible_does_not_burn_retries(self):
        pool = quiet_pool(jobs=2, max_retries=3)
        outcomes = pool.map(square_or_infeasible, [2, 3, 4])
        assert [o.status for o in outcomes] == [
            STATUS_OK, STATUS_INFEASIBLE, STATUS_OK,
        ]
        assert outcomes[1].attempts == 1  # deterministic verdict: no retry

    def test_worker_kill_is_retried_then_ok(self):
        chaos = ChaosPolicy.explicit_plan({(1, 0): "worker-kill"})
        pool = quiet_pool(jobs=2, chaos=chaos)
        outcomes = pool.map(square, [1, 2, 3])
        assert [o.value for o in outcomes] == [1, 4, 9]
        assert outcomes[1].status == STATUS_RETRIED_OK
        assert outcomes[1].attempts == 2
        assert pool.rebuilds >= 1

    def test_unpicklable_exception_is_retried(self):
        chaos = ChaosPolicy.explicit_plan({(0, 0): "unpicklable"})
        outcomes = quiet_pool(jobs=2, chaos=chaos).map(square, [4, 5])
        assert outcomes[0].status == STATUS_RETRIED_OK
        assert outcomes[0].value == 16

    @pytest.mark.parametrize("bad", [threading.Lock(), "closure"], ids=["task", "result"])
    def test_unpicklable_task_or_result_is_crashed(self, bad):
        # An unpicklable task payload, or a result (a local lambda) that
        # cannot cross back, is a retryable failure with the pickling
        # error's text; the worker stays up for its siblings.
        culprit = square_or_closure(bad) if bad == "closure" else bad
        with pytest.raises(Exception) as pickling:
            pickle.dumps(culprit)
        pool = quiet_pool(jobs=2, max_retries=2)
        outcomes = pool.map(square_or_closure, [1, bad, 3])
        assert (outcomes[1].status, outcomes[1].attempts) == (STATUS_CRASHED, 3)
        assert str(pickling.value) in outcomes[1].error
        assert [(o.status, o.attempts, o.value) for o in (outcomes[0], outcomes[2])] == [
            (STATUS_OK, 1, 1), (STATUS_OK, 1, 9),
        ]
        assert pool.rebuilds == 0

    def test_undecodable_exception_is_retried_without_respawn(self):
        # The exception pickles in the worker but not back in the parent.
        # That is the reply's failure, not the worker's: it is retried
        # on the same worker, and no slot is respawned.
        pool = quiet_pool(jobs=2, max_retries=2)
        outcomes = pool.map(square_or_bad_unpickle, list(range(6)))
        assert (pool.rebuilds, pool.degraded) == (0, False)
        for o in outcomes:
            if o.index in (1, 3):
                assert (o.status, o.attempts) == (STATUS_CRASHED, 3)
                assert "could not be decoded" in o.error
                assert "BadUnpickle.__init__() missing 1 required positional" in o.error
            else:
                assert (o.status, o.attempts, o.value) == (STATUS_OK, 1, o.index**2)

    def test_retry_exhaustion_is_crashed_siblings_survive(self):
        chaos = ChaosPolicy.explicit_plan(
            {(0, a): "worker-kill" for a in range(3)}
        )
        pool = quiet_pool(jobs=2, max_retries=2, chaos=chaos)
        outcomes = pool.map(square, [1, 2, 3])
        assert outcomes[0].status == STATUS_CRASHED
        assert outcomes[0].attempts == 3
        assert [o.value for o in outcomes[1:]] == [4, 9]
        # Only the killed worker's task is charged: its siblings ran on
        # workers of their own.
        assert [(o.status, o.attempts) for o in outcomes[1:]] == [(STATUS_OK, 1)] * 2

    def test_worker_killed_between_tasks_loses_nothing(self):
        killed = []

        def kill_workers(outcome):
            # After the first outcome, kill every worker (one of them is
            # idle between tasks) and give the executors time to notice.
            if not killed:
                killed.extend(multiprocessing.active_children())
                for proc in killed:
                    proc.kill()
                time.sleep(0.2)

        outcomes = quiet_pool(jobs=2).map(square, [1, 2, 3, 4], on_outcome=kill_workers)
        assert killed
        assert [o.value for o in outcomes] == [1, 4, 9, 16]
        assert all(o.ok for o in outcomes)

    def test_watchdog_kills_hung_worker(self):
        chaos = ChaosPolicy.explicit_plan({(0, 0): "timeout"}, sleep_s=30.0)
        pool = quiet_pool(jobs=2, task_timeout=0.5, max_retries=1, chaos=chaos)
        outcomes = pool.map(slow_square, [(3, 0.0), (4, 0.0)])
        # attempt 0 hangs and is killed; attempt 1 is chaos-free and lands.
        assert outcomes[0].status == STATUS_RETRIED_OK
        assert outcomes[0].value == 9
        assert outcomes[1].ok and outcomes[1].value == 16
        assert pool.rebuilds >= 1

    def test_single_task_keeps_its_deadline(self):
        pool = quiet_pool(jobs=2, task_timeout=0.5, max_retries=0)
        outcomes = pool.map(time.sleep, [1.5])
        assert outcomes[0].status == STATUS_TIMEOUT
        assert "deadline 0.5s exceeded" in outcomes[0].error

    def test_timeout_exhaustion_reports_timeout(self):
        chaos = ChaosPolicy.explicit_plan(
            {(0, a): "timeout" for a in range(2)}, sleep_s=30.0
        )
        pool = quiet_pool(jobs=2, task_timeout=0.4, max_retries=1, chaos=chaos)
        outcomes = pool.map(square, [1, 2])
        assert outcomes[0].status == STATUS_TIMEOUT
        assert "deadline" in outcomes[0].error
        assert outcomes[1].ok

    def test_degrades_to_serial_after_pool_failure_limit(self):
        # Every first attempt dies; with the rebuild budget at 0 the
        # pool must degrade and drain the remaining tasks in-process,
        # where chaos is inert — the campaign still completes.
        chaos = ChaosPolicy.explicit_plan(
            {(i, 0): "worker-kill" for i in range(4)}
        )
        pool = quiet_pool(jobs=2, pool_failure_limit=0, chaos=chaos)
        outcomes = pool.map(square, [1, 2, 3, 4])
        assert pool.degraded
        assert [o.value for o in outcomes] == [1, 4, 9, 16]

    def test_degradation_drains_the_busy_slot_in_process(self):
        # Task 0's worker dies while task 1 is mid-run on the other
        # worker. That one rebuild exhausts the budget: task 1 is not
        # charged for the pool's failure and finishes in-process at
        # its first attempt, and no worker outlives the map.
        chaos = ChaosPolicy.explicit_plan({(0, 0): "worker-kill"})
        pool = quiet_pool(jobs=2, pool_failure_limit=0, chaos=chaos)
        outcomes = pool.map(slow_square, [(3, 0.0), (4, 1.0)])
        assert pool.degraded and pool.rebuilds == 1
        assert (outcomes[1].status, outcomes[1].attempts, outcomes[1].value) == (
            STATUS_OK, 1, 16,
        )
        assert outcomes[0].status == STATUS_RETRIED_OK and outcomes[0].value == 9
        assert multiprocessing.active_children() == []


class TestDeterminismContract:
    def test_results_invariant_under_jobs_and_chaos(self):
        tasks = list(range(6))
        baseline = [o.value for o in quiet_pool(jobs=1).map(square, tasks)]
        chaos = ChaosPolicy.explicit_plan(
            {(1, 0): "worker-kill", (4, 0): "unpicklable"}
        )
        for pool in (quiet_pool(jobs=2), quiet_pool(jobs=3, chaos=chaos)):
            outcomes = pool.map(square, tasks)
            assert [o.value for o in outcomes] == baseline
            assert [o.index for o in outcomes] == tasks

    def test_seeded_chaos_converges_to_clean_result(self):
        tasks = list(range(5))
        clean = [o.value for o in quiet_pool(jobs=2).map(square, tasks)]
        chaos = ChaosPolicy.seeded(
            ["worker-kill", "unpicklable"], seed=11, rate=0.6
        )
        stormy = quiet_pool(jobs=2, max_retries=2, chaos=chaos).map(square, tasks)
        assert all(o.ok for o in stormy)
        assert [o.value for o in stormy] == clean


class TestGroupDispatch:
    """A free slot takes its own group's next queued task, else the
    first task of a group no slot has started, else it steals from the
    group with the most queued tasks, among those with more queued
    tasks than slots running them. A group lost to its workers charges
    the pool once per attempt depth and fails its queued tasks unrun."""

    def test_take_rule(self):
        queue = _GroupQueue(list("aaabcc"))
        one, two = _Slot(), _Slot()

        def take(slot, busy):
            p = queue.take(slot.group, [one, two])
            if p is not None:
                slot.group = queue.groups[p.index]
                slot.task = p if busy else None
            return None if p is None else p.index

        # New slots start the first groups nobody has, in task order.
        assert take(one, busy=True) == 0
        assert take(two, busy=False) == 3
        # A slot's own group wins, then an unstarted group.
        assert take(two, busy=False) == 4
        assert take(two, busy=False) == 5
        # Every group started: a's two queued tasks outnumber its one
        # running slot, so the idle slot steals a's next task...
        assert take(two, busy=True) == 1
        one.task = None
        # ...and a's own slot goes on with a's last one.
        assert take(one, busy=False) == 2
        assert len(queue) == 0 and take(one, busy=False) is None

    def test_no_steal_of_a_running_groups_last_task(self):
        queue = _GroupQueue(list("aab"))
        one, two = _Slot(group="a"), _Slot(group="b")
        one.task = queue.take(_NO_GROUP, [one, two])
        assert one.task.index == 0
        assert queue.take(_NO_GROUP, [one, two]).index == 2
        # a has one queued task and one slot running it: b's slot idles.
        assert queue.take(two.group, [one, two]) is None
        # Once nobody runs a, its last task is free to take.
        one.task = None
        assert queue.take(two.group, [one, two]).index == 1

    def test_putback_goes_first_in_its_group_and_drain_empties_it(self):
        queue = _GroupQueue(list("aab"))
        first = queue.take(_NO_GROUP, [])
        queue.putback(first)
        assert [p.index for p in queue] == [0, 1, 2] and len(queue) == 3
        assert [p.index for p in queue.drain("a")] == [0, 1]
        assert [p.index for p in queue] == [2] and len(queue) == 1

    @settings(max_examples=12, deadline=None)
    @given(st.lists(st.sampled_from("abc"), min_size=1, max_size=7))
    def test_outcomes_do_not_depend_on_groups(self, labels):
        tasks = list(range(len(labels)))

        def summary(outcomes):
            return [(o.index, o.key, o.status, o.attempts, o.value) for o in outcomes]

        serial = summary(quiet_pool(jobs=1).map(square, tasks, groups=labels))
        ungrouped = summary(quiet_pool(jobs=2).map(square, tasks))
        grouped = summary(quiet_pool(jobs=2).map(square, tasks, groups=labels))
        assert grouped == ungrouped == serial

    def test_slots_keep_their_group_then_start_one_then_steal(self):
        # Group a is four long tasks, b and c one short task each. Slot
        # 1 starts a, slot 2 starts b (not a's second task), then c,
        # then steals from a; slot 1 never leaves a.
        tasks = [("a", 0.3)] * 4 + [("b", 0.05), ("c", 0.05)]
        outcomes = quiet_pool(jobs=2).map(
            nap_in_group, tasks, groups=[g for g, _ in tasks]
        )
        assert all(o.ok for o in outcomes)
        runs = sorted(o.value for o in outcomes)  # by (pid, start)
        by_worker: dict[int, list] = {}
        for pid, start, group in runs:
            by_worker.setdefault(pid, []).append((start, group))
        first_a = outcomes[0].value[0]
        (other,) = set(by_worker) - {first_a}
        assert [g for _, g in by_worker[first_a]] == ["a"] * len(by_worker[first_a])
        assert [g for _, g in by_worker[other]][:3] == ["b", "c", "a"]
        # A slot leaves a group only once no task of it is queued: none
        # of its tasks starts after the switch.
        for seq in by_worker.values():
            for (_, left), (switched, took) in zip(seq, seq[1:]):
                if took != left:
                    assert all(
                        start < switched
                        for _, start, group in runs if group == left
                    )


    def test_a_hung_group_times_out_without_degrading_the_pool(self):
        # Group a hangs on every attempt (a prefix that never finishes)
        # and its tasks run on both slots at once. Its worker losses
        # count once per attempt depth, three in all, which the default
        # budget of 3 absorbs: the pool stays in worker processes, a's
        # tasks end timed out (the queued one unrun) and b's finish.
        tasks = [("a", 30.0)] * 3 + [("b", 0.0)] * 2
        pool = quiet_pool(jobs=2, task_timeout=0.3)
        outcomes = pool.map(nap_in_group, tasks, groups=[g for g, _ in tasks])
        assert not pool.degraded
        assert [o.status for o in outcomes] == [STATUS_TIMEOUT] * 3 + [STATUS_OK] * 2
        assert all(o.value[0] != os.getpid() for o in outcomes[3:])
        assert max(o.attempts for o in outcomes[:3]) == 3
        assert any(o.error.startswith("not run: ") for o in outcomes[:3])
        assert multiprocessing.active_children() == []


class TestOutcomePlumbing:
    def test_on_outcome_sees_every_task_once(self):
        seen = []
        outcomes = quiet_pool(jobs=2).map(
            square, [1, 2, 3], keys=["a", "b", "c"], on_outcome=seen.append
        )
        assert sorted(o.index for o in seen) == [0, 1, 2]
        assert {o.key for o in seen} == {"a", "b", "c"}
        assert {id(o) for o in seen} == {id(o) for o in outcomes}

    def test_to_dict_is_json_safe_summary(self):
        out = TaskOutcome(
            index=3, key="pcr|auto|center", status=STATUS_TIMEOUT,
            attempts=2, error="deadline 1s exceeded", wall_s=1.25,
        )
        d = out.to_dict()
        assert d == {
            "index": 3, "key": "pcr|auto|center", "status": STATUS_TIMEOUT,
            "attempts": 2, "error": "deadline 1s exceeded", "wall_s": 1.25,
        }
        assert "value" not in d


#: A campaign-like parent under a given start method. ``hold`` mode: two
#: workers, each writing its pid and then holding its task far longer
#: than the test waits. ``forks`` mode: print the live threads at every
#: fork of a map whose first worker is chaos-killed and respawned while
#: the other is busy, then its outcomes. ``startup`` mode: print the
#: outcomes and respawns of a map whose deadline is shorter than a cold
#: worker start. ``square`` mode: print a small map's outcomes.
_PARENT = """
import multiprocessing
import operator
import os
import sys
import threading
import time

from repro.exec import SupervisedPool
from repro.testing.chaos import ChaosPolicy


def hold(path):
    with open(path + ".tmp", "w") as f:
        f.write(str(os.getpid()))
    os.replace(path + ".tmp", path)
    time.sleep(120)


def square(x):
    return x * x


def nap(x):
    time.sleep(0.3)
    return x * x


if __name__ == "__main__":
    mode, method, out = sys.argv[1:]
    multiprocessing.set_start_method(method)
    pool = SupervisedPool(jobs=2, chaos=ChaosPolicy.none())
    if mode == "hold":
        pool.map(hold, [os.path.join(out, "w0"), os.path.join(out, "w1")])
    elif mode == "forks":
        forks = []
        os.register_at_fork(before=lambda: forks.append(threading.active_count()))
        chaos = ChaosPolicy.explicit_plan({(0, 0): "worker-kill"})
        pool = SupervisedPool(jobs=2, chaos=chaos, backoff_base=0.0)
        outcomes = pool.map(nap, [1, 2, 3, 4])
        print(forks)
        print([(o.status, o.attempts, o.value) for o in outcomes])
    elif mode == "startup":
        pool = SupervisedPool(
            jobs=2, task_timeout=0.1, chaos=ChaosPolicy.none(), backoff_base=0.0
        )
        outcomes = pool.map(operator.neg, [1, 2, 3, 4])
        print([(o.status, o.attempts, o.value) for o in outcomes], pool.rebuilds)
    else:
        print([(o.status, o.attempts, o.value) for o in pool.map(square, [1, 2, 3])])
"""

START_METHODS = [
    m for m in ("fork", "spawn", "forkserver")
    if m in multiprocessing.get_all_start_methods()
]


def _start_parent(tmp_path, mode: str, method: str, **kw) -> subprocess.Popen:
    script = tmp_path / "parent.py"
    script.write_text(_PARENT)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.Popen(
        [sys.executable, str(script), mode, method, str(tmp_path)], env=env, **kw
    )


def _running(pid: int) -> bool:
    """True while *pid* exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):  # gone before or while read
        return False


@pytest.mark.parametrize("method", START_METHODS)
class TestStartMethods:
    def test_map_is_ok(self, tmp_path, method):
        # The exit-with-parent watchdog must not mistake a fork server
        # for a dead parent.
        parent = _start_parent(tmp_path, "square", method, stdout=subprocess.PIPE, text=True)
        out, _ = parent.communicate(timeout=120)
        assert parent.returncode == 0
        assert out.strip() == str([(STATUS_OK, 1, 1), (STATUS_OK, 1, 4), (STATUS_OK, 1, 9)])

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process state from /proc")
    def test_workers_exit_when_parent_is_killed(self, tmp_path, method):
        parent = _start_parent(tmp_path, "hold", method)
        pids: list[int] = []
        try:
            deadline = time.monotonic() + 60
            while len(pids) < 2 and time.monotonic() < deadline:
                pids = [int(p.read_text()) for p in tmp_path.glob("w[01]")]
                time.sleep(0.05)
            assert len(pids) == 2, "workers never started"
            parent.send_signal(signal.SIGKILL)
            parent.wait()
            deadline = time.monotonic() + 10
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not any(map(_running, pids))
        finally:
            if parent.poll() is None:
                parent.kill()
                parent.wait()
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)


@pytest.mark.parametrize(
    "method", [m for m in ("spawn", "forkserver") if m in START_METHODS]
)
def test_worker_start_up_is_not_charged_to_its_task(tmp_path, method):
    # A spawned or fork-served worker imports the package before it
    # reads its pipe, which takes longer than this map's 0.1 s deadline;
    # each task's clock starts only once its worker is ready.
    parent = _start_parent(tmp_path, "startup", method, stdout=subprocess.PIPE, text=True)
    out, _ = parent.communicate(timeout=120)
    assert parent.returncode == 0
    assert out.strip() == str([(STATUS_OK, 1, -x) for x in (1, 2, 3, 4)]) + " 0"


@pytest.mark.skipif("fork" not in START_METHODS, reason="needs the fork start method")
def test_forks_from_a_single_threaded_parent(tmp_path):
    # Forking while another thread runs can deadlock the child on a lock
    # that thread held. The supervisor must be the parent's only thread
    # at every fork: the two slot starts and the killed slot's respawn.
    parent = _start_parent(tmp_path, "forks", "fork", stdout=subprocess.PIPE, text=True)
    out, _ = parent.communicate(timeout=120)
    assert parent.returncode == 0
    forks, outcomes = out.strip().splitlines()
    assert forks == str([1, 1, 1])
    assert outcomes == str(
        [(STATUS_RETRIED_OK, 2, 1), (STATUS_OK, 1, 4), (STATUS_OK, 1, 9), (STATUS_OK, 1, 16)]
    )
