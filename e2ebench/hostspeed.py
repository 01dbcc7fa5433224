"""The host's speed, measured by a fixed reference kernel between timed operations.

The benchmark runs on a few cores of a shared virtual machine.  Minutes
apart, one and the same synthesis takes up to 1.5x as long, and CPU time
tracks wall time through the slowdown: the cores run slower (tenants
sharing the physical cores and caches), the process is not preempted.
Over twelve runs the raw wall time of one synthesis spread by 0.27 of
its median, more than the whole bound a metric may have.  A core's
speed changes within a second or two, and each core's on its own.

So every run also times a reference kernel that never changes: pure
Python like the program, made of a toy annealer (objects, tuple-keyed
dict, random draws), pointer-chasing reads over a 100,000-entry heap of
tuples (larger than a core's cache) and float arithmetic.  It runs once
before the first timed operation and again after every one, outside
the operation's timing, for about :data:`SHARE` of that operation's
wall time and at least one pass.  The host's speed also drifts within
a run, so each operation is scaled by the passes just before and just
after it: its wall time times :data:`NOMINAL_PASS_S` over their median
pass time, which states it at the speed of a host on which one pass
takes :data:`NOMINAL_PASS_S`.  A change to the program moves the
scaled times and not the kernel; a slower host moves both.  An
operation that keeps every core busy in worker processes runs slower
than one core alone would, so it is scaled by passes on every core at
once (:class:`ParallelProbe`).
"""

from __future__ import annotations

import math
import multiprocessing
import random
import statistics
import time

#: One pass's wall seconds on the nominal host (a 2-core x86 KVM guest
#: in a quiet phase); the timings are stated at this speed.
NOMINAL_PASS_S = 0.055

#: The kernel runs for about this share of each operation's wall time.
SHARE = 0.05

HEAP_ITEMS = 100_000
ANNEAL_STEPS = 2_000
READS = 30_000
FLOPS = 75_000


class _Module:
    __slots__ = ("x", "y", "w", "h")

    def __init__(self, x: int, y: int, w: int, h: int) -> None:
        self.x, self.y, self.w, self.h = x, y, w, h


def _anneal(rng: random.Random) -> int:
    """Move rectangles on a grid, tracking overlaps in a dict."""
    mods = [_Module(rng.randrange(30), rng.randrange(30), rng.randint(2, 4), rng.randint(2, 4))
            for _ in range(60)]
    occupied: dict[tuple[int, int], int] = {}
    for m in mods:
        for cell in ((x, y) for x in range(m.x, m.x + m.w) for y in range(m.y, m.y + m.h)):
            occupied[cell] = occupied.get(cell, 0) + 1
    overlap, temperature = sum(v - 1 for v in occupied.values() if v > 1), 5.0
    for _ in range(ANNEAL_STEPS):
        m = mods[rng.randrange(len(mods))]
        nx, ny = m.x + rng.randint(-2, 2), m.y + rng.randint(-2, 2)
        old = [(x, y) for x in range(m.x, m.x + m.w) for y in range(m.y, m.y + m.h)]
        new = [(x, y) for x in range(nx, nx + m.w) for y in range(ny, ny + m.h)]
        delta = 0
        for cell in old:
            delta -= occupied[cell] > 1
            occupied[cell] -= 1
        for cell in new:
            count = occupied.get(cell, 0)
            delta += count >= 1
            occupied[cell] = count + 1
        if delta <= 0 or rng.random() < math.exp(-delta / temperature):
            m.x, m.y = nx, ny
            overlap += delta
        else:
            for cell in new:
                occupied[cell] -= 1
            for cell in old:
                occupied[cell] += 1
        temperature *= 0.999
    return overlap


class _Probe:
    """Groups of timed kernel passes, and the timings they scale."""

    def __init__(self) -> None:
        #: Wall seconds of every pass, one list per call of :meth:`after`.
        self.groups: list[list[float]] = []

    def after(self, op_s: float) -> None:
        raise NotImplementedError

    def scaled(self, op_s: float) -> float:
        """Run the passes after an operation of *op_s* wall seconds and
        return its time at nominal speed, scaled by the passes just
        before and just after it."""
        self.after(op_s)
        around = self.groups[-2] + self.groups[-1]
        return op_s * NOMINAL_PASS_S / statistics.median(around)

    @property
    def passes(self) -> list[float]:
        return [t for group in self.groups for t in group]

    def pass_s(self) -> float:
        """The median pass time of the run."""
        return statistics.median(self.passes)

    def factor(self) -> float:
        """How many times slower than the nominal host this run's host was."""
        return self.pass_s() / NOMINAL_PASS_S


class HostProbe(_Probe):
    """Times reference-kernel passes in this process."""

    def __init__(self) -> None:
        super().__init__()
        rng = random.Random(20071015)
        self._heap = [(i, rng.random()) for i in range(HEAP_ITEMS)]
        rng.shuffle(self._heap)
        self._checksum: float | None = None
        self._pass()  # untimed: the first pass runs cold (caches, bytecode)

    def _pass(self) -> float:
        start = time.perf_counter()
        rng = random.Random(1)
        checksum = float(_anneal(rng))
        heap, n = self._heap, HEAP_ITEMS
        for _ in range(READS):
            checksum += heap[rng.randrange(n)][1]
        for i in range(1, FLOPS):
            checksum += math.sqrt(i) * 1.0001 - math.sin(i)
        elapsed = time.perf_counter() - start
        if self._checksum is None:
            self._checksum = checksum
        elif checksum != self._checksum:
            raise RuntimeError("reference kernel is not deterministic")
        return elapsed

    def after(self, op_s: float) -> None:
        """Run passes for about ``SHARE`` of an operation's *op_s*, at least one."""
        group: list[float] = []
        self.groups.append(group)
        while not group or sum(group) < SHARE * op_s:
            group.append(self._pass())


def _helper(conn, barrier) -> None:
    """One core's share of a :class:`ParallelProbe`: passes on request."""
    probe = HostProbe()
    while (n := conn.recv()) is not None:
        barrier.wait()
        conn.send([probe._pass() for _ in range(n)])


class ParallelProbe(_Probe):
    """Runs the kernel on every core at once, one helper process per
    core, for operations that keep every core busy in worker processes:
    they run at the speed the host gives all the cores together, which
    passes on one core do not see.  Create it before the process starts
    any thread (the helpers are forked), and :meth:`close` it."""

    def __init__(self, cores: int) -> None:
        super().__init__()
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(cores)
        self._conns, self._procs = [], []
        for _ in range(cores):
            conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_helper, args=(child_conn, barrier), daemon=True)
            proc.start()
            child_conn.close()
            self._conns.append(conn)
            self._procs.append(proc)

    def after(self, op_s: float) -> None:
        """Run passes on every core for about ``SHARE`` of *op_s*, at least one."""
        n = max(1, math.ceil(SHARE * op_s / NOMINAL_PASS_S))
        for conn in self._conns:
            conn.send(n)
        self.groups.append([t for conn in self._conns for t in conn.recv()])

    def close(self) -> None:
        """Stop the helpers and wait for each to end."""
        for conn in self._conns:
            try:
                conn.send(None)
            except OSError:
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join()
