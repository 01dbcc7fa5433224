"""Deterministic fault injection for the supervised execution layer.

The test suite has to *prove* every supervision path of
:class:`repro.exec.SupervisedPool` — worker death, deadline overrun,
unpicklable exceptions — without flaky sleeps or real hardware faults.
A :class:`ChaosPolicy` is a picklable, pure function of
``(task index, attempt)``: shipped into the worker with each submitted
task, it decides *before the task body runs* whether this particular
execution dies (``os._exit``), hangs (sleeps past any deadline), or
raises an exception the result pipe cannot pickle.

Two construction styles:

* :meth:`ChaosPolicy.explicit` pins actions to exact
  ``(index, attempt)`` pairs — what the unit tests use to script one
  scenario.
* :meth:`ChaosPolicy.seeded` derives actions from a hash of
  ``(seed, index, mode)`` at a given rate, on the **first attempt
  only** — what the CI chaos job uses (via :meth:`ChaosPolicy.from_env`
  and ``REPRO_CHAOS=worker-kill,timeout``) to storm whole suites while
  retries still converge to the chaos-free result bit for bit.

Injection only happens inside worker processes
(``multiprocessing.parent_process() is not None``): chaos models
*worker* faults, so the in-process serial path — including the pool's
graceful degradation to serial execution — is deliberately immune.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.util.errors import ExecutionError

#: Injectable fault modes, in the order the seeded selector indexes.
CHAOS_MODES = ("worker-kill", "timeout", "unpicklable")

#: The exit status a chaos-killed worker dies with (visible in core
#: dumps / process tables; any nonzero value breaks the pool the same).
CHAOS_EXIT_STATUS = 73


class UnpicklableChaosError(ExecutionError):
    """An exception that refuses to cross a process boundary.

    A pool worker pickles the exception its task raised into its reply
    pipe; this one fails to serialize, so the parent receives the
    pickling error's text instead, a retryable failure even though this
    is a ``ReproError`` — exactly the failure shape a buggy task raising
    an exception holding a lock, socket, or traceback-only state
    produces in production.
    """

    def __reduce__(self):
        raise TypeError("UnpicklableChaosError deliberately refuses to pickle")


def _chaos_hash(seed: int, index: int, mode: str) -> float:
    """Deterministic uniform draw in [0, 1) for one (task, mode) cell."""
    digest = hashlib.sha256(f"{seed}:{index}:{mode}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class ChaosPolicy:
    """A picklable, deterministic worker-fault schedule.

    ``explicit`` maps ``(index, attempt)`` to a mode and wins over the
    seeded selector; with ``modes`` set, the seeded selector injects
    each listed mode on attempt 0 with probability ``rate`` per task
    (independently per mode; earlier mode in :data:`CHAOS_MODES` wins a
    tie). Attempts past the first are never seeded-injected — that is
    what makes retried results bit-identical to a chaos-free run.
    """

    modes: tuple[str, ...] = ()
    seed: int = 0
    rate: float = 0.25
    #: How long a "timeout" injection sleeps. Long enough to trip any
    #: realistic deadline, short enough that an *undeadlined* pool just
    #: sees a slow task instead of a stuck suite.
    sleep_s: float = 2.0
    explicit: Mapping[tuple[int, int], str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        bad = [m for m in (*self.modes, *self.explicit.values()) if m not in CHAOS_MODES]
        if bad:
            raise ValueError(
                f"unknown chaos mode(s) {sorted(set(bad))}; choose from {CHAOS_MODES}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"chaos rate must be in [0, 1], got {self.rate}")

    # -- construction ---------------------------------------------------------

    @classmethod
    def none(cls) -> ChaosPolicy:
        """A policy that never injects (distinct from "use the env")."""
        return cls()

    @classmethod
    def explicit_plan(cls, plan: Mapping[tuple[int, int], str], sleep_s: float = 2.0) -> ChaosPolicy:
        """Inject exactly *plan*: ``{(index, attempt): mode}``."""
        return cls(explicit=dict(plan), sleep_s=sleep_s)

    @classmethod
    def seeded(
        cls, modes, seed: int = 0, rate: float = 0.25, sleep_s: float = 2.0
    ) -> ChaosPolicy:
        """First-attempt-only random injection at *rate* per mode."""
        return cls(modes=tuple(modes), seed=seed, rate=rate, sleep_s=sleep_s)

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None) -> ChaosPolicy | None:
        """The ambient policy of ``REPRO_CHAOS``, or ``None`` if unset.

        ``REPRO_CHAOS`` is a comma-separated subset of
        :data:`CHAOS_MODES`; ``REPRO_CHAOS_SEED`` (default 0),
        ``REPRO_CHAOS_RATE`` (default 0.25), and ``REPRO_CHAOS_SLEEP``
        (default 2.0 seconds) tune the seeded selector.
        """
        environ = os.environ if environ is None else environ
        spec = environ.get("REPRO_CHAOS", "").strip()
        if not spec:
            return None
        modes = tuple(m.strip() for m in spec.split(",") if m.strip())
        return cls.seeded(
            modes,
            seed=int(environ.get("REPRO_CHAOS_SEED", "0")),
            rate=float(environ.get("REPRO_CHAOS_RATE", "0.25")),
            sleep_s=float(environ.get("REPRO_CHAOS_SLEEP", "2.0")),
        )

    # -- the schedule ---------------------------------------------------------

    def action(self, index: int, attempt: int) -> str | None:
        """The mode injected for attempt *attempt* of task *index*."""
        hit = self.explicit.get((index, attempt))
        if hit is not None:
            return hit
        if not self.modes or attempt > 0:
            return None
        for mode in CHAOS_MODES:
            if mode in self.modes and _chaos_hash(self.seed, index, mode) < self.rate:
                return mode
        return None

    @property
    def active(self) -> bool:
        return bool(self.modes or self.explicit)

    def inject(self, index: int, attempt: int) -> None:
        """Fire the scheduled fault, if any — worker processes only."""
        if multiprocessing.parent_process() is None:
            return  # chaos models worker faults; serial execution is immune
        mode = self.action(index, attempt)
        if mode is None:
            return
        if mode == "worker-kill":
            os._exit(CHAOS_EXIT_STATUS)
        elif mode == "timeout":
            time.sleep(self.sleep_s)
        elif mode == "unpicklable":
            raise UnpicklableChaosError(
                f"chaos: unpicklable failure on task {index} attempt {attempt}"
            )

    def describe(self) -> str:
        if self.explicit:
            return f"explicit({len(self.explicit)} injections)"
        if self.modes:
            return f"seeded(modes={','.join(self.modes)}, rate={self.rate:g}, seed={self.seed})"
        return "none"
