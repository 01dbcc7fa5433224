"""Supervised parallel execution for synthesis campaigns.

``repro.exec`` is the hardened substrate the portfolio executor and the
campaign engine (:mod:`repro.workload.campaign`) run on:

* :class:`~repro.exec.supervised.SupervisedPool` — one worker process
  and one pipe per slot, watched by a single-threaded supervisor that
  reads three signals: a reply on a pipe, a worker that exited without
  one, and a passed deadline. A crashed or hung worker costs only its
  own task. It adds per-task deadlines (a hung worker is SIGKILLed),
  bounded deterministic retry of the lost task on a respawned worker,
  graceful degradation to in-process serial execution after repeated
  worker failures, and a
  structured :class:`~repro.exec.supervised.TaskOutcome`
  per task (``ok | infeasible | timeout | crashed | retried-then-ok``)
  so campaigns return partial results instead of raising.
* :class:`~repro.exec.journal.CampaignJournal` — crash-safe JSONL
  journaling (append + fsync, one record per completed scenario) that
  makes campaigns ``kill -9``-safe: resuming from a
  journal skips already-journaled scenario keys.

The determinism contract (see DESIGN.md, "supervised execution"): a
retry resubmits the *identical* seeded task, so supervision — including
injected chaos recovered by retries — is invisible in final results.
"""

from repro.exec.journal import CampaignJournal, NullJournal, load_journal
from repro.exec.supervised import (
    STATUS_CRASHED,
    STATUS_INFEASIBLE,
    STATUS_OK,
    STATUS_RETRIED_OK,
    STATUS_TIMEOUT,
    SupervisedPool,
    TaskOutcome,
)

__all__ = [
    "CampaignJournal",
    "NullJournal",
    "STATUS_CRASHED",
    "STATUS_INFEASIBLE",
    "STATUS_OK",
    "STATUS_RETRIED_OK",
    "STATUS_TIMEOUT",
    "SupervisedPool",
    "TaskOutcome",
    "load_journal",
]
