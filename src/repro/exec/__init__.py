"""Supervised parallel execution for synthesis campaigns.

``repro.exec`` is the hardened substrate the portfolio executor and the
campaign engine (:mod:`repro.workload.campaign`) run on:

* :class:`~repro.exec.supervised.SupervisedPool` — a
  ``ProcessPoolExecutor`` wrapper with per-task deadlines (a watchdog
  kills hung workers), bounded deterministic retry for crashed or
  killed workers (``BrokenProcessPool`` is no longer fatal: the pool is
  rebuilt and only the lost tasks are resubmitted), graceful
  degradation to in-process serial execution after repeated pool
  failures, and a structured :class:`~repro.exec.supervised.TaskOutcome`
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
