"""Supervised parallel execution for synthesis campaigns.

``repro.exec`` is the hardened substrate the portfolio executor and the
campaign engine (:mod:`repro.workload.campaign`) run on:

* :class:`~repro.exec.supervised.SupervisedPool` — one single-worker
  ``ProcessPoolExecutor`` per slot, so a crashed or hung worker breaks
  only its own slot and costs only its own task. It adds per-task
  deadlines (a watchdog kills a hung worker), bounded deterministic
  retry of the lost task on a rebuilt slot, graceful degradation to
  in-process serial execution after repeated worker failures, and a
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
