"""Synthetic workload generation and campaign sweeps at scale.

Five bundled assays are a demo, not a workload. This package turns the
reproduction into a scenario corpus:

* :mod:`repro.workload.generator` — parameterized generators producing
  valid sequencing graphs from an explicit ``random.Random``: mix-tree
  hierarchies, diamond reconvergence, multi-reagent dilution ladders
  with Farey/bit-stream target ratios, multiplexed detection panels,
  and a composed mixture of all four — scalable from 50 to 500 modules
  and addressable anywhere a bundled protocol name is (spec strings
  like ``gen:dilution-ladder:n=128:seed=7`` resolve through
  :mod:`repro.assay.catalog`).
* :mod:`repro.workload.campaign` — the one scenario engine: one
  TOML/JSON config declares a grid of (generator params x array sizes x
  defect patterns x fault models x arrivals x fault sites x sensor
  fidelity), expanded deterministically into seeded
  scenarios, fanned out on the supervised pool with crash-safe
  journal/resume, and logged as one append-only structured JSONL
  stream (versioned record schema, jobs-invariant content). The
  ``batch`` and ``recover --sweep`` commands are preset grids over it.
"""

from repro.workload.campaign import (
    CAMPAIGN_JOURNAL_KIND,
    RECORD_SCHEMA_VERSION,
    CampaignConfig,
    CampaignRecord,
    CampaignReport,
    CampaignRunner,
    CampaignScenario,
    batch_preset,
    recovery_sweep_preset,
    validate_log,
)
from repro.workload.generator import (
    GENERATOR_FAMILIES,
    GeneratorSpec,
    generate,
)

__all__ = [
    "CAMPAIGN_JOURNAL_KIND",
    "CampaignConfig",
    "CampaignRecord",
    "CampaignReport",
    "CampaignRunner",
    "CampaignScenario",
    "GENERATOR_FAMILIES",
    "GeneratorSpec",
    "RECORD_SCHEMA_VERSION",
    "batch_preset",
    "generate",
    "recovery_sweep_preset",
    "validate_log",
]
