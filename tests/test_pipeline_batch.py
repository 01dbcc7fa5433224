"""Tests for the ``batch`` campaign preset: (assay x design-time defect
pattern) grids with a shared synthesis prefix, and their journals."""

import json

import pytest

from repro.exec import load_journal
from repro.fault.models import DEFECT_PATTERNS, defect_cells
from repro.geometry import Point
from repro.recovery import ClosedLoopController
from repro.routing import RoutingSynthesizer
from repro.synthesis.flow import SynthesisFlow
from repro.util.errors import UsageError
from repro.workload.campaign import (
    CAMPAIGN_JOURNAL_KIND,
    CampaignRunner,
    batch_preset,
)


def grid_config(protocols=("pcr", "dilution", "tree8"), **kwargs):
    return batch_preset(protocols, **kwargs)


def log_bytes(config, path, **kwargs):
    CampaignRunner(config).run(path, **kwargs)
    return path.read_bytes()


@pytest.fixture(scope="module")
def spied():
    """The acceptance grid (3 assays x {none, center}) run in-process,
    with the synthesis, routing and closed-loop calls recorded."""
    calls = {"flow": 0, "routes": [], "loops": []}
    mp = pytest.MonkeyPatch()
    flow_run = SynthesisFlow.run
    synthesize = RoutingSynthesizer.synthesize
    loop_run = ClosedLoopController.run

    def spy_flow(self, *args, **kwargs):
        calls["flow"] += 1
        return flow_run(self, *args, **kwargs)

    def spy_route(self, graph, schedule, placement, chip, faulty_cells=(), **kw):
        plan = synthesize(self, graph, schedule, placement, chip,
                          faulty_cells=faulty_cells, **kw)
        calls["routes"].append((graph.name, tuple(faulty_cells), placement, plan, chip))
        return plan

    def spy_loop(self, result, events, *args, **kwargs):
        outcome = loop_run(self, result, events, *args, **kwargs)
        calls["loops"].append(outcome)
        return outcome

    mp.setattr(SynthesisFlow, "run", spy_flow)
    mp.setattr(RoutingSynthesizer, "synthesize", spy_route)
    mp.setattr(ClosedLoopController, "run", spy_loop)
    try:
        report = CampaignRunner(grid_config()).run(None, jobs=1)
    finally:
        mp.undo()
    return report, calls


@pytest.fixture(scope="module")
def report(spied):
    return spied[0]


class TestFaultPatterns:
    def test_builtin_registry(self):
        assert set(DEFECT_PATTERNS) == {
            "none", "center", "corner", "pair", "cluster",
        }

    def test_resolution_against_array_dims(self):
        assert defect_cells("none", 7, 9) == ()
        assert defect_cells("center", 7, 9) == (Point(4, 5),)
        assert defect_cells("corner", 7, 9) == (Point(1, 1),)
        assert defect_cells("pair", 7, 9) == (Point(1, 1), Point(4, 5))

    def test_pair_degenerates_on_a_unit_array(self):
        assert defect_cells("pair", 1, 1) == (Point(1, 1),)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault pattern"):
            defect_cells("diagonal", 5, 5)
        with pytest.raises(UsageError, match="unknown fault pattern"):
            grid_config(defects=("diagonal",))


class TestGridShape:
    def test_full_grid_covered(self, report):
        combos = {(r.spec, r.defects) for r in report.records}
        assert combos == {
            (a, f)
            for a in ("pcr", "dilution", "tree8")
            for f in ("none", "center")
        }

    def test_all_scenarios_synthesized(self, report):
        assert report.ok_count == report.completed_count == 6
        for r in report.records:
            assert r.synthesis["routability"] is not None

    def test_fault_free_scenarios_have_no_cells(self, report):
        # The default pattern adds nothing to the key or the record.
        for r in report.records:
            d = r.to_dict()
            if r.defects == "none":
                assert "defects" not in d and "defects=" not in r.key
            else:
                assert d["defects"] == "center"
                assert r.key.endswith("|defects=center")

    def test_routed_plans_avoid_the_faulty_cells(self, spied):
        _, calls = spied
        faulty = [c for c in calls["routes"] if c[1]]
        assert len(faulty) == 3
        for name, cells, placement, plan, chip in faulty:
            assert cells == defect_cells("center", *placement.array_dims())
            shifted = {chip.cell(p) for p in cells}
            for rn in plan.nets:
                assert not shifted.intersection(rn.cells), (
                    f"{name}: net {rn.net.net_id} crosses a faulty cell"
                )


class TestUpstreamReuse:
    def test_prefix_computed_once_per_assay(self, spied):
        _, calls = spied
        # One synthesis per assay; one extra route per defect pattern.
        assert calls["flow"] == 3
        assert [bool(c[1]) for c in calls["routes"]] == [False, True] * 3

    def test_reused_scenarios_share_identical_placements(self, spied):
        report, calls = spied
        routes = calls["routes"]
        for nominal, defect in zip(routes[::2], routes[1::2]):
            assert nominal[2] is defect[2]  # the same placement object
            assert nominal[4] is defect[4]  # on the same chip
        for assay in ("pcr", "dilution", "tree8"):
            recs = [r for r in report.records if r.spec == assay]
            shared = ("modules", "makespan_s", "width", "height",
                      "area_cells", "fti")
            assert [{k: r.synthesis[k] for k in shared} for r in recs[1:]] \
                == [{k: recs[0].synthesis[k] for k in shared}]

    def test_downstream_products_are_per_scenario(self, spied):
        _, calls = spied
        pcr = [c for c in calls["routes"] if c[0] == calls["routes"][0][0]]
        assert pcr[0][3] is not pcr[1][3]


class TestJsonOutput:
    def test_report_round_trips_through_json(self, report):
        d = report.to_dict()
        assert json.loads(json.dumps(d)) == d
        assert d["scenario_count"] == 6
        assert d["ok_count"] == 6
        assert len(d["records"]) == 6

    def test_scenario_dict_contents(self, report):
        s = report.to_dict()["records"][0]
        assert s["spec"] == "pcr"
        assert "defects" not in s
        assert s["status"] == "ok"
        assert s["recovery"]["completed"] is True
        assert s["synthesis"]["routability"] == 1.0
        assert s["synthesis"]["fti"] is not None

    def test_table_text_renders_every_row(self, report):
        text = report.scenario_table()
        for assay in ("pcr", "dilution", "tree8"):
            assert assay in text
        assert "100%" in text


class TestParallelDeterminism:
    def test_jobs_do_not_change_the_records(self, report):
        parallel = CampaignRunner(grid_config()).run(None, jobs=2)
        assert [r.to_dict() for r in parallel.records] == [
            r.to_dict() for r in report.records
        ]


class TestValidation:
    def test_empty_assays_rejected(self):
        with pytest.raises(UsageError, match="generators"):
            grid_config(protocols=())

    def test_empty_patterns_rejected(self):
        with pytest.raises(UsageError, match="defects"):
            grid_config(defects=())

    def test_duplicate_pattern_names_rejected(self):
        with pytest.raises(UsageError, match="already declared"):
            grid_config(defects=("none", "none"))

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            CampaignRunner(grid_config()).run(None, jobs=0)

    def test_fault_free_sweep_allowed_without_fault_stages(self):
        report = CampaignRunner(
            grid_config(protocols=("pcr",), defects=("none",))
        ).run(None, jobs=1)
        assert report.completed_count == len(report.records) == 1

    def test_verify_only_sweep_exercises_faults(self, spied):
        # Every scenario's closed loop replays the design against its
        # defects: dead from t=0, known up front, never a detection.
        _, calls = spied
        loops = calls["loops"][:2]  # pcr: none, center
        assert not any(e.kind == "fault" for e in loops[0].verdict.events)
        assert any(e.kind == "fault" for e in loops[1].verdict.events)
        assert [e.cause for e in loops[1].fault_events] == ["defect"]
        assert loops[1].detections == ()


# -- supervised execution: failure records, chaos, journal/resume -------------


def small_config():
    return grid_config(protocols=("pcr", "dilution"))


KEYS = {
    "pcr|auto|none|ideal|event", "pcr|auto|none|ideal|event|defects=center",
    "dilution|auto|none|ideal|event",
    "dilution|auto|none|ideal|event|defects=center",
}


class TestStructuredFailures:
    def test_crashed_combo_yields_failure_records_not_silence(self):
        from repro.exec import STATUS_CRASHED
        from repro.testing.chaos import ChaosPolicy

        # Unit 0 (pcr) fails on every attempt with an exception the
        # result pipe cannot pickle (task-scoped, so unit 1 is
        # unharmed); the lost scenarios must surface as keyed failure
        # records instead of vanishing from the report.
        chaos = ChaosPolicy.explicit_plan(
            {(0, a): "unpicklable" for a in range(2)}
        )
        report = CampaignRunner(small_config()).run(
            None, jobs=2, max_retries=1, chaos=chaos
        )
        assert len(report.records) == 4  # nothing silently dropped
        failed = [r for r in report.records if r.spec == "pcr"]
        assert len(failed) == 2
        for r in failed:
            assert not r.ok
            assert r.status == STATUS_CRASHED
            assert r.error
            assert r.key in KEYS
        assert all(r.completed for r in report.records if r.spec == "dilution")
        assert "FAILED" in report.scenario_table()

    def test_retried_run_is_bit_identical_to_clean_run(self, tmp_path):
        from repro.testing.chaos import ChaosPolicy

        clean = log_bytes(small_config(), tmp_path / "clean.jsonl", jobs=2)
        chaos = ChaosPolicy.explicit_plan({(1, 0): "worker-kill"})
        stormy = log_bytes(
            small_config(), tmp_path / "stormy.jsonl", jobs=2,
            max_retries=2, chaos=chaos,
        )
        assert stormy == clean


class TestJournalResume:
    def test_journal_records_every_decided_scenario(self, tmp_path):
        journal = tmp_path / "batch.journal"
        CampaignRunner(small_config()).run(None, jobs=1, journal_path=journal)
        done = load_journal(journal, kind=CAMPAIGN_JOURNAL_KIND)
        assert set(done) == KEYS
        assert all(rec["status"] == "ok" for rec in done.values())

    def test_full_resume_is_bit_identical_and_recomputes_nothing(self, tmp_path):
        journal = tmp_path / "batch.journal"
        original = log_bytes(
            small_config(), tmp_path / "a.jsonl", jobs=1, journal_path=journal
        )
        report = CampaignRunner(small_config()).run(
            tmp_path / "b.jsonl", jobs=1, resume_from=journal
        )
        assert report.resumed == 4
        assert (tmp_path / "b.jsonl").read_bytes() == original

    def test_resume_after_crash_completes_the_campaign(self, tmp_path):
        from repro.testing.chaos import ChaosPolicy

        clean = log_bytes(small_config(), tmp_path / "clean.jsonl", jobs=1)
        journal = tmp_path / "batch.journal"
        # First attempt: the pcr unit is lost past the retry budget, so
        # only dilution's scenarios reach the journal (crash/timeout
        # records must never be journaled — a resume has to retry them).
        chaos = ChaosPolicy.explicit_plan(
            {(0, a): "unpicklable" for a in range(2)}
        )
        first = CampaignRunner(small_config()).run(
            None, jobs=2, max_retries=1, chaos=chaos, journal_path=journal
        )
        assert first.ok_count == 2
        assert set(load_journal(journal, kind=CAMPAIGN_JOURNAL_KIND)) == {
            k for k in KEYS if k.startswith("dilution")
        }
        # Resume without chaos: only pcr is recomputed, the log is
        # byte-identical to an uninterrupted run, the journal now full.
        resumed = log_bytes(
            small_config(), tmp_path / "resumed.jsonl", jobs=1,
            journal_path=journal, resume_from=journal,
        )
        assert resumed == clean
        assert len(load_journal(journal, kind=CAMPAIGN_JOURNAL_KIND)) == 4

    def test_resume_with_journal_into_same_file_appends_nothing_new(self, tmp_path):
        journal = tmp_path / "batch.journal"
        CampaignRunner(small_config()).run(None, jobs=1, journal_path=journal)
        lines_before = journal.read_text().count("\n")
        CampaignRunner(small_config()).run(
            None, jobs=1, journal_path=journal, resume_from=journal
        )
        assert journal.read_text().count("\n") == lines_before
