"""The campaign runner's contracts: deterministic expansion, seeded
scenarios, jobs-invariant byte-identical logs, journal/resume
equivalence, and schema validation of every record.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import pytest

from repro.testing.detector import CapacitiveSensor
from repro.util.errors import ReproError, UsageError
from repro.workload.campaign import (
    META_KIND,
    RECORD_SCHEMA_VERSION,
    CampaignConfig,
    CampaignRecord,
    CampaignRunner,
    derive_seed,
    parse_array,
    validate_log,
)

TINY = {
    "campaign": {"name": "tiny", "seed": 11},
    "grid": [
        {
            "generators": ["gen:panel:n=8:seed=1", "gen:mix-tree:n=8:seed=2"],
            "fault_models": ["none", "permanent"],
        }
    ],
}


def read_log(path) -> tuple[dict, list[CampaignRecord]]:
    """Load a campaign log; raises :class:`ReproError` when malformed."""
    errors = validate_log(path)
    if errors:
        raise ReproError(
            f"invalid campaign log {path}: {errors[0]} "
            f"({len(errors)} problem(s) total)"
        )
    meta: dict = {}
    records: list[CampaignRecord] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            entry = json.loads(line)
            if entry["kind"] == META_KIND:
                meta = entry
            else:
                records.append(CampaignRecord.from_dict(entry))
    return meta, records


def tiny_config() -> CampaignConfig:
    return CampaignConfig.from_dict(TINY, source="inline")


class TestConfigParsing:
    def test_load_toml(self, tmp_path):
        p = tmp_path / "c.toml"
        p.write_text(
            '[campaign]\nname = "x"\nseed = 3\n\n'
            '[[grid]]\ngenerators = ["pcr"]\n'
        )
        cfg = CampaignConfig.load(p)
        assert (cfg.name, cfg.seed) == ("x", 3)
        scenarios = cfg.expand()
        assert [s.key for s in scenarios] == ["pcr|auto|none|ideal|event"]

    def test_load_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(TINY))
        assert len(CampaignConfig.load(p).expand()) == 4

    def test_missing_file_is_usage_error(self, tmp_path):
        with pytest.raises(UsageError, match="not found"):
            CampaignConfig.load(tmp_path / "nope.toml")

    def test_bad_toml_is_usage_error(self, tmp_path):
        p = tmp_path / "c.toml"
        p.write_text("[campaign\n")
        with pytest.raises(UsageError, match="cannot parse"):
            CampaignConfig.load(p)

    @pytest.mark.parametrize(
        "grid, match",
        [
            ({}, "generators"),
            ({"generators": ["warp"]}, "unknown protocol"),
            ({"generators": ["gen:warp:n=9"]}, "unknown generator family"),
            ({"generators": ["pcr"], "fault_models": ["meteor"]},
             "unknown fault model"),
            ({"generators": ["pcr"], "engines": ["event"]}, "unknown key"),
            ({"generators": ["pcr"], "arrays": ["12by12"]}, "bad array size"),
            ({"generators": ["pcr"], "typo": [1]}, "unknown key"),
            ({"generators": ["pcr"], "defects": ["meteor"]},
             "unknown fault pattern"),
            ({"generators": ["pcr"], "fault_sites": ["moon"]},
             "unknown fault site"),
            ({"generators": ["pcr"], "arrivals": [1.0]}, "arrivals"),
            ({"generators": ["pcr"], "arrivals": ["half"]}, "arrivals"),
        ],
    )
    def test_bad_grids_fail_at_load_time(self, grid, match):
        with pytest.raises(UsageError, match=match):
            CampaignConfig.from_dict(
                {"campaign": {"name": "x"}, "grid": [grid]}
            )

    @pytest.mark.parametrize(
        "campaign, match",
        [
            ({"max_concurrent": 0}, "max_concurrent must be >= 1"),
            ({"max_parked": 0}, "max_parked must be >= 1"),
            ({"max_parked": "two"}, "max_parked must be an int"),
            ({"fast": "yes"}, "fast must be a boolean"),
        ],
    )
    def test_bad_campaign_tables_fail_at_load_time(self, campaign, match):
        with pytest.raises(UsageError, match=match):
            CampaignConfig.from_dict({
                "campaign": {"name": "x", **campaign},
                "grid": [{"generators": ["pcr"]}],
            })

    def test_duplicate_scenarios_rejected(self):
        with pytest.raises(UsageError, match="already declared"):
            CampaignConfig.from_dict({
                "campaign": {"name": "x"},
                "grid": [
                    {"generators": ["pcr"]},
                    {"generators": ["pcr"]},
                ],
            })

    def test_gen_specs_canonicalized(self):
        cfg = CampaignConfig.from_dict({
            "campaign": {"name": "x"},
            "grid": [{"generators": ["gen:panel:seed=1:n=8"]}],
        })
        assert cfg.expand()[0].spec == "gen:panel:n=8:seed=1"


class TestExpansion:
    def test_grid_order_and_indices(self):
        scenarios = tiny_config().expand()
        assert [s.index for s in scenarios] == [0, 1, 2, 3]
        assert [s.key for s in scenarios] == [
            "gen:panel:n=8:seed=1|auto|none|ideal|event",
            "gen:panel:n=8:seed=1|auto|permanent|ideal|event",
            "gen:mix-tree:n=8:seed=2|auto|none|ideal|event",
            "gen:mix-tree:n=8:seed=2|auto|permanent|ideal|event",
        ]

    def test_declared_dimensions_extend_the_key(self):
        cfg = CampaignConfig.from_dict({
            "campaign": {"name": "x"},
            "grid": [{
                "generators": ["pcr"], "defects": ["none", "pair"],
                "fault_models": ["permanent"], "arrivals": [0.25],
                "fault_sites": ["pending-module", "street"],
            }],
        })
        assert [s.key for s in cfg.expand()] == [
            "pcr|auto|permanent|ideal|event|at=0.25",
            "pcr|auto|permanent|ideal|event|at=0.25|site=street",
            "pcr|auto|permanent|ideal|event|defects=pair|at=0.25",
            "pcr|auto|permanent|ideal|event|defects=pair|at=0.25|site=street",
        ]

    def test_expansion_is_deterministic(self):
        a = [s.key for s in tiny_config().expand()]
        b = [s.key for s in tiny_config().expand()]
        assert a == b


class TestSeedDerivation:
    def test_contract_is_stable(self):
        # Pinned value: changing the derivation silently re-seeds every
        # historical campaign, so any change must be deliberate.
        assert derive_seed("11", "scenario", "k") == derive_seed(
            "11", "scenario", "k"
        )
        assert derive_seed("11", "scenario", "a") != derive_seed(
            "11", "scenario", "b"
        )
        assert derive_seed("11", "synthesis", "a") != derive_seed(
            "11", "scenario", "a"
        )

    def test_parts_are_delimited(self):
        # ("ab", "c") must not collide with ("a", "bc").
        assert derive_seed("ab", "c") != derive_seed("a", "bc")


class TestHelpers:
    def test_parse_array(self):
        assert parse_array("auto") is None
        assert parse_array("12x8") == (12, 8)
        with pytest.raises(UsageError):
            parse_array("12")
        with pytest.raises(UsageError):
            parse_array("0x8")

    def test_sensor_spec_parse(self):
        assert CapacitiveSensor.parse("ideal").key == "ideal"
        s = CapacitiveSensor.parse("fpr=0.05,fnr=0.1")
        assert (s.false_positive_rate, s.false_negative_rate) == (0.05, 0.1)
        assert CapacitiveSensor.parse({"fpr": 0.2}).false_positive_rate == 0.2
        assert CapacitiveSensor.parse("latency_s=0.5").latency_s == 0.5
        with pytest.raises(UsageError):
            CapacitiveSensor.parse("fpr=2.0")
        with pytest.raises(UsageError):
            CapacitiveSensor.parse("warp=1")

    def test_sensor_spec_round_trips_through_to_dict(self):
        for spec in (CapacitiveSensor(), CapacitiveSensor(0.05, 0.1, 0.5)):
            assert CapacitiveSensor.parse(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "raw", ["fpr=1.0", "fnr=1", "fpr=-0.1", "fnr=nan", "latency=-1"]
    )
    def test_sensor_spec_range_is_the_constructors(self, raw):
        # parse and the constructor share one check: a rate in [0, 1),
        # a latency >= 0.
        with pytest.raises(UsageError, match="bad sensor spec"):
            CapacitiveSensor.parse(raw)
        k, _, v = raw.partition("=")
        field = {"fpr": "false_positive_rate", "fnr": "false_negative_rate",
                 "latency": "latency_s"}[k]
        with pytest.raises(ValueError, match=field):
            CapacitiveSensor(**{field: float(v)})

    def test_out_of_range_sensor_fails_the_config_at_load(self):
        # Regression: a rate of 1.0 used to pass the config's own check
        # ([0, 1]) and crash every scenario in the sensor's constructor
        # ([0, 1)). It is now a usage error when the config loads.
        data = {**TINY, "grid": [{**TINY["grid"][0], "sensors": ["fpr=1.0"]}]}
        with pytest.raises(UsageError, match=r"false_positive_rate must be in \[0, 1\)"):
            CampaignConfig.from_dict(data, source="inline")


class TestRunnerEndToEnd:
    def test_log_is_complete_and_valid(self, tmp_path):
        log = tmp_path / "c.jsonl"
        report = CampaignRunner(tiny_config()).run(log, jobs=1)
        assert validate_log(log) == []
        meta, records = read_log(log)
        assert meta["scenario_count"] == 4
        assert len(records) == 4
        # Zero silently-lost scenarios: every declared key, in grid
        # order, each with a terminal status.
        assert [r.key for r in records] == [
            s.key for s in tiny_config().expand()
        ]
        assert all(r.status == "ok" for r in records)
        assert report.ok_count == 4

    def test_jobs_invariance_bit_identical(self, tmp_path):
        logs = []
        for jobs in (1, 2, 4):
            log = tmp_path / f"c{jobs}.jsonl"
            CampaignRunner(tiny_config()).run(log, jobs=jobs)
            logs.append(log.read_bytes())
        assert logs[0] == logs[1] == logs[2]

    def test_resume_equivalence(self, tmp_path):
        full = tmp_path / "full.jsonl"
        CampaignRunner(tiny_config()).run(full, jobs=1)

        # First leg journals its decided scenarios...
        journal = tmp_path / "leg.journal"
        half_cfg = CampaignConfig.from_dict({
            "campaign": {"name": "tiny", "seed": 11},
            "grid": [{
                "generators": ["gen:panel:n=8:seed=1"],
                "fault_models": ["none", "permanent"],
            }],
        })
        CampaignRunner(half_cfg).run(
            tmp_path / "half.jsonl", jobs=1, journal_path=journal
        )
        # ...then the full campaign resumes from them: the resumed log
        # must be byte-identical to the uninterrupted run.
        resumed = tmp_path / "resumed.jsonl"
        report = CampaignRunner(tiny_config()).run(
            resumed, jobs=1, resume_from=journal
        )
        assert report.resumed == 2
        assert resumed.read_bytes() == full.read_bytes()

    def test_defects_are_known_not_detected(self, tmp_path):
        # A design-time defect pattern is routed around and dead from
        # t=0; the closed loop believes it up front, so the only
        # detection is the mid-assay fault.
        cfg = CampaignConfig.from_dict({
            "campaign": {"name": "defects", "seed": 5},
            "grid": [{
                "generators": ["pcr"], "defects": ["pair"],
                "fault_models": ["permanent"], "arrivals": [0.5],
            }],
        })
        log = tmp_path / "c.jsonl"
        CampaignRunner(cfg).run(log, jobs=1)
        assert validate_log(log) == []
        _, (record,) = read_log(log)
        assert record.completed
        assert record.recovery["detections"] == 1
        entry = json.loads(log.read_text().splitlines()[1])
        assert (entry["defects"], entry["arrival"]) == ("pair", 0.5)
        assert "site" not in entry

    def test_infeasible_scenarios_still_logged(self, tmp_path):
        # An 8x8 core cannot hold gen:mix-tree modules side by side;
        # synthesis fails, yet the log still carries one terminal
        # record per scenario.
        cfg = CampaignConfig.from_dict({
            "campaign": {"name": "cramped", "seed": 1},
            "grid": [{
                "generators": ["gen:mix-tree:n=8:seed=2"],
                "arrays": ["3x3"],
                "fault_models": ["none", "permanent"],
            }],
        })
        log = tmp_path / "c.jsonl"
        report = CampaignRunner(cfg).run(log, jobs=1)
        assert validate_log(log) == []
        _, records = read_log(log)
        assert [r.status for r in records] == ["infeasible", "infeasible"]
        assert all(r.error for r in records)
        assert report.ok_count == 0


class TestLogValidation:
    def run_tiny(self, tmp_path):
        log = tmp_path / "c.jsonl"
        CampaignRunner(tiny_config()).run(log, jobs=1)
        return log

    def test_missing_log_is_usage_error(self, tmp_path):
        with pytest.raises(UsageError, match="not found"):
            validate_log(tmp_path / "nope.jsonl")

    def test_truncated_log_detected(self, tmp_path):
        log = self.run_tiny(tmp_path)
        lines = log.read_text().splitlines(keepends=True)
        log.write_text("".join(lines[:-1]))
        assert any("lost scenarios" in e for e in validate_log(log))

    def test_corrupt_json_detected(self, tmp_path):
        log = self.run_tiny(tmp_path)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        assert any("not JSON" in e for e in validate_log(log))

    def test_wrong_version_detected(self, tmp_path):
        log = self.run_tiny(tmp_path)
        lines = log.read_text().splitlines()
        entry = json.loads(lines[1])
        entry["v"] = RECORD_SCHEMA_VERSION + 1
        lines[1] = json.dumps(entry, sort_keys=True)
        log.write_text("\n".join(lines) + "\n")
        assert any("schema version" in e for e in validate_log(log))

    def test_bad_field_type_detected(self, tmp_path):
        log = self.run_tiny(tmp_path)
        lines = log.read_text().splitlines()
        entry = json.loads(lines[1])
        entry["seed"] = "not-an-int"
        lines[1] = json.dumps(entry, sort_keys=True)
        log.write_text("\n".join(lines) + "\n")
        assert any("field 'seed'" in e for e in validate_log(log))

    def test_duplicate_key_detected(self, tmp_path):
        log = self.run_tiny(tmp_path)
        lines = log.read_text().splitlines(keepends=True)
        log.write_text("".join(lines) + lines[1])
        problems = validate_log(log)
        assert any("duplicate key" in e for e in problems)

    def test_swapped_records_detected(self, tmp_path):
        log = self.run_tiny(tmp_path)
        lines = log.read_text().splitlines(keepends=True)
        lines[1], lines[2] = lines[2], lines[1]
        log.write_text("".join(lines))
        problems = validate_log(log)
        assert any("out of grid order" in e for e in problems)

    def test_index_gap_detected(self, tmp_path):
        log = self.run_tiny(tmp_path)
        lines = log.read_text().splitlines()
        entry = json.loads(lines[2])
        entry["index"] = 5
        lines[2] = json.dumps(entry, sort_keys=True)
        log.write_text("\n".join(lines) + "\n")
        assert any("index 5 out of grid order" in e for e in validate_log(log))

    def test_read_log_raises_on_invalid(self, tmp_path):
        log = self.run_tiny(tmp_path)
        log.write_text(log.read_text() + "{not json\n")
        with pytest.raises(ReproError, match="invalid campaign log"):
            read_log(log)


class TestStructuredFailures:
    def test_unpicklable_unit_yields_keyed_crashed_records(self, tmp_path):
        from repro.testing.chaos import ChaosPolicy

        # Unit 0's scenarios (tasks 0 and 1) fail on every attempt with
        # an exception the result pipe cannot pickle (task-scoped, so
        # unit 1 is unharmed): they must be logged as keyed crashed
        # records.
        chaos = ChaosPolicy.explicit_plan(
            {(i, a): "unpicklable" for i in range(2) for a in range(2)}
        )
        log = tmp_path / "c.jsonl"
        report = CampaignRunner(tiny_config()).run(
            log, jobs=2, max_retries=1, chaos=chaos
        )
        assert validate_log(log) == []
        _, records = read_log(log)
        assert [r.key for r in records] == [
            s.key for s in tiny_config().expand()
        ]
        assert [r.status for r in records] == ["crashed"] * 2 + ["ok"] * 2
        assert all(r.error for r in records[:2])
        assert report.status_counts == {"crashed": 2, "ok": 2}

    def test_worker_kill_retry_is_byte_identical(self, tmp_path):
        from repro.testing.chaos import ChaosPolicy

        clean, stormy = tmp_path / "clean.jsonl", tmp_path / "stormy.jsonl"
        CampaignRunner(tiny_config()).run(clean, jobs=2)
        chaos = ChaosPolicy.explicit_plan({(1, 0): "worker-kill"})
        CampaignRunner(tiny_config()).run(
            stormy, jobs=2, max_retries=2, chaos=chaos
        )
        assert stormy.read_bytes() == clean.read_bytes()

    def test_partial_resume_is_byte_identical(self, tmp_path):
        full, journal = tmp_path / "full.jsonl", tmp_path / "c.journal"
        CampaignRunner(tiny_config()).run(full, jobs=1, journal_path=journal)
        # Keep one journaled scenario of the first unit: the resume
        # recomputes its sibling on the shared prefix and every other
        # unit, each from its own key-derived seed.
        partial = tmp_path / "partial.journal"
        partial.write_text(journal.read_text().splitlines(keepends=True)[0])
        resumed = tmp_path / "resumed.jsonl"
        report = CampaignRunner(tiny_config()).run(
            resumed, jobs=2, resume_from=partial
        )
        assert report.resumed == 1
        assert resumed.read_bytes() == full.read_bytes()


class TestScenarioFanOut:
    """Pool tasks are scenarios: a worker keeps the unit it built for
    that unit's next scenarios, and an idle worker steals what is
    left. Spies tag each call with the pid of the process making it;
    under ``fork`` the workers inherit them."""

    pytestmark = pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers inherit the spies only under fork",
    )

    @staticmethod
    def _spy(monkeypatch, tmp_path, method: str, tag):
        """Append ``pid tag(args)`` to a file on every ``_Unit.<method>``
        call, in whichever process makes it; return the file."""
        from repro.workload import campaign

        calls = tmp_path / f"{method}.calls"
        real = getattr(campaign._Unit, method)

        def spy(self, *args):
            with open(calls, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {tag(*args)}\n")
            return real(self, *args)

        monkeypatch.setattr(campaign._Unit, method, spy)
        return calls

    def test_one_unit_fans_out_over_two_workers(self, tmp_path, monkeypatch):
        from repro.testing.chaos import ChaosPolicy

        config = CampaignConfig.from_dict({
            "campaign": {"name": "one-unit", "seed": 3},
            "grid": [{
                "generators": ["pcr"],
                "fault_models": ["none", "permanent", "intermittent", "cluster"],
            }],
        }, source="inline")
        serial, fanned = tmp_path / "serial.jsonl", tmp_path / "fanned.jsonl"
        CampaignRunner(config).run(serial, jobs=1)
        runs = self._spy(monkeypatch, tmp_path, "run", lambda sc, seed: sc.key)
        CampaignRunner(config).run(fanned, jobs=2, chaos=ChaosPolicy.none())
        pids = {line.split()[0] for line in runs.read_text().splitlines()}
        assert len(pids) == 2 and str(os.getpid()) not in pids
        assert fanned.read_bytes() == serial.read_bytes()

    def test_no_worker_synthesizes_a_unit_twice(self, tmp_path, monkeypatch):
        from repro.testing.chaos import ChaosPolicy

        config = CampaignConfig.from_dict({
            "campaign": {"name": "four-units", "seed": 11},
            "grid": [{
                "generators": ["gen:panel:n=8:seed=1", "gen:mix-tree:n=8:seed=2"],
                "arrays": ["auto", "12x12"],
                "fault_models": ["none", "permanent", "intermittent"],
            }],
        }, source="inline")
        built = self._spy(monkeypatch, tmp_path, "__init__", lambda unit: unit.key)
        report = CampaignRunner(config).run(None, jobs=2, chaos=ChaosPolicy.none())
        assert report.ok_count == 12
        syntheses = built.read_text().splitlines()
        assert len(syntheses) == len(set(syntheses))
        assert {line.split(" ", 1)[1] for line in syntheses} == {
            sc.unit_key for sc in config.expand()
        }


    def test_a_hung_synthesis_times_out_its_unit_without_degrading(
        self, monkeypatch
    ):
        # pcr's synthesis hangs past every deadline, in each of its three
        # scenarios' workers. The unit's worker losses count once per
        # attempt depth, so the pool never degrades into running the
        # hang in this process: pcr's scenarios are timeout records
        # after three deadlines, and dilution's run normally.
        from repro.testing.chaos import ChaosPolicy
        from repro.workload import campaign

        config = CampaignConfig.from_dict({
            "campaign": {"name": "hung", "seed": 3},
            "grid": [{
                "generators": ["pcr", "dilution"],
                "fault_models": ["none", "permanent", "intermittent"],
            }],
        }, source="inline")
        real_init = campaign._Unit.__init__

        def hung_init(self, spec):
            if spec.spec == "pcr":
                time.sleep(30)
            real_init(self, spec)

        pools = []

        class SpiedPool(campaign.SupervisedPool):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                pools.append(self)

        monkeypatch.setattr(campaign._Unit, "__init__", hung_init)
        monkeypatch.setattr(campaign, "SupervisedPool", SpiedPool)
        t0 = time.monotonic()
        report = CampaignRunner(config).run(
            None, jobs=2, task_timeout=0.5, chaos=ChaosPolicy.none()
        )
        (pool,) = pools
        assert not pool.degraded
        assert [(r.spec, r.status) for r in report.records] == (
            [("pcr", "timeout")] * 3 + [("dilution", "ok")] * 3
        )
        assert all("deadline 0.5s exceeded" in r.error for r in report.records[:3])
        assert time.monotonic() - t0 < 10


class TestUnitSharesItsNominalReplay:
    """A process keeps the unit it synthesized, and with it one recovery
    engine across the unit's scenarios, whose simulator cache keeps
    their design, so the design's fault-free nominal replay runs once
    for every scenario of the unit the process runs, whatever their
    order: the `none` scenario's verdict reads the same report. pcr at
    campaign seed 3 under a lossy sensor: the cluster scenario recovers
    twice, so recovered designs are cached between scenarios."""

    MODELS = ("none", "permanent", "intermittent", "cluster")

    @staticmethod
    def _tasks():
        config = CampaignConfig.from_dict({
            "campaign": {"name": "unit", "seed": 3, "max_parked": 2,
                         "fast": True},
            "grid": [{
                "generators": ["pcr"],
                "fault_models": list(TestUnitSharesItsNominalReplay.MODELS),
                "sensors": ["fpr=0.02,fnr=0.05"],
            }],
        }, source="inline")
        tasks, _ = CampaignRunner(config)._tasks(config.expand(), {})
        return tasks

    @staticmethod
    def _run_counting(tasks, monkeypatch):
        """The tasks' log lines in grid order, run one after another in
        this process, how many fault-free replays of the unit's design
        ran on any simulator (verdicts included), and the records."""
        from repro.sim.engine import BiochipSimulator
        from repro.synthesis.flow import SynthesisFlow
        from repro.workload.campaign import _drop_unit, _run_scenario

        designs: list = []
        built: list = []
        nominal_runs = []
        flow_run = SynthesisFlow.run
        init, run = BiochipSimulator.__init__, BiochipSimulator.run

        def spy_flow_run(self, *args, **kwargs):
            designs.append(flow_run(self, *args, **kwargs))
            return designs[-1]

        def spy_init(
            self, graph, schedule, binding, placement, chip, routing_plan=None, **kw
        ):
            init(self, graph, schedule, binding, placement, chip, routing_plan, **kw)
            (design,) = designs
            if (
                placement is design.placement_result.placement
                and routing_plan is design.routing_plan
            ):
                built.append(self)

        def spy_run(self, faults=(), **kw):
            faults = list(faults)
            if not faults and any(s is self for s in built):
                nominal_runs.append(self)
            return run(self, faults=faults, **kw)

        monkeypatch.setattr(SynthesisFlow, "run", spy_flow_run)
        monkeypatch.setattr(BiochipSimulator, "__init__", spy_init)
        monkeypatch.setattr(BiochipSimulator, "run", spy_run)
        _drop_unit()
        try:
            records = sorted(
                (_run_scenario(t) for t in tasks), key=lambda r: r.index
            )
        finally:
            _drop_unit()
            monkeypatch.undo()
        log = "".join(json.dumps(r.to_dict()) + "\n" for r in records)
        return log, len(nominal_runs), records

    def test_one_nominal_replay_in_either_order(self, monkeypatch):
        tasks = self._tasks()
        assert [t.scenario.fault_model for t in tasks] == list(self.MODELS)
        forward, forward_runs, records = self._run_counting(tasks, monkeypatch)
        backward, backward_runs, _ = self._run_counting(tasks[::-1], monkeypatch)
        # A scenario that caches recovered designs.
        assert max(r.recovery["recoveries"] for r in records) >= 2
        assert all(r.ok and r.completed for r in records)
        assert (forward_runs, backward_runs) == (1, 1)
        assert backward == forward
