"""The compiled plan proof gives every plan the library proves the
Python proof's verdict.

:meth:`~repro.routing.RoutingPlan.verify` asks ``route_verify``
(``_route.c``) first and runs its Python proof only on a reported
violation, to write the message, so a kernel that wrongly rejects would
only cost time and one that wrongly accepts would let a bad plan run.
Both are pinned here on the corpus the library proves: the nominal
plans of the five bundled assays and of the ``ci-grid.toml`` designs,
and every merged plan the recovery proves when the bundled assays run
closed-loop under four fault models at two arrivals, plus a merged plan
whose kept prefix epoch is planted bad.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from unittest import mock

import pytest
from assays import ci_grid_designs, closed_loop_scenarios, routed_assay
from oracles.routing import kernel_proves, needs_compiler, python_proof

from repro.assay.catalog import BUNDLED_ASSAYS
from repro.placement import compiled
from repro.placement.annealer import AnnealingParams
from repro.recovery import ClosedLoopController, OnlineRecoveryEngine
from repro.routing import RoutingPlan
from repro.util.errors import RoutingError


def _designs() -> list:
    return [routed_assay(name) for name in sorted(BUNDLED_ASSAYS)] + list(
        ci_grid_designs().values()
    )


def _recovered_plans() -> list:
    """Every plan the closed loop proves over the scenarios, with the
    number of kept prefix epochs of each merged plan."""
    proven = []
    verify = RoutingPlan.verify

    def spy(plan):
        proven.append(plan)
        return verify(plan)

    controller = ClosedLoopController(
        engine=OnlineRecoveryEngine(annealing=AnnealingParams.fast())
    )
    reused = {}
    with mock.patch.object(RoutingPlan, "verify", spy):
        for result, events, seed in closed_loop_scenarios():
            outcome = controller.run(result, events, seed=seed, mode="oracle")
            for recovery in outcome.recoveries:
                if recovery.routing_plan is not None:
                    reused[id(recovery.routing_plan)] = recovery.reused_epochs
    return [(plan, reused.get(id(plan), 0)) for plan in proven]


@needs_compiler
def test_both_proofs_agree_on_the_corpus():
    nominal = [design.routing_plan for design in _designs()]
    recovered = _recovered_plans()
    assert len(nominal) == 9 and len(recovered) >= 30
    for plan in nominal + [plan for plan, _ in recovered]:
        assert kernel_proves(plan) == (python_proof(plan) is None)
    # A kept prefix epoch is proven too: plant a faulty cell under the
    # first routed droplet of the first epoch of a merged plan.
    plan, kept = next((plan, kept) for plan, kept in recovered if kept and plan.epochs[0].nets)
    first = plan.epochs[0]
    bad_epoch = replace(first, faulty=first.faulty | {first.nets[0].cells[-1]})
    bad = replace(plan, epochs=(bad_epoch, *plan.epochs[1:]))
    message = python_proof(bad)
    assert message is not None and "faulty cell" in message
    assert not kernel_proves(bad)
    with pytest.raises(RoutingError) as caught:
        bad.verify()
    assert str(caught.value) == message


def test_failed_build_warns_once_naming_the_proof(monkeypatch, tmp_path):
    """A compiler that fails is reported once, as a ``RuntimeWarning``
    that names the plan proof; plans are then proven in Python, with
    the same verdicts and messages."""
    plan = routed_assay("pcr").routing_plan
    first = plan.epochs[0]
    bad = replace(plan, epochs=(
        replace(first, parked=first.parked | {first.nets[0].cells[-1]}), *plan.epochs[1:]
    ))
    message = python_proof(bad)
    command = [sys.executable, "-c", "import sys; sys.exit('cc: no such compiler')"]
    monkeypatch.setattr(compiled, "compile_command", lambda source, target: command)
    monkeypatch.setattr(compiled, "_cache_dir", lambda: tmp_path)
    monkeypatch.setattr(compiled, "_lib", compiled._UNLOADED)
    with pytest.warns(RuntimeWarning, match="no such compiler") as caught:
        plan.verify()
    assert len(caught) == 1
    assert "routing plan proof" in str(caught[0].message)
    assert compiled.route_kernel() is None
    with pytest.raises(RoutingError) as rejected:
        bad.verify()
    assert message is not None and str(rejected.value) == message
