"""Shared fixtures: the PCR case study, pre-computed placements, and a
compiler that fails.

Placement runs are the expensive part of the suite, so session-scoped
fixtures run each placer once and share the result; tests must treat
them as read-only (copy before mutating).
"""

from __future__ import annotations

import sys

import pytest

from repro import kernels
from repro.experiments.pcr import pcr_case_study
from repro.placement.annealer import AnnealingParams
from repro.placement.greedy import GreedyPlacer, build_placed_modules
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.placement.two_stage import TwoStagePlacer


@pytest.fixture(scope="session")
def pcr():
    """The paper's case study: graph + Table 1 binding + schedule."""
    return pcr_case_study()


@pytest.fixture(scope="session")
def pcr_modules(pcr):
    """Unplaced PCR modules (fresh list per test is unnecessary —
    PlacedModule is immutable)."""
    return build_placed_modules(pcr.schedule, pcr.binding)


@pytest.fixture(scope="session")
def sa_result(pcr):
    """One fault-oblivious SA placement of the PCR assay (seed 2)."""
    placer = SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=2)
    return placer.place(pcr.schedule, pcr.binding)


@pytest.fixture(scope="session")
def greedy_result(pcr):
    """The greedy baseline placement of the PCR assay."""
    return GreedyPlacer().place(pcr.schedule, pcr.binding)


@pytest.fixture(scope="session")
def two_stage_result(pcr):
    """One two-stage placement at beta=30 with small test schedules."""
    placer = TwoStagePlacer(
        beta=30.0,
        stage1_params=AnnealingParams.fast(),
        stage2_params=AnnealingParams(
            initial_temp=30.0,
            cooling=0.8,
            iterations_per_module=25,
            freeze_rounds=2,
            window_gamma=0.4,
        ),
        seed=7,
    )
    return placer.place(pcr.schedule, pcr.binding)


class FailingCompiler:
    """A C compiler that exits with an error on every run and logs each
    run, building into an empty cache directory of its own."""

    def __init__(self, root, monkeypatch) -> None:
        self.cache = root / "cache"
        self.cache.mkdir()
        self._log = root / "runs"
        self._monkeypatch = monkeypatch
        self._seen = 0

    def install(self) -> None:
        """Unload the kernels: their next build runs this compiler."""
        command = [
            sys.executable, "-c",
            f"import sys; open({str(self._log)!r}, 'a').write('run\\n'); "
            "sys.exit('cc: no such compiler')",
        ]
        self._monkeypatch.setattr(kernels, "compile_command", lambda source, target: command)
        self._monkeypatch.setattr(kernels, "_cache_dir", lambda: self.cache)
        self._monkeypatch.setattr(kernels, "_lib", None)

    def runs(self) -> int:
        return len(self._log.read_text().splitlines()) if self._log.exists() else 0

    def check(self, error: Exception) -> None:
        """*error*, from the first use, names the command and its
        stderr, and the build left the cache directory empty."""
        assert sys.executable in str(error) and "cc: no such compiler" in str(error)
        self._seen = self.runs()
        assert self._seen >= 1
        assert not list(self.cache.iterdir())

    def check_again(self, first: Exception, second: Exception) -> None:
        """A later use raised *first* again without running the compiler."""
        assert second is first and str(second) == str(first)
        assert self.runs() == self._seen
        assert not list(self.cache.iterdir())


@pytest.fixture
def failing_compiler(monkeypatch, tmp_path) -> FailingCompiler:
    """A :class:`FailingCompiler`; the kernels stay loaded until its
    ``install()``, and are restored after the test."""
    return FailingCompiler(tmp_path, monkeypatch)
