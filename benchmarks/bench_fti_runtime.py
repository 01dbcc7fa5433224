"""Section 5.3 — "the calculation of FTI takes only 1.7 seconds".

The paper's point is that FTI is cheap enough to call inside a
placement loop. We time our FTI (``compute_fti``) and its three
reference oracles on the measured min-area placement and check that
every one returns the same report (covered cells, and per module the
feasible-position count and the stuck and relocatable cells):

* ``placements`` — bitboard position counting (``compute_fti``;
  evaluates each module once, used inside the LTSA loop): the feasible
  origins are the free mask eroded to the window, and the stuck cells
  are the intersection of the feasible windows — the fastest.
* ``sat`` — summed-area-table position counting with a 2-D difference
  array of per-cell cover counts (oracle).
* ``mer`` — the paper's literal Section 5.3 procedure (oracle), which re-mines
  the maximal empty rectangles for every candidate faulty cell; its
  cost scales with (module cells) x (MER sweep), so on the paper-sized
  7x9 array it is measurably slower than the one-pass methods while
  still orders of magnitude under the paper's 1.7 s anecdote.
* ``bruteforce`` — the pure-Python per-cell position scan (oracle).
"""

import functools

import pytest
from oracles import reference_fti

from repro.fault.fti import compute_fti

_ALGORITHMS = {
    "placements": compute_fti,
    "sat": functools.partial(reference_fti, method="sat"),
    "mer": functools.partial(reference_fti, method="mer"),
    "bruteforce": functools.partial(reference_fti, method="bruteforce"),
}


@pytest.fixture(scope="module")
def placement(request):
    from repro.experiments.pcr import pcr_case_study
    from repro.placement.annealer import AnnealingParams
    from repro.placement.sa_placer import SimulatedAnnealingPlacer

    study = pcr_case_study()
    placer = SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=2)
    return placer.place(study.schedule, study.binding).placement


@pytest.mark.parametrize("method", list(_ALGORITHMS))
def test_fti_runtime(benchmark, report, placement, method):
    result = benchmark(_ALGORITHMS[method], placement)

    reference = reference_fti(placement, method="bruteforce")
    assert result.covered == reference.covered
    assert result.per_module == reference.per_module

    report(
        f"FTI runtime ({method})",
        f"FTI = {result.fti:.4f} ({result.fault_tolerance_number}/"
        f"{result.cell_count} C-covered) on the "
        f"{result.width}x{result.height} min-area array; paper anecdote: "
        "1.7 s on a 1 GHz Pentium-III for the MER procedure",
    )
