"""On-line testing substrate (paper references [13] and [14]).

The paper assumes faulty cells are "detected using the technique
described in [13]": a test droplet is dispensed from a test source,
pumped through a path covering the cells under test, and observed at a
capacitive sensing circuit at the sink — if the droplet never arrives,
some cell on the path is faulty. Reference [14] extends this to
*concurrent* testing, interleaved with assay operation on cells not
currently used by modules.

We simulate that hardware: :mod:`repro.testing.test_droplet` plans
coverage walks over the cells free at an instant
(:func:`~repro.testing.test_droplet.free_cell_paths`) and simulates a
walk over an array with injected faults;
:mod:`repro.testing.detector` models the sink sensor, whose reads may
err and always draw from an explicit RNG; :mod:`repro.testing.localize`
pinpoints the faulty cell by majority-voted binary search over path
prefixes. The one campaign executor is the closed-loop controller's
probe loop (:class:`repro.recovery.ClosedLoopController`), which plans
the walks at every probe instant, localizes each, and confirms a
finding with a second localization before recovering around it.
"""

from repro.testing.detector import CapacitiveSensor
from repro.testing.localize import FaultLocalizer, LocalizationResult
from repro.testing.test_droplet import (
    TestDroplet,
    TestOutcome,
    free_cell_paths,
    snake_path,
)

__all__ = [
    "CapacitiveSensor",
    "FaultLocalizer",
    "LocalizationResult",
    "TestDroplet",
    "TestOutcome",
    "free_cell_paths",
    "snake_path",
]
