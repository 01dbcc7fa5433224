"""The package runs without numpy.

``pyproject.toml`` does not list numpy: the grid geometry is bitboards
and plain ints, and only the test oracles use numpy arrays. This check
imports every module of ``repro`` in a fresh interpreter where
``import numpy`` fails, then relocates a module off a faulty cell, so a
numpy import anywhere in the package fails here rather than on an
install without it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import importlib
import pkgutil
import sys

sys.modules["numpy"] = None  # any "import numpy" now raises ImportError

import repro

for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name != "repro.__main__":  # runs the CLI on import
        importlib.import_module(info.name)

from repro import PartialReconfigurer, PlacedModule, Placement, Point
from repro.modules.library import MIXER_2X2

placement = Placement(8, 8)
placement.add(PlacedModule("a", MIXER_2X2, x=1, y=1, start=0.0, stop=10.0))
_, plan = PartialReconfigurer().apply(placement, Point(2, 2))
print(plan.relocations[0])
"""


def test_package_imports_and_relocates_without_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "a: 4x4@(1,1) -> 4x4@(3,1)"
