"""The package imports only the standard library.

``pyproject.toml`` lists no runtime dependency: the grid geometry is
bitboards and plain ints, the sequencing graph is insertion-ordered
dicts, and only the test oracles use numpy arrays and networkx graphs.
This check imports every module of ``repro`` in a fresh interpreter
where ``import numpy`` and ``import networkx`` fail, then relocates a
module off a faulty cell and sorts a bundled assay topologically, so
either import anywhere in the package fails here rather than on an
install without it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: The pcr assay's lexicographic topological order (paper Figure 5's
#: seven mixes).
PCR_ORDER = "M1 M2 M3 M4 M5 M6 M7"

_PROBE = """
import importlib
import pkgutil
import sys

sys.modules["numpy"] = None  # any "import numpy" now raises ImportError
sys.modules["networkx"] = None

import repro

for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name != "repro.__main__":  # runs the CLI on import
        importlib.import_module(info.name)

from repro import PartialReconfigurer, PlacedModule, Placement, Point
from repro.assay.catalog import build_assay
from repro.modules.library import MIXER_2X2

placement = Placement(8, 8)
placement.add(PlacedModule("a", MIXER_2X2, x=1, y=1, start=0.0, stop=10.0))
_, plan = PartialReconfigurer().apply(placement, Point(2, 2))
print(plan.relocations[0])
graph, _ = build_assay("pcr")
print(" ".join(graph.topological_order()))
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
    relocation, order = done.stdout.strip().splitlines()
    assert relocation == "a: 4x4@(1,1) -> 4x4@(3,1)"
    assert order == PCR_ORDER


def test_pyproject_lists_no_runtime_dependency():
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert project.get("dependencies", []) == []
