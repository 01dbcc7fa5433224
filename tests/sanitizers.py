"""pytest plugin: build the compiled kernels with AddressSanitizer and
UndefinedBehaviorSanitizer.

Not a test module and not loaded by default. The sanitizer CI job loads
it by name, with ``tests/`` on the path, and preloads the sanitizer
runtimes into the interpreter, which is not built with them::

    PYTHONPATH=src:tests \\
    LD_PRELOAD="$(gcc -print-file-name=libasan.so) $(gcc -print-file-name=libubsan.so)" \\
    ASAN_OPTIONS=detect_leaks=0 PYTHONMALLOC=malloc \\
    python -m pytest -p sanitizers --capture=sys tests/test_kernels.py ...

It appends the sanitizer flags to :data:`repro.kernels.FLAGS` (keeping
``-ffp-contract=off``, so every float result stays the production
one), links with the sanitizer runtimes, and builds into a temporary
directory of its own, so the instrumented library never lands in the
package's cache. An out-of-bounds access or an undefined operation in
a kernel then ends the run with the sanitizer's report, which
``--capture=sys`` lets through to the terminal.
``PYTHONMALLOC=malloc`` sends the interpreter's small allocations
(the ``array`` buffers the kernels read and write) through ``malloc``,
where the sanitizer guards them too.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import pytest

from repro import kernels

SANITIZE = "-fsanitize=address,undefined"
COMPILE_FLAGS = (
    "-O1", "-g", "-fno-omit-frame-pointer", SANITIZE, "-fno-sanitize-recover=undefined",
)

#: The plugin's build directory, removed when the run ends.
_CACHE = pytest.StashKey[Path]()


def pytest_configure(config) -> None:
    cache = Path(tempfile.mkdtemp(prefix="repro-sanitized-kernels-"))
    config.stash[_CACHE] = cache
    link = kernels.link_command
    kernels.FLAGS = (*kernels.FLAGS, *COMPILE_FLAGS)
    kernels.link_command = lambda objects, target: [*link(objects, target), SANITIZE]
    kernels._cache_dir = lambda: cache
    kernels._lib = None


def pytest_report_header(config) -> str:
    return f"kernels built with: {' '.join(kernels.FLAGS)}"


def pytest_unconfigure(config) -> None:
    shutil.rmtree(config.stash[_CACHE], ignore_errors=True)

