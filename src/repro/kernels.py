"""Build and load the compiled kernels (``_anneal.c`` and ``_route.c``).

Three hot loops run in C:

* the annealer runs a cost whose ``delta`` is :meth:`~repro.placement.
  cost.AreaCost.delta` through ``anneal_round``, a C transcription of
  its Metropolis step, bit for bit the generic Python body (see
  :meth:`~repro.placement.incremental.IncrementalCostEvaluator.
  bind_round`);
* the router's searches: a :class:`~repro.routing.timegrid.TimeGrid`
  keeps its reservations in a ``route_store``, and the time-expanded A*
  and the parking search run over it (``repro.routing.timegrid``);
* the plan proof: :meth:`~repro.routing.plan.RoutingPlan.verify` asks
  ``route_verify`` whether every epoch keeps the fluidic constraints,
  and formats the first violation it reports (``repro.routing.plan``).

Both sources ship with the package and are built into one shared
library on the first anneal, routing grid or plan proof that needs it,
never at import: ``sysconfig``'s ``CC`` compiles each with
:data:`FLAGS`, both at once, and links the two objects. The
library is cached under a name hashed from both sources, the compile
command and the platform: in this package's ``__pycache__/`` when that
is writable, in a per-user directory under the system temp dir
otherwise. A build holds a lock on that directory, so processes that
miss the library at once (campaign workers) build it once, and writes
a temp name that it renames into place, so no process loads a
half-written file.

A C compiler is required. When the build or the load fails, :func:`load`
raises :class:`~repro.util.errors.KernelBuildError`, naming the compile
command and its stderr, and raises that same error on every later call
without running the compiler again.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import subprocess
import sysconfig
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from repro.util.errors import KernelBuildError

try:
    import fcntl
except ImportError:  # no flock (Windows): concurrent builders each build
    fcntl = None

#: The kernels' sources, compiled into one library.
SOURCES = (
    Path(__file__).parent / "placement" / "_anneal.c",
    Path(__file__).parent / "routing" / "_route.c",
)

#: ``-ffp-contract=off`` keeps ``a * b + c * d`` two rounded products
#: and a rounded sum, as CPython computes it (no fused multiply-add on
#: aarch64 or under clang). No ``-ffast-math``, no ``-march=native``.
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC")

_i64 = ctypes.c_int64
_f64 = ctypes.c_double
_ptr = ctypes.c_void_p


class RoundStatic(ctypes.Structure):
    """``anneal_static``: what a round reads, built once per anneal."""

    _fields_ = [
        ("n_cands", _i64), ("cands", _ptr), ("kn", _i64), ("kn1", _i64),
        ("pool_branch", _i64), ("single_only", _i64), ("alone", _i64), ("others", _i64),
        ("p_single", _f64), ("p_rotate", _f64),
        ("alpha", _f64), ("overlap_weight", _f64), ("pull_weight", _f64), ("pitch2", _f64),
        ("dims", _ptr), ("lim", _ptr), ("fits", _ptr), ("square", _ptr),
        ("nbr_start", _ptr), ("nbr_idx", _ptr), ("nbr_dt", _ptr),
        ("resync_every", _i64),
    ]


class RoundState(ctypes.Structure):
    """``anneal_state``: the evaluator's mutable state and the streams."""

    _fields_ = [
        ("x1", _ptr), ("y1", _ptr), ("x2", _ptr), ("y2", _ptr), ("rot", _ptr),
        ("cx1", _ptr), ("cy1", _ptr), ("cx2", _ptr), ("cy2", _ptr),
        ("bx1", _i64), ("by1", _i64), ("bx2", _i64), ("by2", _i64),
        ("overlap_total", _f64),
        ("conflict_pairs", _i64), ("pull_sum", _i64), ("applies_since_resync", _i64),
        ("move_rng", _ptr), ("accept_rng", _ptr),
        ("improved", _i64),
    ]


def _cc() -> list[str]:
    cc = sysconfig.get_config_var("CC")
    if not cc:
        raise KernelBuildError("sysconfig names no C compiler (CC is unset)")
    return shlex.split(cc)


def compile_command(source: str, target: str) -> list[str]:
    """The argv that compiles *source* into the object file *target*."""
    return [*_cc(), *FLAGS, "-c", "-o", target, source]


def link_command(objects: list[str], target: str) -> list[str]:
    """The argv that links *objects* into the shared library *target*."""
    return [*_cc(), "-shared", "-o", target, *objects, "-lm"]


def _run(commands: list[list[str]]) -> None:
    """Run *commands* at once (one per source, so the compiles overlap)
    and wait for all of them; the first that fails is the error."""
    running = []
    for command in commands:
        try:
            proc = subprocess.Popen(
                command, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
            )
        except OSError as exc:
            for _, started in running:
                started.kill()
                started.communicate()
            raise KernelBuildError(f"`{shlex.join(command)}` did not run: {exc}") from None
        running.append((command, proc))
    failures = []
    for command, proc in running:
        _, stderr = proc.communicate()
        if proc.returncode != 0:
            failures.append(
                f"`{shlex.join(command)}` exited with status {proc.returncode}: "
                f"{stderr.strip() or '(no stderr)'}"
            )
    if failures:
        raise KernelBuildError(failures[0])


def _cache_dir() -> Path:
    """This package's ``__pycache__/`` if writable, else a per-user
    directory in the system temp dir."""
    local = Path(__file__).with_name("__pycache__")
    try:
        local.mkdir(exist_ok=True)
        if os.access(local, os.W_OK):
            return local
    except OSError:
        pass
    user = os.getuid() if hasattr(os, "getuid") else os.getlogin()
    shared = Path(tempfile.gettempdir()) / f"repro-kernels-{user}"
    shared.mkdir(mode=0o700, exist_ok=True)
    if hasattr(os, "getuid") and shared.stat().st_uid != os.getuid():
        raise KernelBuildError(f"{shared} belongs to another user")
    return shared


def _library() -> Path:
    """The cached shared library, compiled first if it is missing."""
    sources = [path.read_bytes() for path in SOURCES]
    commands = [compile_command(path.name, "OBJECT") for path in SOURCES]
    commands.append(link_command(["OBJECTS"], "TARGET"))
    key = hashlib.sha256(
        b"\0".join([*sources, *(shlex.join(c).encode() for c in commands),
                    sysconfig.get_platform().encode(), platform.machine().encode()])
    ).hexdigest()[:16]
    path = _cache_dir() / f"_kernels-{key}.so"
    if path.exists():
        return path
    with _locked(path.parent):
        if path.exists():  # another process built it while this one waited
            return path
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        with tempfile.TemporaryDirectory(dir=path.parent) as work:
            objects = [os.path.join(work, f"{source.stem}.o") for source in SOURCES]
            _run([compile_command(str(s), o) for s, o in zip(SOURCES, objects)])
            try:
                _run([link_command(objects, str(tmp))])
            except KernelBuildError:
                tmp.unlink(missing_ok=True)
                raise
        os.replace(tmp, path)
    return path


@contextmanager
def _locked(directory: Path) -> Iterator[None]:
    """Hold an exclusive lock on *directory* where the OS has ``flock``,
    so processes that miss the library at once (campaign workers) build
    it once; elsewhere each builds its own, renamed into place."""
    if fcntl is None:
        yield
        return
    fd = os.open(directory, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)  # releases the lock


class _Kernels:
    """The library's functions, typed: ``_anneal.c``'s ``anneal_*`` and
    ``_route.c``'s ``route_*``."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        i32, u8, store = ctypes.c_int32, ctypes.c_char_p, _ptr
        net = [i32, i32, i32, u8, u8]  # net, producer, consumer, their zone masks
        signatures = {
            "anneal_round": (_i64, [
                ctypes.POINTER(RoundStatic), ctypes.POINTER(RoundState),
                _i64, _f64, _i64, ctypes.POINTER(_f64), _f64, ctypes.POINTER(_i64),
            ]),
            "anneal_layout": (_i64, [_ptr, _i64, ctypes.POINTER(ctypes.c_char_p)]),
            "route_new": (store, [_i64, _i64, _ptr, _ptr]),
            "route_free": (None, [store]),
            "route_reserve": (_i64, [store, _ptr, _i64, _i64, *net]),
            "route_remove": (None, [store, i32]),
            "route_clear": (None, [store]),
            "route_live": (_i64, [store]),
            "route_reserved": (_i64, [store]),
            "route_blocked": (_i64, [store, _i64, _i64, *net]),
            "route_search": (_i64, [store, _i64, _i64, _i64, *net, _ptr]),
            "route_parking": (_i64, [store, _i64, _i64, _ptr, _i64, _ptr, _i64]),
            "route_verify": (_i64, [_i64, _i64, _i64, _ptr, _ptr]),
        }
        for name, (restype, argtypes) in signatures.items():
            fn = getattr(lib, name)
            fn.restype = restype
            fn.argtypes = argtypes
            setattr(self, name, fn)


#: The loaded kernels, or the error their build or load raised.
_lib: _Kernels | KernelBuildError | None = None


def load() -> _Kernels:
    """The compiled kernels, built and loaded on first use.

    Raises :class:`~repro.util.errors.KernelBuildError` when they cannot
    be built or loaded; every later call raises the same error without
    trying again."""
    global _lib
    if _lib is None:
        try:
            _lib = _Kernels(ctypes.CDLL(str(_library())))
        except (KernelBuildError, OSError) as exc:
            _lib = KernelBuildError(
                "cannot build or load the compiled kernels, which the anneal "
                f"round, the router and the routing plan proof run on: {exc}"
            )
    if isinstance(_lib, KernelBuildError):
        raise _lib.with_traceback(None)
    return _lib
