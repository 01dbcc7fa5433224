"""Build and load the compiled area-cost round (``_anneal.c``).

The annealer runs a cost whose ``delta`` is :meth:`~repro.placement.cost.
AreaCost.delta` through ``anneal_round``, a C transcription of its
Metropolis step (see :meth:`~repro.placement.incremental.
IncrementalCostEvaluator.bind_round`). The source ships with the package
and is compiled on the first anneal that needs it, never at import,
with ``sysconfig``'s ``CC`` and :data:`FLAGS`. The shared library is
cached under a name hashed from the source, the compile command and the
platform: in this package's ``__pycache__/`` when that is writable, in
a per-user directory under the system temp dir otherwise. A build
writes a temp name and renames it into place, so processes that build
at once (forked campaign workers) never load a half-written file.

When the build or the load fails, :func:`load` warns once with a
:class:`RuntimeWarning` that names the compile command and its stderr,
and the annealer runs the generic Python body instead.
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
import warnings
from pathlib import Path

SOURCE = Path(__file__).with_name("_anneal.c")

#: ``-ffp-contract=off`` keeps ``a * b + c * d`` two rounded products
#: and a rounded sum, as CPython computes it (no fused multiply-add on
#: aarch64 or under clang). No ``-ffast-math``, no ``-march=native``.
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

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


class _BuildError(Exception):
    pass


def compile_command(source: str, target: str) -> list[str]:
    """The argv that compiles *source* into the shared library *target*."""
    cc = sysconfig.get_config_var("CC")
    if not cc:
        raise _BuildError("sysconfig names no C compiler (CC is unset)")
    return [*shlex.split(cc), *FLAGS, "-o", target, source, "-lm"]


def _cache_dir() -> Path:
    """This package's ``__pycache__/`` if writable, else a per-user
    directory in the system temp dir."""
    local = SOURCE.parent / "__pycache__"
    try:
        local.mkdir(exist_ok=True)
        if os.access(local, os.W_OK):
            return local
    except OSError:
        pass
    user = os.getuid() if hasattr(os, "getuid") else os.getlogin()
    shared = Path(tempfile.gettempdir()) / f"repro-anneal-{user}"
    shared.mkdir(mode=0o700, exist_ok=True)
    if hasattr(os, "getuid") and shared.stat().st_uid != os.getuid():
        raise _BuildError(f"{shared} belongs to another user")
    return shared


def _library() -> Path:
    """The cached shared library, compiled first if it is missing."""
    source = SOURCE.read_bytes()
    command = compile_command("SOURCE", "TARGET")
    key = hashlib.sha256(
        b"\0".join([source, shlex.join(command).encode(),
                    sysconfig.get_platform().encode(), platform.machine().encode()])
    ).hexdigest()[:16]
    path = _cache_dir() / f"_anneal-{key}.so"
    if path.exists():
        return path
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    command = compile_command(str(SOURCE), str(tmp))
    try:
        done = subprocess.run(command, capture_output=True, text=True)
    except OSError as exc:
        raise _BuildError(f"`{shlex.join(command)}` did not run: {exc}") from None
    if done.returncode != 0:
        tmp.unlink(missing_ok=True)
        raise _BuildError(
            f"`{shlex.join(command)}` exited with status {done.returncode}: "
            f"{done.stderr.strip() or '(no stderr)'}"
        )
    os.replace(tmp, path)
    return path


def _load_round():
    try:
        lib = ctypes.CDLL(str(_library()))
    except OSError as exc:
        raise _BuildError(f"the built library did not load: {exc}") from None
    fn = lib.anneal_round
    fn.restype = _i64
    fn.argtypes = [
        ctypes.POINTER(RoundStatic), ctypes.POINTER(RoundState),
        _i64, _f64, _i64, ctypes.POINTER(_f64), _f64, ctypes.POINTER(_i64),
    ]
    return fn


_UNLOADED = object()
_round = _UNLOADED


def load():
    """The compiled ``anneal_round``, built on first use; ``None`` when
    it cannot be built or loaded (warned once, with the reason)."""
    global _round
    if _round is _UNLOADED:
        try:
            _round = _load_round()
        except (_BuildError, OSError) as exc:
            _round = None
            warnings.warn(
                f"cannot build the compiled anneal round, annealing in Python: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
    return _round
