"""Crash-safe JSONL campaign journaling (6tisch ``SimLog`` style).

A campaign (:mod:`repro.workload.campaign`, including the ``batch``
and ``recover --sweep`` presets) appends
one JSON line per *completed* scenario — ``write``, ``flush``,
``fsync`` — so a ``kill -9``, OOM kill, or power cut loses at most the
line being written, never a completed result. Resuming a campaign
loads the journal, skips every already-journaled scenario key, and
recomputes only the rest; because scenario seeds are pre-derived from
the campaign seed (never from execution order), the resumed report is
bit-identical to an uninterrupted run.

Record schema (one JSON object per line)::

    {"v": 1, "kind": "<record kind>", "key": "<scenario key>",
     "record": {<the scenario's to_dict()>}}

``kind`` namespaces producers sharing a file (the campaign engine
writes ``campaign-scenario``); ``key`` is the producer's stable
scenario identity (e.g. ``pcr|auto|none|ideal|event``). A truncated
*final* line is the expected kill signature and is skipped on load;
corruption anywhere else raises :class:`~repro.util.errors.JournalError`
— that file is not a journal.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.util.errors import JournalError

#: Journal format version stamped on every line.
JOURNAL_VERSION = 1


class CampaignJournal:
    """Append-only, fsync-per-record JSONL writer.

    Opens lazily on first :meth:`append` (a campaign with nothing new
    to journal never touches the file) in append mode, so journaling
    into the file being resumed from only adds the newly computed
    records. Use as a context manager or call :meth:`close`.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._fh = None
        #: Records appended by this writer (stats/tests).
        self.appended = 0

    def append(self, kind: str, key: str, record: dict) -> None:
        """Durably append one completed scenario record."""
        if self._fh is None:
            self._seal_torn_tail()
            self._fh = open(self.path, "a", encoding="utf-8")
        line = json.dumps(
            {"v": JOURNAL_VERSION, "kind": kind, "key": key, "record": record},
            separators=(",", ":"),
        )
        self._fh.write(line + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.appended += 1

    def _seal_torn_tail(self) -> None:
        """Drop a torn final line left by a crash mid-``write``.

        Appending to a journal whose last write was cut off would glue
        the new record onto the torn fragment, turning a tolerated
        final-line tear into mid-file corruption on the next load.
        """
        try:
            fh = open(self.path, "rb+")
        except FileNotFoundError:
            return
        with fh:
            data = fh.read()
            if data and not data.endswith(b"\n"):
                fh.truncate(data.rfind(b"\n") + 1)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> CampaignJournal:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class NullJournal:
    """A no-op journal, so campaigns can journal unconditionally."""

    appended = 0

    def append(self, kind: str, key: str, record: dict) -> None:
        pass

    def close(self) -> None:
        pass

    def __enter__(self) -> NullJournal:
        return self

    def __exit__(self, *exc_info) -> None:
        pass


def load_journal(path: str | os.PathLike, kind: str | None = None) -> dict[str, dict]:
    """Load a journal as ``{key: record}``, last write per key winning.

    *kind* filters to one producer's records. A truncated or corrupt
    **final** line — the ``kill -9`` signature — is silently dropped;
    a corrupt line anywhere earlier raises
    :class:`~repro.util.errors.JournalError`, as does an unreadable
    file or a line that parses but is not a journal record.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from exc
    records: dict[str, dict] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
            if (
                not isinstance(entry, dict)
                or not isinstance(entry.get("key"), str)
                or not isinstance(entry.get("record"), dict)
                or not isinstance(entry.get("kind"), str)
            ):
                raise ValueError("not a journal record")
        except ValueError as exc:
            if lineno == len(lines):
                break  # torn final write: the expected crash signature
            raise JournalError(
                f"corrupt journal {path} at line {lineno}: {exc}"
            ) from exc
        if kind is None or entry["kind"] == kind:
            records[entry["key"]] = entry["record"]
    return records
