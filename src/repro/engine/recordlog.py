"""One durable record log: the append-only JSONL file under the serve
daemon's job journal (:mod:`repro.serve.jobs`).

Layout: line 1 is a header object carrying a ``schema`` tag; every
further line is one JSON object. A line exists only once its newline
has landed: a record torn by a crash (or an injected ``torn`` fault) is
never read back, and never extended by the next append.

The log owns the durability mechanics, and nothing else:

* **Reading** (:func:`read_log`) checks the header from bytes — a
  missing, torn, non-UTF-8 or foreign header raises
  :class:`StaleLogError` — and returns every complete record line
  decoded, or ``None`` where the line does not decode.
* **Append-open** (:meth:`RecordLog.open`) recovers the file first: a
  file without a valid header restarts fresh with this log's header,
  and an unterminated tail is truncated back to the last newline, so the
  next record never fuses onto a torn half-line.
* **Appending** flushes every record to the OS; :meth:`RecordLog.sync`
  adds an fsync. Every write, the header included, first consults the
  fault injector at the log's write site.
* **Disk faults degrade, never abort**: an ``OSError`` anywhere on the
  write side counts in ``write_errors`` and closes the handle; nothing
  raises. Appends to a closed log are refused.

Policy stays with the owner: which fingerprint is its own, how records
fold (the job journal skips a bad line), and whether a failed write
latches off or reopens on the next append (the job journal reopens).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import List, Optional, Tuple

from . import faults

__all__ = ["StaleLogError", "RecordLog", "read_log"]


class StaleLogError(RuntimeError):
    """A log that is not this owner's: empty, or an unreadable or foreign
    header."""


def _check_header(path, line: bytes, schema: str, kind: str) -> dict:
    """The decoded header ``line`` (newline stripped), or
    :class:`StaleLogError` when it is not a ``schema`` header."""
    try:
        header = json.loads(line.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise StaleLogError(
            f"{path}: unreadable header (torn or binary write): {exc}"
        ) from exc
    if not isinstance(header, dict) or header.get("schema") != schema:
        found = header.get("schema") if isinstance(header, dict) else None
        raise StaleLogError(f"{path}: not {kind} (schema {found!r})")
    return header


def _decode(line: bytes) -> Optional[dict]:
    try:
        record = json.loads(line.decode("utf-8"))
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


def read_log(path, schema: str, kind: str) -> Tuple[dict, List[Optional[dict]]]:
    """``(header, records)`` of the log at ``path``.

    ``kind`` names the log in error messages (``"a job journal"``).
    Records are the complete, non-blank lines after the header in file
    order, each a dict or ``None`` when it does not decode; the
    unterminated tail is not a record. Raises :class:`StaleLogError` on
    a missing or bad header, ``OSError`` when the file cannot be read.
    """
    *lines, tail = Path(path).read_bytes().split(b"\n")
    if not lines:
        if tail:
            raise StaleLogError(f"{path}: unreadable header (unterminated)")
        raise StaleLogError(f"{path}: empty journal (no header)")
    header = _check_header(path, lines[0], schema, kind)
    return header, [_decode(line) for line in lines[1:] if line.strip()]


class RecordLog:
    """The append side of one log file (see the module docstring).

    ``header`` is written whenever the file starts fresh; its
    ``schema`` is the tag the header check demands. ``site`` is the
    fault-injection write site (``jobs.append``).
    """

    def __init__(self, path, header: dict, kind: str, site: str) -> None:
        self.path = Path(path)
        self.header = header
        self.kind = kind
        self.site = site
        self._handle = None
        #: Failed writes (header, records, fsyncs), each degraded to a
        #: closed handle instead of an exception.
        self.write_errors = 0

    @property
    def is_open(self) -> bool:
        return self._handle is not None

    def open(self, fresh: bool = False) -> bool:
        """Open for appending; True when open.

        With ``fresh``, or when the file has no valid header, the file
        restarts with this log's header (fsync'd). Otherwise an
        unterminated tail is truncated back to the last newline.
        """
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "ab+")
            if fresh or not self._recover():
                self._handle.truncate(0)
                self._write(self.header)
                self._fsync()
        except OSError:
            self._fail()
            return False
        return True

    def _recover(self) -> bool:
        """Truncate a torn tail; False when the header is not valid."""
        handle = self._handle
        handle.seek(0)
        first = handle.readline()
        if not first.endswith(b"\n"):
            return False
        try:
            _check_header(self.path, first[:-1], self.header["schema"], self.kind)
        except StaleLogError:
            return False
        records_start = handle.tell()
        handle.seek(-1, os.SEEK_END)
        if handle.read(1) != b"\n":
            handle.seek(records_start)
            handle.truncate(records_start + handle.read().rfind(b"\n") + 1)
        return True

    def append(self, record: dict, sync: bool = False) -> bool:
        """Write and flush one record, fsync'd too with ``sync``; False
        when the log is closed or the write failed."""
        if self._handle is None:
            return False
        try:
            self._write(record)
            if sync:
                self._fsync()
        except OSError:
            self._fail()
            return False
        return True

    def _write(self, record: dict) -> None:
        data = (json.dumps(record) + "\n").encode("utf-8")
        faults.maybe_fail_write(self.site, self.path, data, self._write_bytes)
        self._write_bytes(data)

    def _write_bytes(self, data: bytes) -> None:
        self._handle.write(data)
        self._handle.flush()

    def _fsync(self) -> None:
        os.fsync(self._handle.fileno())

    def sync(self) -> None:
        """fsync what the appends already flushed (durable job events)."""
        if self._handle is None:
            return
        try:
            self._fsync()
        except OSError:
            self._fail()

    def _fail(self) -> None:
        self.write_errors += 1
        self._close()

    def _close(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass

    def close(self) -> None:
        """Sync, then close; a failed sync counts as a write error."""
        self.sync()
        self._close()
