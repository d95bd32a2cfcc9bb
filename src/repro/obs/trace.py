"""Structured trace sink: span-like JSONL records for a whole execution.

A :class:`TraceSink` appends one JSON object per line to a file (or any
text handle).  Records come in three kinds:

``span-start`` / ``span-end``
    Bracket a named unit of work (a job, a phase inside a job).  The end
    record carries the wall-clock ``duration`` in seconds.  Spans nest:
    each record names its ``parent`` span, so a reader can rebuild the
    job → phase → task hierarchy without timestamps.

``event``
    A point-in-time fact (a run finishing, a log line from a job),
    attributed to the innermost open span.

Every record carries a ``sequence`` number that is strictly monotonic for
the sink's lifetime, a monotonic ``t`` offset in seconds since the sink
was opened, and whatever keyword fields the caller attached.  Like the
metrics registry, the sink is descriptive and never load-bearing: a write
failure disables the sink rather than surfacing into the execution, and
nothing downstream reads trace files to make decisions.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, IO, Iterator, List, Optional, Union

TRACE_FORMAT_VERSION = 1

RECORD_SPAN_START = "span-start"
RECORD_SPAN_END = "span-end"
RECORD_EVENT = "event"


class TraceSink:
    """Append span/event records as JSONL to ``target``.

    ``target`` is a path (opened for writing, truncating any previous
    trace) or an already-open text handle (left open on :meth:`close`).
    The sink is single-threaded by design — all instrumentation sites run
    in the parent process's dispatch loop.
    """

    def __init__(self, target: Union[str, Path, IO[str]]):
        if hasattr(target, "write"):
            self._handle: Optional[IO[str]] = target  # type: ignore[assignment]
            self._owns_handle = False
            self.path: Optional[Path] = None
        else:
            self.path = Path(target)
            self._handle = self.path.open("w", encoding="utf-8")
            self._owns_handle = True
        self._sequence = 0
        self._origin = time.monotonic()
        self._stack: List[str] = []
        self._emit(RECORD_EVENT, "trace", version=TRACE_FORMAT_VERSION)

    # ------------------------------------------------------------------
    def _emit(self, record: str, name: str, **fields: Any) -> None:
        handle = self._handle
        if handle is None:
            return
        payload: Dict[str, Any] = {
            "sequence": self._sequence,
            "record": record,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "t": round(time.monotonic() - self._origin, 6),
        }
        for key, value in fields.items():
            if value is not None:
                payload[key] = value
        self._sequence += 1
        try:
            handle.write(json.dumps(payload, sort_keys=True) + "\n")
        except (OSError, ValueError):
            # Tracing must never take the run down with it: a full disk or
            # a closed handle silences the sink for the rest of the run.
            self._handle = None

    # ------------------------------------------------------------------
    def event(self, name: str, **fields: Any) -> None:
        """Record a point-in-time event under the innermost open span."""
        self._emit(RECORD_EVENT, name, **fields)

    @contextmanager
    def span(self, name: str, **fields: Any) -> Iterator[None]:
        """Bracket a block with start/end records; nests with other spans."""
        self._emit(RECORD_SPAN_START, name, **fields)
        self._stack.append(name)
        started = time.monotonic()
        error: Optional[str] = None
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            self._stack.pop()
            self._emit(
                RECORD_SPAN_END,
                name,
                duration=round(time.monotonic() - started, 6),
                error=error,
            )

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._handle is None

    def close(self) -> None:
        """Flush and close the sink (idempotent; borrowed handles survive)."""
        handle = self._handle
        self._handle = None
        if handle is None:
            return
        try:
            handle.flush()
            if self._owns_handle:
                handle.close()
        except OSError:
            pass
