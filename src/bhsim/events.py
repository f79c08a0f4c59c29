"""Run event log: JSON-lines records with a strict, versioned schema.

One record per line, each line ending in a newline.  A line is
``json.dumps(record, sort_keys=True, separators=(",", ":"))``: keys
sorted at both levels, no spaces, floats in Python's shortest
round-trip form (``float.__repr__``), ``null`` for None.  ``emit_line``
is that canonical form, and ``serialize_events`` and ``write_event_log``
print any iterable of record dicts with it.  Logs from identical runs
are therefore byte-identical and trivially diffable.  Records are
totally ordered by the ``seq`` counter (ties in time keep emission
order).

A run (see ``sim.run_simulation``) keeps each record it emits in a
compact form, whose ``seq`` is its index in the run's log: a
``detection`` is the tuple ``(t, agent, cx, cy, w, h, conf, truth)``, a
``track`` the tuple ``(t, agent, event, track_id)``, and every other
kind its finished line from ``finite_line``.  ``compact_lines`` prints
the two usual kinds (97% of all records) straight from their fields
with ``detection_line`` and ``track_line``, one f-string each; they
trust their input (a float field is a finite ``float``, an int field an
``int``, a track event one of the four lifecycle names) and print
exactly what ``emit_line`` prints for the record ``make_event`` would
build.  ``EventView`` reads compact records as those dicts, building a
fresh one on each read.  No log holds NaN or Infinity: a run raises
``NumericalFailure`` when it emits a record with a non-finite float,
checking detections by their summed floats, and a streamed log then
ends with one ``error`` record.
"""

import json
import math
import os
from collections.abc import Sequence
from itertools import count
from operator import eq
from pathlib import Path
from typing import BinaryIO, Iterable, Optional

from .tracking import NumericalFailure

SCHEMA_VERSION = 1

EVENT_KINDS = (
    "detection",
    "track",
    "phase",
    "claim",
    "pop",
    "failure",
    "geofence",
    "error",
)


def make_event(
    seq: int, t: float, agent: Optional[int], kind: str, data: dict
) -> dict:
    if kind not in EVENT_KINDS:
        raise ValueError(f"unknown event kind {kind!r}")
    return {
        "v": SCHEMA_VERSION,
        "seq": seq,
        "t": t,
        "agent": agent,
        "kind": kind,
        "data": data,
    }


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_encode_finite = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False
).encode


def emit_line(event: dict) -> str:
    return _encode(event)


def finite_line(event: dict) -> str:
    """``emit_line(event)``, or ``NumericalFailure`` where that would
    print NaN or Infinity."""
    try:
        return _encode_finite(event)
    except ValueError as exc:
        raise NumericalFailure(
            f"non-finite value in a {event['kind']} record"
        ) from exc


def require_finite(kind: str, values: Iterable[float]) -> None:
    if not all(map(math.isfinite, values)):
        raise NumericalFailure(f"non-finite value in a {kind} record")


def detection_line(
    seq: int, t: float, agent: int,
    cx: float, cy: float, w: float, h: float, conf: float, truth: Optional[int],
) -> str:
    return (
        f'{{"agent":{agent},"data":{{"conf":{conf!r},"cx":{cx!r},"cy":{cy!r},'
        f'"h":{h!r},"truth":{"null" if truth is None else truth},"w":{w!r}}},'
        f'"kind":"detection","seq":{seq},"t":{t!r},"v":{SCHEMA_VERSION}}}'
    )


def track_line(seq: int, t: float, agent: int, event: str, track_id: int) -> str:
    return (
        f'{{"agent":{agent},"data":{{"event":"{event}","track_id":{track_id}}},'
        f'"kind":"track","seq":{seq},"t":{t!r},"v":{SCHEMA_VERSION}}}'
    )


def compact_lines(start: int, records: Iterable) -> list[str]:
    """The log lines of compact records numbered from ``start``."""
    lines = []
    for seq, record in enumerate(records, start):
        if type(record) is str:
            lines.append(record)
        elif len(record) == 8:
            lines.append(detection_line(seq, *record))
        else:
            lines.append(track_line(seq, *record))
    return lines


def compact_event(seq: int, record) -> dict:
    """The dict ``make_event`` builds for the compact record numbered
    ``seq``."""
    if type(record) is str:
        return parse_line(record)
    if len(record) == 8:
        t, agent, cx, cy, w, h, conf, truth = record
        return make_event(seq, t, agent, "detection", {
            "cx": cx, "cy": cy, "w": w, "h": h, "conf": conf, "truth": truth,
        })
    t, agent, event, track_id = record
    return make_event(seq, t, agent, "track", {"event": event, "track_id": track_id})


class EventView(Sequence):
    """A run's compact records, read as record dicts.

    Indexing, slicing and iteration build each dict as it is read, so
    every read gives a fresh dict that the caller may change.  The view
    equals any list (or view) of the same dicts in the same order.
    """

    __slots__ = ("_records",)

    def __init__(self, records: list) -> None:
        self._records = records

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index):
        records = self._records
        seqs = range(len(records))[index]
        if isinstance(seqs, range):
            return [compact_event(seq, records[seq]) for seq in seqs]
        return compact_event(seqs, records[seqs])

    def __iter__(self):
        return map(compact_event, count(), self._records)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, EventView)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return f"EventView({len(self)} records)"


def parse_line(line: str) -> dict:
    event = json.loads(line)
    if event.get("v") != SCHEMA_VERSION:
        raise ValueError(f"unsupported event schema version {event.get('v')!r}")
    return event


def serialize_events(events: Iterable[dict]) -> bytes:
    return "".join([emit_line(e) + "\n" for e in events]).encode("utf-8")


def write_event_log(dest: str | Path | BinaryIO, events: Iterable[dict]) -> None:
    """Write ``events`` as log lines: replace the file at a path, or
    append to an open binary file."""
    data = serialize_events(events)
    if isinstance(dest, (str, os.PathLike)):
        Path(dest).write_bytes(data)
    else:
        dest.write(data)


def read_event_log(path: str | Path) -> list[dict]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(parse_line(line))
    return out
