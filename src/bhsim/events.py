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

A run's ``EventLog`` keeps each record emitted to it as one fixed-width
row of ``ROW`` in a single byte buffer, and ``seq`` is the row's index.
A row holds the record's form, ``t``, ``agent``, the five floats of a
detection and one int: a detection's truth id, a track's id, or, for
every other kind, the index of the record's finished line from
``finite_line`` in the log's list of lines.  A false alarm (truth None)
has a form of its own, so no id value stands for None.  Floats are
stored as doubles and read back exactly.  A record with an int the row
cannot hold is kept as a finished line.  ``compact_lines`` prints the
two usual kinds (97% of all records) straight from their rows with
``detection_line`` and ``track_line``, one f-string each; they trust
their input (finite ``float`` and ``int`` fields, a track event one of
the four lifecycle names) and print exactly what ``emit_line`` prints
for the record ``make_event`` would build.  ``EventLog.view`` reads the
rows as those dicts, a fresh one on each read.  A log given a file
instead writes its rows at the end of each tick that leaves
``LOG_CHUNK_RECORDS`` or more pending, and its view is empty.  No log
holds NaN or Infinity: emitting a record with a non-finite float raises
``NumericalFailure``, detections checked by their summed floats first.
"""

import json
import math
import os
import struct
from collections.abc import Sequence
from itertools import count, repeat
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


# A compact record: its form, t, agent, cx, cy, w, h, conf, and one int.
ROW = struct.Struct("<Bdq5dq")
# Forms 0-3 are the track events in this order.
TRACK_EVENTS = ("born", "confirmed", "coasted", "died")
DETECTION, FALSE_ALARM, LINE = 4, 5, 6
_TRACK_FORMS = {event: form for form, event in enumerate(TRACK_EVENTS)}
_pack = ROW.pack


def compact_lines(start: int, rows, lines: Sequence[str]) -> list[str]:
    """The log lines of compact rows numbered from ``start``, whose
    finished lines are in ``lines``."""
    out = []
    for seq, (form, t, agent, cx, cy, w, h, conf, n) in enumerate(
        ROW.iter_unpack(rows), start
    ):
        if form < DETECTION:
            out.append(track_line(seq, t, agent, TRACK_EVENTS[form], n))
        elif form == LINE:
            out.append(lines[n])
        else:
            truth = n if form == DETECTION else None
            out.append(detection_line(seq, t, agent, cx, cy, w, h, conf, truth))
    return out


def detection_data(
    cx: float, cy: float, w: float, h: float, conf: float, truth: Optional[int]
) -> dict:
    return {"cx": cx, "cy": cy, "w": w, "h": h, "conf": conf, "truth": truth}


def compact_event(seq: int, row: tuple, lines: Sequence[str]) -> dict:
    """The dict ``make_event`` builds for the unpacked row numbered
    ``seq``."""
    form, t, agent, cx, cy, w, h, conf, n = row
    if form == LINE:
        return parse_line(lines[n])
    if form < DETECTION:
        data = {"event": TRACK_EVENTS[form], "track_id": n}
        return make_event(seq, t, agent, "track", data)
    truth = n if form == DETECTION else None
    return make_event(
        seq, t, agent, "detection", detection_data(cx, cy, w, h, conf, truth)
    )


class EventView(Sequence):
    """A run's compact rows and finished lines, read as record dicts.

    The view reads the buffer it is given and does not copy it.
    Indexing, slicing and iteration build each dict as it is read, so
    every read gives a fresh dict that the caller may change.  The view
    equals any list (or view) of the same dicts in the same order.
    """

    __slots__ = ("_rows", "_lines")

    def __init__(self, rows=b"", lines: Sequence[str] = ()) -> None:
        self._rows = rows
        self._lines = lines

    def __len__(self) -> int:
        return len(self._rows) // ROW.size

    def __getitem__(self, index):
        seqs = range(len(self))[index]
        if isinstance(seqs, range):
            return [self._event(seq) for seq in seqs]
        return self._event(seqs)

    def _event(self, seq: int) -> dict:
        row = ROW.unpack_from(self._rows, seq * ROW.size)
        return compact_event(seq, row, self._lines)

    def __iter__(self):
        return map(
            compact_event, count(), ROW.iter_unpack(self._rows), repeat(self._lines)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, EventView)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return f"EventView({len(self)} records)"


# A log with a file writes its pending records once a tick leaves this many.
LOG_CHUNK_RECORDS = 1024


class EventLog:
    """A run's records, numbered by ``seq`` in emission order.

    Each record is checked as it is emitted: one with a NaN or an
    infinity raises ``NumericalFailure``, and the log is left as it was.
    ``rows`` holds a ``ROW`` per record, ``lines`` the finished lines
    they point to.  Without a file the log keeps every record.  With
    one, it holds those not yet written, and ``write`` prints them.
    """

    def __init__(self, file: Optional[BinaryIO] = None) -> None:
        self.rows, self.lines = bytearray(), []
        self.written = 0
        self.file = file
        # Time of the tick in progress (0.0 during set-up), for the error
        # record of a failed run.
        self.t = 0.0

    @property
    def seq(self) -> int:
        """The ``seq`` of the next record."""
        return self.written + len(self.rows) // ROW.size

    def emit(self, t: float, agent: Optional[int], kind: str, data: dict) -> None:
        line = finite_line(make_event(self.seq, t, agent, kind, data))
        self.rows += _pack(LINE, 0.0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, len(self.lines))
        self.lines.append(line)

    def detection(
        self, t: float, agent: int, cx: float, cy: float, w: float, h: float,
        conf: float, truth: Optional[int],
    ) -> None:
        # The sum of finite floats is finite unless it overflows, which
        # only the exact check can tell from a NaN or an infinity.
        s = t + cx + cy + w + h + conf
        if s - s != 0.0:
            require_finite("detection", (t, cx, cy, w, h, conf))
        try:
            if truth is None:
                self.rows += _pack(FALSE_ALARM, t, agent, cx, cy, w, h, conf, 0)
            else:
                self.rows += _pack(DETECTION, t, agent, cx, cy, w, h, conf, truth)
        except struct.error:  # an int the row cannot hold
            data = detection_data(cx, cy, w, h, conf, truth)
            self.emit(t, agent, "detection", data)

    def track(self, t: float, agent: int, event: str, track_id: int) -> None:
        if t - t != 0.0:
            require_finite("track", (t,))
        form = _TRACK_FORMS[event]
        try:
            self.rows += _pack(form, t, agent, 0.0, 0.0, 0.0, 0.0, 0.0, track_id)
        except struct.error:  # an int the row cannot hold
            self.emit(t, agent, "track", {"event": event, "track_id": track_id})

    def end_tick(self) -> None:
        if self.file is not None and len(self.rows) >= LOG_CHUNK_RECORDS * ROW.size:
            self.write()

    def write(self) -> None:
        if self.rows:
            lines = compact_lines(self.written, self.rows, self.lines)
            self.file.write(("\n".join(lines) + "\n").encode("utf-8"))
            self.written += len(lines)
        self.rows, self.lines = bytearray(), []

    def view(self) -> EventView:
        """Every record, for a log kept in memory; none, for one written
        to a file."""
        if self.file is not None:
            return EventView()
        return EventView(self.rows, self.lines)


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
