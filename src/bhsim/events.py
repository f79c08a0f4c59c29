"""Run event log: JSON-lines records with a strict, versioned schema.

One record per line, each line ending in a newline.  A line is
``json.dumps(record, sort_keys=True, separators=(",", ":"))``: keys
sorted at both levels, no spaces, floats in Python's shortest
round-trip form (``float.__repr__``), ``null`` for None.  ``emit_line``
is that canonical form, and ``serialize_events`` and ``write_event_log``
print any iterable of record dicts with it.  No log holds NaN or
Infinity: where ``json.dumps`` would print one, ``emit_line`` raises
``NumericalFailure``, so no writer prints such a line.  Logs from
identical runs are therefore byte-identical and trivially diffable.
Records are totally ordered by the ``seq`` counter (ties in time keep
emission order).

A run's ``EventLog`` keeps each record emitted to it as one fixed-width
row of ``ROW`` in a single byte buffer, and ``seq`` is the row's index.
A row holds the record's form, ``t``, ``agent``, the five floats of a
detection and one int: a detection's truth id, a track's id, or, for
every other kind, the index of the record's finished line from
``emit_line`` in the log's list of lines.  A false alarm (truth None)
has a form of its own, so no id value stands for None.  Floats are
stored as doubles and read back exactly; every id a run hands the log
is far inside the row's int64.  ``compact_lines`` prints the two usual
kinds (97% of all records) straight from their rows with
``detection_line`` and ``track_line``, one f-string each; they trust
their input (finite floats or their reprs, ints, a track event one of
the four lifecycle names) and print what ``emit_line`` prints for the
record ``make_event`` would build; each tick's ``t`` is printed once.
``EventLog.view`` reads the rows as those dicts, a fresh one on each
read.  A log given a file writes its rows at the end of each tick that
leaves ``LOG_CHUNK_RECORDS`` or more pending, and its view is empty.
Emitting a record with a non-finite float raises ``NumericalFailure``
(detections checked by their summed floats first) and leaves the log
as it was.
"""

import json
import math
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


_encode = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False
).encode


def emit_line(event: dict) -> str:
    """The canonical line of ``event``, or ``NumericalFailure`` where
    ``json.dumps`` would print NaN or Infinity.  Any other ``ValueError``
    of the encoder, such as a record that contains itself, propagates."""
    try:
        return _encode(event)
    except ValueError as exc:
        # 3.12 and later append the value to the message
        if not str(exc).startswith("Out of range float values"):
            raise
        raise NumericalFailure(
            f"non-finite value in a {event.get('kind')} record"
        ) from exc


def require_finite(kind: str, values: Iterable[float]) -> None:
    if not all(map(math.isfinite, values)):
        raise NumericalFailure(f"non-finite value in a {kind} record")


def detection_line(
    seq: int, t: float, agent: int,
    cx: float, cy: float, w: float, h: float, conf: float, truth: Optional[int],
) -> str:
    return (
        f'{{"agent":{agent},"data":{{"conf":{conf},"cx":{cx},"cy":{cy},'
        f'"h":{h},"truth":{"null" if truth is None else truth},"w":{w}}},'
        f'"kind":"detection","seq":{seq},"t":{t},"v":{SCHEMA_VERSION}}}'
    )


def track_line(seq: int, t: float, agent: int, event: str, track_id: int) -> str:
    return (
        f'{{"agent":{agent},"data":{{"event":"{event}","track_id":{track_id}}},'
        f'"kind":"track","seq":{seq},"t":{t},"v":{SCHEMA_VERSION}}}'
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
    t_prev = None
    for seq, (form, t, agent, cx, cy, w, h, conf, n) in enumerate(
        ROW.iter_unpack(rows), start
    ):
        if t != t_prev or not t:  # reuse only an equal nonzero: -0.0 == 0.0
            t_prev, t_text = t, repr(t)
        if form < DETECTION:
            out.append(track_line(seq, t_text, agent, TRACK_EVENTS[form], n))
        elif form == LINE:
            out.append(lines[n])
        else:
            w_text = repr(w)
            h_text = w_text if h == w and h else repr(h)
            truth = n if form == DETECTION else None
            out.append(detection_line(seq, t_text, agent, repr(cx), repr(cy),
                                      w_text, h_text, repr(conf), truth))
    return out


def compact_event(seq: int, row: tuple, lines: Sequence[str]) -> dict:
    """The dict ``make_event`` builds for the unpacked row numbered
    ``seq``."""
    form, t, agent, cx, cy, w, h, conf, n = row
    if form == LINE:
        return parse_line(lines[n])
    if form < DETECTION:
        data = {"event": TRACK_EVENTS[form], "track_id": n}
        return make_event(seq, t, agent, "track", data)
    data = {"cx": cx, "cy": cy, "w": w, "h": h, "conf": conf,
            "truth": n if form == DETECTION else None}
    return make_event(seq, t, agent, "detection", data)


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
    infinity raises ``NumericalFailure``, and one with an id outside the
    row's int64 raises from ``ROW.pack``; either way the log is left as
    it was.
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
        line = emit_line(make_event(self.seq, t, agent, kind, data))
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
        if truth is None:
            self.rows += _pack(FALSE_ALARM, t, agent, cx, cy, w, h, conf, 0)
        else:
            self.rows += _pack(DETECTION, t, agent, cx, cy, w, h, conf, truth)

    def track(self, t: float, agent: int, event: str, track_id: int) -> None:
        if t - t != 0.0:
            require_finite("track", (t,))
        form = _TRACK_FORMS[event]
        self.rows += _pack(form, t, agent, 0.0, 0.0, 0.0, 0.0, 0.0, track_id)

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


def _finite_float(text: str) -> float:
    """The float a JSON number or constant spells, unless it is NaN or
    infinite (``NaN``, ``Infinity``, or a literal such as ``1e400``)."""
    x = float(text)
    if x - x != 0.0:
        raise ValueError(f"non-finite number {text} in an event log line")
    return x


_decode = json.JSONDecoder(
    parse_float=_finite_float, parse_constant=_finite_float
).decode


def parse_line(line: str) -> dict:
    """The record of one log line; ``ValueError`` for a line that is not
    a JSON object of this schema version, or that holds NaN or
    Infinity."""
    event = _decode(line)
    if not isinstance(event, dict):
        raise ValueError(f"event log line is not a JSON object: {line!r}")
    if event.get("v") != SCHEMA_VERSION:
        raise ValueError(f"unsupported event schema version {event.get('v')!r}")
    return event


def serialize_events(events: Iterable[dict]) -> bytes:
    return "".join([emit_line(e) + "\n" for e in events]).encode("utf-8")


def write_event_log(path: str | Path, events: Iterable[dict]) -> None:
    """Replace the file at ``path`` with ``events`` as log lines."""
    Path(path).write_bytes(serialize_events(events))


def read_event_log(path: str | Path) -> list[dict]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(parse_line(line))
    return out
