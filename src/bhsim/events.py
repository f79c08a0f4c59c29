"""Run event log: JSON-lines records with a strict, versioned schema.

One record per line, each line ending in a newline.  A line is
``json.dumps(record, sort_keys=True, separators=(",", ":"))``: keys
sorted at both levels, no spaces, floats in Python's shortest
round-trip form (``float.__repr__``), ``null`` for None.  ``emit_line``
is that canonical form; ``serialize_events`` is the one writer behind
every log the CLI and ``sim.sweep`` write, and fills a fixed line
template for ``detection`` and ``track`` records of the usual shape
(97% of all records), falling back to ``emit_line`` for every other
record, so its bytes equal ``emit_line``'s on every record.  Logs from
identical runs are therefore byte-identical and trivially diffable.
Records are totally ordered by the ``seq`` counter (ties in time keep
emission order).  A run that writes its log as it goes and then raises
ends the log with one ``error`` record (see ``sim.run_simulation``).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import BinaryIO, Iterable, Optional

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


def emit_line(event: dict) -> str:
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


# The templates below print exactly what ``emit_line`` would, and only for
# values whose JSON form they can spell without ``json``: a ``float`` that
# is finite (``json`` prints NaN/Infinity), an ``int`` that is not a
# ``bool`` (``json`` prints true/false), None, and the known track events.
# The exact-type checks matter: ``repr`` of a subclass such as
# ``np.float64`` is not the JSON number, so the templates call the base
# ``__repr__`` and send anything else to ``emit_line``.
_float_repr = float.__repr__
_int_repr = int.__repr__

# Track lifecycle events (see ``tracking.step_tracker``), JSON-quoted.
_TRACK_EVENTS = {s: json.dumps(s) for s in ("born", "confirmed", "coasted", "died")}


def _detection_line(e: dict) -> Optional[str]:
    """The line of a detection record, or None when it needs ``emit_line``."""
    d = e.get("data")
    if type(d) is not dict or len(e) != 6 or len(d) != 6:
        return None
    try:
        agent, seq, t, v = e["agent"], e["seq"], e["t"], e["v"]
        conf, cx, cy, h, truth, w = (
            d["conf"], d["cx"], d["cy"], d["h"], d["truth"], d["w"]
        )
    except KeyError:
        return None
    if not (
        type(seq) is type(v) is int
        and type(t) is type(conf) is type(cx) is type(cy) is type(h) is type(w)
        is float
    ):
        return None
    # A NaN or an infinity makes the sum non-finite (so does an overflow
    # of finite values, which then merely takes the fallback).
    s = t + conf + cx + cy + h + w
    if s - s != 0.0:
        return None
    if agent is None:
        agent = "null"
    elif type(agent) is int:
        agent = _int_repr(agent)
    else:
        return None
    if truth is None:
        truth = "null"
    elif type(truth) is int:
        truth = _int_repr(truth)
    else:
        return None
    return (
        f'{{"agent":{agent},"data":{{"conf":{_float_repr(conf)},'
        f'"cx":{_float_repr(cx)},"cy":{_float_repr(cy)},"h":{_float_repr(h)},'
        f'"truth":{truth},"w":{_float_repr(w)}}},"kind":"detection",'
        f'"seq":{_int_repr(seq)},"t":{_float_repr(t)},"v":{_int_repr(v)}}}'
    )


def _track_line(e: dict) -> Optional[str]:
    """The line of a track record, or None when it needs ``emit_line``."""
    d = e.get("data")
    if type(d) is not dict or len(e) != 6 or len(d) != 2:
        return None
    try:
        agent, seq, t, v = e["agent"], e["seq"], e["t"], e["v"]
        event, track_id = d["event"], d["track_id"]
    except KeyError:
        return None
    event = _TRACK_EVENTS.get(event) if type(event) is str else None
    if not (
        event is not None
        and type(seq) is type(v) is type(track_id) is int
        and type(t) is float
        and t - t == 0.0
    ):
        return None
    if agent is None:
        agent = "null"
    elif type(agent) is int:
        agent = _int_repr(agent)
    else:
        return None
    return (
        f'{{"agent":{agent},"data":{{"event":{event},'
        f'"track_id":{_int_repr(track_id)}}},"kind":"track",'
        f'"seq":{_int_repr(seq)},"t":{_float_repr(t)},"v":{_int_repr(v)}}}'
    )


_TEMPLATES = {"detection": _detection_line, "track": _track_line}


def parse_line(line: str) -> dict:
    event = json.loads(line)
    if event.get("v") != SCHEMA_VERSION:
        raise ValueError(f"unsupported event schema version {event.get('v')!r}")
    return event


def serialize_events(events: Iterable[dict]) -> bytes:
    lines = []
    for e in events:
        kind = e.get("kind") if type(e) is dict else None
        template = _TEMPLATES.get(kind) if type(kind) is str else None
        line = template(e) if template is not None else None
        lines.append(emit_line(e) if line is None else line)
    lines.append("")
    text = "\n".join(lines)
    del lines  # free the lines before the encoded copy is made
    return text.encode("utf-8")


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
