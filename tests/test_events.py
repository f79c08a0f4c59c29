"""The event-log writer against its canonical form, record by record.

``serialize_events`` fills line templates for ``detection`` and ``track``
records and falls back to ``emit_line`` for everything else; every line
it writes must equal ``json.dumps(record, sort_keys=True,
separators=(",", ":"))``.  The golden runs are checked in
``test_golden.py``; this file covers hand-built records at the edges of
the templates.
"""

import json
from collections import OrderedDict, defaultdict

import numpy as np
import pytest

from bhsim import events
from bhsim.events import make_event, serialize_events

NAN = float("nan")
INF = float("inf")


def _canonical(records) -> bytes:
    return "".join(
        json.dumps(e, sort_keys=True, separators=(",", ":")) + "\n" for e in records
    ).encode("utf-8")


def _detection(**data):
    d = {"cx": 12.5, "cy": -3.25, "w": 40.0, "h": 38.5, "conf": 0.912345, "truth": 3}
    d.update(data)
    return make_event(7, 1.35, 0, "detection", d)


def _track(**data):
    d = {"event": "confirmed", "track_id": 4}
    d.update(data)
    return make_event(8, 1.35, 1, "track", d)


def _with(record, **top):
    out = dict(record)
    out.update(top)
    return out


def _without(record, key, level="top"):
    out = dict(record)
    if level == "data":
        out["data"] = {k: v for k, v in out["data"].items() if k != key}
    else:
        del out[key]
    return out


def _renamed_w():
    """Six detection fields with ``w`` missing, in a dict that makes up
    missing keys on lookup: a writer must not look into it."""
    d = defaultdict(float, _detection()["data"])
    d["ww"] = d.pop("w")
    return d


DETECTION_FLOATS = ("cx", "cy", "w", "h", "conf")
# Floats whose shortest repr switches notation or is extreme.
EDGE_FLOATS = (
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1e-7, 1e22,
    1e-5, 9007199254740993.0, 0.1, 1 / 3, 123456789.125, 1.7976931348623157e308,
)
NON_FINITE = (NAN, INF, -INF)
# Values a float slot can hold that the template must not spell itself.
NOT_PLAIN_FLOATS = (
    np.float64(0.1), np.float64(-0.0), np.float64(1e22), np.float64(NAN),
    3, True, None, "1.5", [1.5],
)
BIG_INTS = (2**63, 2**64 + 1, -(2**63) - 1, 10**40)
NOT_PLAIN_INTS = (True, False, None, 2.0, "4")


def _edge_records():
    out = [_detection(), _detection(truth=None), _track()]
    for event in ("born", "confirmed", "coasted", "died"):
        out.append(_track(event=event))
    for x in EDGE_FLOATS + NON_FINITE + NOT_PLAIN_FLOATS:
        for key in DETECTION_FLOATS:
            out.append(_detection(**{key: x}))
        out.append(_with(_detection(), t=x))
        out.append(_with(_track(), t=x))
    # finite values whose sum overflows
    out.append(_detection(cx=1.7e308, cy=1.7e308))
    out.append(_detection(w=-1.7e308, h=-1.7e308))
    for n in BIG_INTS + NOT_PLAIN_INTS:
        out.append(_detection(truth=n))
        out.append(_track(track_id=n))
        for key in ("seq", "agent", "v"):
            out.append(_with(_detection(), **{key: n}))
            out.append(_with(_track(), **{key: n}))
    for event in ("split", "", "Born", 'bo"rn\n', "dïed", "☃", None, 1):
        out.append(_track(event=event))
    out.append(_track(event=type("Tag", (str,), {})("born")))
    out.append(_with(_detection(), kind=type("Tag", (str,), {})("detection")))
    # extra and missing keys, at both levels
    out.append(_detection(extra=1))
    out.append(_track(extra=None))
    out.append(_with(_detection(), extra=0))
    out.append(_with(_track(), extra="x"))
    for key in ("cx", "cy", "w", "h", "conf", "truth"):
        out.append(_without(_detection(), key, level="data"))
    for key in ("event", "track_id"):
        out.append(_without(_track(), key, level="data"))
    for key in ("v", "seq", "t", "agent", "data"):
        out.append(_without(_detection(), key))
        out.append(_without(_track(), key))
    # a detection-shaped payload under another kind, and the reverse
    out.append(_with(_detection(), kind="track"))
    out.append(_with(_track(), kind="detection"))
    out.append(make_event(9, 2.0, None, "phase", _detection()["data"]))
    # containers that are not plain dicts
    out.append(OrderedDict(_detection()))
    out.append(_with(_detection(), data=OrderedDict(_detection()["data"])))
    out.append(_with(_detection(), data=_renamed_w()))
    out.append(_with(_track(), data=[["event", "born"], ["track_id", 1]]))
    out.append(_with(_track(), data=None))
    # every other kind goes straight to the canonical form
    for kind in events.EVENT_KINDS:
        out.append(make_event(10, 2.5, 2, kind, {"estimate": [0.5, -2.0, 1e22]}))
    return out


EDGE_RECORDS = _edge_records()


def test_serialize_empty_log_is_empty():
    assert serialize_events([]) == b""


def test_writer_equals_json_dumps_on_each_edge_record():
    for e in EDGE_RECORDS:
        assert serialize_events([e]) == _canonical([e]), e


def test_writer_equals_json_dumps_on_all_edge_records_at_once():
    assert serialize_events(EDGE_RECORDS) == _canonical(EDGE_RECORDS)


def test_writer_prints_nan_and_infinity_as_json_dumps_does():
    line = serialize_events([_detection(cx=NAN, cy=INF, w=-INF)])
    assert b'"cx":NaN' in line and b'"cy":Infinity' in line and b'"w":-Infinity' in line


def test_usual_records_take_the_templates():
    # The fallback alone would also give the right bytes; this pins that
    # the records a run emits do reach the fast path.
    for e in (_detection(), _detection(truth=None), _track(), _track(event="died")):
        line = events._TEMPLATES[e["kind"]](e)
        assert line is not None and line == events.emit_line(e)


def test_writer_does_not_change_the_records():
    records = [_detection(), _track(), _detection(cx=NAN)]
    records.append(_with(_detection(), data=_renamed_w()))
    before = json.dumps(records, sort_keys=True)
    serialize_events(records)
    assert json.dumps(records, sort_keys=True) == before


@pytest.mark.parametrize("bad", [np.int64(3), object()])
def test_writer_rejects_what_json_rejects(bad):
    with pytest.raises(TypeError):
        json.dumps(_track(track_id=bad))
    with pytest.raises(TypeError):
        serialize_events([_track(track_id=bad)])
