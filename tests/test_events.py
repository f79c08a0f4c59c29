"""The event-log writers against their canonical form, record by record.

``serialize_events`` prints any record dicts through ``emit_line``; every
line it writes must equal ``json.dumps(record, sort_keys=True,
separators=(",", ":"))``.  A record that holds NaN or Infinity has no
such line: ``emit_line`` raises ``NumericalFailure``, so
``serialize_events`` raises and ``write_event_log`` writes no file.  A
run prints its ``detection`` and ``track`` records with
``detection_line`` and ``track_line``, which trust their input, and
every other kind with ``emit_line``; each must print ``emit_line``'s
bytes for the record ``make_event`` builds, and a run must never print a
non-finite float: it raises ``NumericalFailure`` when it emits one, in
memory or streamed.  A run keeps its records as packed rows, built here
through the run's own ``EventLog``, which writes them in chunks when it
has a file; an id outside the row's int64 raises as it is emitted.
``EventView`` reads the rows back as the dicts ``make_event`` builds.
The golden runs are checked in ``test_golden.py``; this file covers
hand-built records at the edges.
"""

import io
import json
import math
import struct
import tracemalloc
from collections import OrderedDict, defaultdict
from fractions import Fraction
from pathlib import Path

import pytest

from bhsim import events, sim
from bhsim.events import EventView, emit_line, make_event, serialize_events
from bhsim.scenario import load_scenario, parse_scenario_text
from bhsim.tracking import NumericalFailure

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

NAN = float("nan")
INF = float("inf")


class Float64(float):
    """A float subclass that spells its repr its own way, as array
    libraries' float scalars do: ``json.dumps`` prints its float value,
    never its repr."""

    def __repr__(self):
        return f"Float64({float.__repr__(self)})"


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
    Float64(0.1), Float64(-0.0), Float64(1e22), Float64(NAN),
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
    # a non-finite record without the key the error message names
    out.append(_without(_detection(cx=NAN), "kind"))
    # every other kind goes straight to the canonical form
    for kind in events.EVENT_KINDS:
        out.append(make_event(10, 2.5, 2, kind, {"estimate": [0.5, -2.0, 1e22]}))
        out.append(make_event(10, 2.5, 2, kind, {"estimate": [0.5, -INF, 1e22]}))
    return out


def _holds_non_finite(x) -> bool:
    if isinstance(x, float):
        return not math.isfinite(x)
    if isinstance(x, dict):
        return any(map(_holds_non_finite, x.values()))
    if isinstance(x, list):
        return any(map(_holds_non_finite, x))
    return False


EDGE_RECORDS = _edge_records()
FINITE_RECORDS = [e for e in EDGE_RECORDS if not _holds_non_finite(e)]
NON_FINITE_RECORDS = [e for e in EDGE_RECORDS if _holds_non_finite(e)]


def test_serialize_empty_log_is_empty():
    assert serialize_events([]) == b""


def test_writer_equals_json_dumps_on_each_edge_record():
    for e in FINITE_RECORDS:
        assert serialize_events([e]) == _canonical([e]), e
    for e in NON_FINITE_RECORDS:
        with pytest.raises(NumericalFailure, match="non-finite value"):
            serialize_events([e])


def test_writer_equals_json_dumps_on_all_edge_records_at_once():
    assert len(FINITE_RECORDS) > 250 and len(NON_FINITE_RECORDS) > 30
    assert serialize_events(FINITE_RECORDS) == _canonical(FINITE_RECORDS)
    with pytest.raises(NumericalFailure):
        serialize_events(EDGE_RECORDS)


def test_writer_refuses_nan_and_infinity(tmp_path):
    # Each record is one json.dumps would print with NaN or Infinity in
    # it; none is written, and a file already at the path is kept.
    assert any("Float64(nan)" in repr(e) for e in NON_FINITE_RECORDS)
    kept = tmp_path / "kept.jsonl"
    kept.write_bytes(b"kept\n")
    for i, e in enumerate(NON_FINITE_RECORDS):
        assert b"NaN" in _canonical([e]) or b"Infinity" in _canonical([e]), e
        path = tmp_path / f"{i}.jsonl"
        with pytest.raises(NumericalFailure, match="non-finite value"):
            events.write_event_log(path, FINITE_RECORDS[:2] + [e])
        assert not path.exists(), e
        with pytest.raises(NumericalFailure):
            events.write_event_log(kept, [e])
    assert kept.read_bytes() == b"kept\n"


def test_writer_does_not_change_the_records():
    records = [_detection(), _track(), _with(_detection(), data=_renamed_w())]
    records.append(_detection(cx=NAN))
    before = json.dumps(records, sort_keys=True)
    serialize_events(records[:-1])
    with pytest.raises(NumericalFailure):
        serialize_events(records)
    assert json.dumps(records, sort_keys=True) == before


@pytest.mark.parametrize("bad", [Fraction(3), object()])
def test_writer_rejects_what_json_rejects(bad):
    with pytest.raises(TypeError):
        json.dumps(_track(track_id=bad))
    with pytest.raises(TypeError):
        serialize_events([_track(track_id=bad)])


def test_write_event_log_replaces_a_path_given_as_str_or_path(tmp_path):
    path = tmp_path / "events.jsonl"
    events.write_event_log(path, FINITE_RECORDS)
    assert path.read_bytes() == _canonical(FINITE_RECORDS)
    events.write_event_log(str(path), FINITE_RECORDS[:2])
    assert path.read_bytes() == _canonical(FINITE_RECORDS[:2])
    events.write_event_log(path, [])
    assert path.read_bytes() == b""


# The fields a run hands the formatters, at the edges of their JSON forms.
FORMATTER_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                    1e-7, 1e16, 1e22, -1e22, 0.1, 1 / 3, 9007199254740993.0,
                    1.7976931348623157e308)
FORMATTER_INTS = (0, 1, 7, 2**31, 2**63, 2**64 + 1, 10**40)
# The ints a row holds, to the edges of its int64.
ROW_INTS = (0, 1, 7, 2**31, 2**63 - 1, -1, -7, -(2**31), -(2**63))
# Ints just outside it and far outside.
WIDE_INTS = (2**63, -(2**63) - 1, 2**64 + 1, 10**40, -(10**40))
TRACK_EVENTS = ("born", "confirmed", "coasted", "died")


def test_detection_line_equals_emit_line_at_edge_values():
    base = dict(seq=7, t=1.35, agent=0, cx=12.5, cy=-3.25, w=40.0, h=38.5,
                conf=0.912345, truth=3)
    cases = [base, dict(base, truth=None)]
    for x in FORMATTER_FLOATS:
        cases += [dict(base, **{k: x}) for k in ("t", "cx", "cy", "w", "h", "conf")]
    for n in FORMATTER_INTS:
        cases += [dict(base, **{k: n}) for k in ("seq", "agent", "truth")]
    for c in cases:
        record = make_event(c["seq"], c["t"], c["agent"], "detection", {
            "cx": c["cx"], "cy": c["cy"], "w": c["w"], "h": c["h"],
            "conf": c["conf"], "truth": c["truth"],
        })
        assert events.detection_line(**c) == emit_line(record), c


def test_track_line_equals_emit_line_at_edge_values():
    base = dict(seq=8, t=1.35, agent=1, event="confirmed", track_id=4)
    cases = [dict(base, event=event) for event in TRACK_EVENTS]
    cases += [dict(base, t=x) for x in FORMATTER_FLOATS]
    for n in FORMATTER_INTS:
        cases += [dict(base, **{k: n}) for k in ("seq", "agent", "track_id")]
    for c in cases:
        record = make_event(c["seq"], c["t"], c["agent"], "track",
                            {"event": c["event"], "track_id": c["track_id"]})
        assert events.track_line(**c) == emit_line(record), c


def test_emit_line_is_json_dumps_or_a_numerical_failure():
    for kind in events.EVENT_KINDS:
        e = make_event(10, 2.5, 2, kind, {"estimate": [0.5, -2.0, 1e22]})
        assert emit_line(e) == _canonical([e]).decode()[:-1]
        for x in NON_FINITE + (Float64(NAN),):
            with pytest.raises(NumericalFailure, match=f"in a {kind} record"):
                emit_line(make_event(10, 2.5, 2, kind, {"estimate": [0.5, x]}))
    with pytest.raises(NumericalFailure):
        emit_line(make_event(10, NAN, 2, "phase", {}))
    with pytest.raises(NumericalFailure, match="non-finite value"):
        emit_line({"t": INF})


@pytest.mark.parametrize("x", NON_FINITE)
@pytest.mark.parametrize("suffix", [False, True], ids=["3.10-3.11", "3.12-3.13"])
def test_each_encoder_message_for_a_non_finite_float_is_a_numerical_failure(
        monkeypatch, x, suffix):
    # The encoder's message as Python 3.10-3.11 words it and as 3.12-3.13
    # do, with the value, whichever interpreter runs the test.
    record = make_event(10, 2.5, 2, "phase", {"estimate": [x]})
    message = "Out of range float values are not JSON compliant"
    if suffix:
        message += f": {x!r}"

    def encode(event):
        raise ValueError(message)

    monkeypatch.setattr(events, "_encode", encode)
    with pytest.raises(NumericalFailure, match="non-finite value in a phase record"):
        emit_line(record)


def test_a_record_that_contains_itself_raises_the_encoders_value_error():
    record = make_event(10, 2.5, 2, "phase", {"from": "search"})
    record["data"]["record"] = record
    with pytest.raises(ValueError, match="^Circular reference detected$"):
        emit_line(record)


@pytest.mark.parametrize("streamed", [False, True])
def test_a_non_finite_record_raises_when_emitted(streamed, tmp_path):
    # On both of a run's paths, and for each way a record is emitted; the
    # log keeps what came before and takes nothing of the bad record.
    path = tmp_path / "events.jsonl"
    good = (1.35, 0, 12.5, -3.25, 40.0, 38.5, 0.912345, 3)
    bad_records = []
    for i in (0, 2, 3, 4, 5, 6):  # the float fields of ``good``
        for x in NON_FINITE:
            bad_records.append(("detection", good[:i] + (x,) + good[i + 1:]))
    for x in NON_FINITE:
        bad_records.append(("track", (x, 0, "born", 1)))
        bad_records.append(("emit", (x, 0, "phase", {"from": "search"})))
        bad_records.append(("emit", (1.0, 0, "claim", {"estimate": [x, 0.0]})))
    with open(path, "wb") as fh:
        log = events.EventLog(fh if streamed else None)
        log.detection(*good)
        # finite floats whose sum overflows are not rejected
        log.detection(1.35, 0, 1.7e308, 1.7e308, 40.0, 38.5, 0.9, None)
        for method, args in bad_records:
            with pytest.raises(NumericalFailure, match="non-finite value"):
                getattr(log, method)(*args)
        assert log.seq == 2 and len(log.rows) == 2 * events.ROW.size
        assert log.lines == []
        if streamed:
            log.write()
    if streamed:
        assert len(path.read_text().splitlines()) == 2


# (method of ``EventLog``, its arguments), one record each, in order.
COMPACT_RECORDS = (
    ("detection", (0.0, 0, 12.5, -3.25, 40.0, 38.5, 0.912345, 3)),
    ("detection", (0.0, 1, 1e22, -0.0, 5e-324, 0.1, 1 / 3, None)),
    ("emit", (0.05, None, "phase", {"from": "search", "to": "align", "track_id": 1})),
    ("track", (0.05, 0, "born", 4)),
    ("track", (0.05, 2, "died", 2**63 - 1)),
    ("detection", (0.1, 1, 1.5, 2.5, 3.5, 4.5, 0.5, 2**63 - 1)),
    ("detection", (0.1, 2, 1.5, 2.5, 3.5, 4.5, 0.5, -(2**63))),
    ("detection", (0.1, 0, 1.5, 2.5, 3.5, 4.5, 0.5, -(2**63))),
    ("track", (0.1, 1, "coasted", 2**63 - 1)),
    ("track", (0.15, 0, "confirmed", 0)),
    ("detection", (0.15, 0, -1e-7, 1e16, 2.2250738585072014e-308, 1.0, 1.0, 0)),
    ("emit", (0.15, 1, "claim", {"action": "grant", "estimate": [0.5, -2.0, 1e22]})),
)
# The seqs of the two ``emit`` records above, kept as finished lines.
LINE_SEQS = {2, 11}


def _compact_log():
    """A log of every row form, built through the run's ``EventLog``,
    and the dicts its records stand for."""
    log = events.EventLog()
    dicts = []
    for seq, (method, args) in enumerate(COMPACT_RECORDS):
        getattr(log, method)(*args)
        if method == "emit":
            dicts.append(make_event(seq, *args))
        elif method == "track":
            t, agent, event, track_id = args
            dicts.append(make_event(seq, t, agent, "track",
                                    {"event": event, "track_id": track_id}))
        else:
            t, agent, cx, cy, w, h, conf, truth = args
            dicts.append(make_event(seq, t, agent, "detection", {
                "cx": cx, "cy": cy, "w": w, "h": h, "conf": conf, "truth": truth,
            }))
    return log, dicts


def test_a_log_keeps_one_row_per_record_and_rare_kinds_as_lines():
    log, dicts = _compact_log()
    assert log.seq == len(dicts) and len(log.rows) == len(dicts) * events.ROW.size
    forms = [row[0] for row in events.ROW.iter_unpack(log.rows)]
    assert {seq for seq, form in enumerate(forms) if form == events.LINE} == LINE_SEQS
    assert log.lines == [emit_line(dicts[seq]) for seq in sorted(LINE_SEQS)]


def test_an_int_outside_int64_raises_as_it_is_emitted():
    # Agent, truth and track ids come from the run, far inside int64; a
    # wider one is refused before the row is appended.
    log, _ = _compact_log()
    rows, lines = bytes(log.rows), list(log.lines)
    base = (1.35, 0, 12.5, -3.25, 40.0, 38.5, 0.912345, 3)
    for n in WIDE_INTS:
        for method, args in (
            ("detection", base[:1] + (n,) + base[2:]),
            ("detection", base[:7] + (n,)),
            ("track", (1.35, n, "born", 4)),
            ("track", (1.35, 1, "born", n)),
        ):
            with pytest.raises(struct.error):
                getattr(log, method)(*args)
            assert log.rows == rows and log.lines == lines, (method, args)
    assert log.seq == len(COMPACT_RECORDS)


def test_a_log_with_a_file_writes_its_records_once_a_tick_leaves_a_chunk():
    n = events.LOG_CHUNK_RECORDS
    records = [COMPACT_RECORDS[i % len(COMPACT_RECORDS)] for i in range(n + 3)]
    kept = events.EventLog()
    for method, args in records:
        getattr(kept, method)(*args)
    kept.end_tick()  # a log kept in memory is never written
    assert kept.seq == n + 3 and len(kept.view()) == n + 3
    lines = [line + "\n" for line in events.compact_lines(0, kept.rows, kept.lines)]

    buf = io.BytesIO()
    log = events.EventLog(buf)
    for method, args in records[: n - 1]:
        getattr(log, method)(*args)
    log.end_tick()
    assert buf.getvalue() == b"" and log.written == 0 and log.seq == n - 1
    getattr(log, records[n - 1][0])(*records[n - 1][1])
    log.end_tick()
    assert buf.getvalue() == "".join(lines[:n]).encode()
    assert log.written == n and log.seq == n and not log.rows and log.lines == []
    for method, args in records[n:]:
        getattr(log, method)(*args)
    log.end_tick()
    assert log.written == n and log.seq == n + 3
    assert log.view() == [] and len(log.view()) == 0
    log.write()
    assert buf.getvalue() == "".join(lines).encode()


def test_compact_lines_are_emit_lines_of_the_records_dicts():
    log, dicts = _compact_log()
    assert events.compact_lines(0, log.rows, log.lines) == [emit_line(d) for d in dicts]
    # numbered from ``start``; a finished line keeps the seq it was
    # emitted with
    lines = events.compact_lines(1024, log.rows, log.lines)
    for seq, (line, d) in enumerate(zip(lines, dicts)):
        moved = d if seq in LINE_SEQS else dict(d, seq=seq + 1024)
        assert line == emit_line(moved), seq


def test_a_logged_record_prints_its_emit_line_at_edge_values():
    # Each edge value goes through a row and back, in the log and in the
    # view.
    base = (1.35, 0, 12.5, -3.25, 40.0, 38.5, 0.912345, 3)
    cases = [("detection", base), ("detection", base[:7] + (None,))]
    for x in FORMATTER_FLOATS:
        cases += [("detection", base[:i] + (x,) + base[i + 1:])
                  for i in (0, 2, 3, 4, 5, 6)]
        cases.append(("track", (x, 1, "born", 4)))
    for n in ROW_INTS:
        cases += [("detection", base[:1] + (n,) + base[2:]),
                  ("detection", base[:7] + (n,))]
        cases += [("track", (1.35, n, "died", 4)), ("track", (1.35, 1, "died", n))]
    cases += [("track", (1.35, 1, event, 4)) for event in TRACK_EVENTS]
    for method, args in cases:
        log = events.EventLog()
        getattr(log, method)(*args)
        if method == "track":
            t, agent, event, n = args
            record = make_event(0, t, agent, "track", {"event": event, "track_id": n})
        else:
            t, agent, cx, cy, w, h, conf, n = args
            record = make_event(0, t, agent, "detection", {
                "cx": cx, "cy": cy, "w": w, "h": h, "conf": conf, "truth": n,
            })
        assert events.compact_lines(0, log.rows, log.lines) == [emit_line(record)], args
        assert EventView(log.rows, log.lines) == [record], args


def test_event_view_indexes_slices_and_iterates_in_order():
    log, dicts = _compact_log()
    view = EventView(log.rows, log.lines)
    n = len(dicts)
    assert len(view) == n
    assert [view[i] for i in range(n)] == dicts
    assert [view[i] for i in range(-n, 0)] == dicts
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            view[bad]
    for sl in (slice(1, 4), slice(None, None, -2), slice(-2, None),
               slice(10, None), slice(None)):
        got = view[sl]
        assert type(got) is list and got == dicts[sl], sl
    assert list(view) == dicts
    assert [e["seq"] for e in view] == list(range(n))
    assert dicts[2] in view and list(reversed(view)) == dicts[::-1]


def test_event_view_equals_lists_of_the_same_dicts_both_ways():
    log, dicts = _compact_log()
    view = EventView(log.rows, log.lines)
    assert view == dicts and dicts == view
    assert view == EventView(bytes(log.rows), list(log.lines))
    assert view != dicts[:-1] and dicts[:-1] != view
    changed = dicts[:3] + [make_event(3, 0.05, 0, "track",
                                      {"event": "coasted", "track_id": 4})] + dicts[4:]
    assert view != changed and changed != view
    assert EventView() == [] and [] == EventView()


def test_a_streamed_run_returns_an_empty_view(tmp_path):
    s = parse_scenario_text("seed = 0\nballoons.count = 1\nsim.duration_limit = 2\n")
    in_memory = sim.run_simulation(s).events
    streamed = sim.run_simulation(s, tmp_path / "events.jsonl").events
    assert len(in_memory) > 0
    assert len(streamed) == 0 and streamed == [] and [] == streamed
    assert list(streamed) == [] and streamed != in_memory


def test_a_dict_read_from_the_view_is_fresh():
    log, dicts = _compact_log()
    view = EventView(log.rows, log.lines)
    expected = serialize_events(dicts)
    for reads in ([view[i] for i in range(len(view))], view, view[:]):
        for e in reads:
            e["seq"] = -1
            e["data"]["extra"] = True
    assert list(view) == dicts
    assert serialize_events(view) == expected


def test_an_in_process_run_keeps_its_records_compact():
    """A fleet3 run, held in its ``RunResult``, retains under 160 bytes
    per log record under tracemalloc (123 on Python 3.11; 218 when
    detection and track records were tuples, 669 when each record was a
    record dict and its data dict)."""
    s = load_scenario(SCENARIOS / "fleet3.cfg")
    assert s.seed == 0
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = sim.run_simulation(s)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(result.events) > 10_000
    assert retained / len(result.events) < 160
