"""The benchmark's layer tracer still reaches every site it wraps.

``bench/tracer.py`` replaces module-level names in ``bhsim`` with
counting wrappers.  A refactor that calls one of them some other way
(a local alias, a method, a moved import) silently drops it from the
per-layer figures; this test runs the tracer over a short fleet run and
a one-seed sweep and requires a call through every span.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

from bhsim import sim
from bhsim.scenario import load_scenario

ROOT = Path(__file__).resolve().parents[1]
# check_pop: fused into mission.pops_in_reach; the name stays importable
# from sim for the tracer but is no longer called by a run.
# serialize_events, write_event_log: a streamed run's events.EventLog
# prints its rows when it writes a chunk (compact_lines, through
# detection_line and track_line) and writes the lines itself; these two
# print record dicts for in-process callers.
UNCALLED = {"mission.check_pop", "events.serialize_events", "events.write_event_log"}


def _tracer_module():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_calls_through_every_site(tmp_path):
    tracer_mod = _tracer_module()
    s = load_scenario(ROOT / "scenarios" / "fleet3.cfg")
    # Past the scripted failure at 120 s, so the replan runs too.
    s = replace(s, seed=0, sim=s.sim._replace(duration_limit=130.0))
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        sim.run_simulation(s)
        sim.sweep(s, [0], jobs=1, out_dir=tmp_path)
    finally:
        left = tracer.remove()
    assert tracer.missing == []
    assert left == 0
    idle = [
        key for key in tracer_mod.SPAN_KEYS
        if key not in UNCALLED and tracer.spans[key][0] == 0
    ]
    assert idle == []
    assert (tmp_path / "events_seed0.jsonl").is_file()
