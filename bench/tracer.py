"""Outside-in layer tracing for bhsim.

The tracer replaces the module-level names that bhsim's own callers look
up (``bhsim.sim.step_tracker``, ``bhsim.tracking.kf_update``, ...) with
wrappers that count calls and self time, and read a few counts from
arguments and return values.  Nothing inside ``src/bhsim`` changes;
``remove`` puts every original back.

Self time is a span's duration minus the duration of the wrapped spans
nested inside it, so ``sim.run_simulation.self_s`` is the part of the tick
loop no wrapped function covers (audits, pop-check loops, separation,
event dicts).
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

_MARK = "__bench_trace_wrapper__"


def _observe_assignment(tr: "Tracer", args, out) -> None:
    n_tracks, n_dets = args[0].shape
    tr.sums["tracking.measurements"] += n_dets
    tr.sums["tracking.matched"] += len(out.matches)
    if n_tracks and n_dets:
        n = max(n_tracks, n_dets)
        tr.sums["tracking.assignment_n.sum"] += n
        tr.sums["tracking.assignment_n.count"] += 1
        tr.assignment_n_max = max(tr.assignment_n_max, n)


def _observe_detections(tr: "Tracer", args, out) -> None:
    true = sum(1 for d in out if d.truth_id is not None)
    tr.sums["perception.detections.true"] += true
    tr.sums["perception.detections.false"] += len(out) - true


def _observe_claim(tr: "Tracer", args, out) -> None:
    key = "granted" if out.granted else "denied"
    tr.sums[f"fleet.claims.{key}"] += 1


# (module the caller looks the name up in, attribute, layer, observer)
SITES: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("sim", "run_simulation", "sim", None),
    ("sim", "advance_world", "world", None),
    ("sim", "generate_detections", "perception", _observe_detections),
    ("sim", "fit_circle", "perception", None),
    ("sim", "estimate_range", "perception", None),
    ("sim", "step_tracker", "tracking", None),
    ("tracking", "kf_predict", "tracking", None),
    ("tracking", "kf_update", "tracking", None),
    ("tracking", "assignment_cost", "tracking", None),
    ("tracking", "solve_assignment", "tracking", _observe_assignment),
    ("tracking", "new_track", "tracking", None),
    ("sim", "step_mission", "mission", None),
    ("sim", "check_pop", "mission", None),
    ("sim", "generate_search_path", "mission", None),
    ("mission", "velocity_command_camera", "guidance", None),
    ("mission", "desired_yaw", "guidance", None),
    ("mission", "yaw_rate_command", "guidance", None),
    ("sim", "voronoi_partition", "fleet", None),
    ("sim", "deconflict", "fleet", None),
    ("sim", "claim_target", "fleet", _observe_claim),
    ("sim", "release_claim", "fleet", None),
    ("sim", "step_uav", "vehicle", None),
    ("sim", "clamp_to_geofence", "vehicle", None),
    ("events", "make_event", "events", None),
    ("events", "serialize_events", "events", None),
    ("events", "write_event_log", "events", None),
)

SPAN_KEYS = tuple(f"{layer}.{attr}" for _mod, attr, layer, _obs in SITES)


class Tracer:
    """Wraps every site in ``SITES`` between ``install`` and ``remove``."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.sums: dict[str, float] = defaultdict(float)
        self.assignment_n_max = 0
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for mod_name, attr, layer, observe in SITES:
            module = importlib.import_module(f"bhsim.{mod_name}")
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.append(f"bhsim.{mod_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(f"{layer}.{attr}", original, observe))
            self._patched.append((module, attr, original))

    def remove(self) -> int:
        """Restore every original; return how many wrappers are left."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return sum(
            1
            for name, module in list(sys.modules.items())
            if name == "bhsim" or name.startswith("bhsim.")
            for value in vars(module).values()
            if hasattr(value, _MARK)
        )

    def _wrap(self, key: str, fn: Callable, observe: Optional[Callable]):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                rec = spans[key]
                rec[0] += 1
                rec[1] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if observe is not None:
                observe(self, args, out)
            return out

        setattr(wrapper, _MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper
