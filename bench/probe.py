"""Fresh-process probes the benchmark starts; prints one JSON line.

    python3 bench/probe.py setup SRC CFG
        time to import bhsim and load CFG (interpreter start excluded)
    python3 bench/probe.py run SRC CFG SEED [OUT_DIR]
        peak RSS of one run of CFG with SEED, then its digest; with
        OUT_DIR the run goes through sim.sweep, which writes its log there
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import replace
from pathlib import Path


def _peak_kb() -> int:
    """Peak RSS of this process in KiB, from VmHWM.

    Not ru_maxrss: Linux carries it across exec, so it would report the
    larger benchmark process that started this one.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> dict:
    mode, src, cfg = argv[:3]
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from bhsim import events, scenario, sim

    scn = scenario.load_scenario(cfg)
    if mode == "setup":
        return {"seconds": time.perf_counter() - t0}
    if mode != "run":
        raise SystemExit(f"unknown probe mode {mode!r}")
    seed = int(argv[3])
    if len(argv) > 4:
        out = Path(argv[4])
        metrics = sim.sweep(scn, [seed], jobs=1, out_dir=out).rows[0]
        peak = _peak_kb()
        log = (out / f"events_seed{seed}.jsonl").read_bytes()
    else:
        result = sim.run_simulation(replace(scn, seed=seed))
        peak = _peak_kb()  # before the digest adds its own copy of the log
        metrics = result.metrics
        log = events.serialize_events(result.events)
    return {
        "peak_kb": peak,
        "digest": [hashlib.sha256(log).hexdigest(), metrics.csv_row()],
    }


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
