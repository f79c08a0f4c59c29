"""bhsim benchmark: host speed, memory and simulated outcome.

    python3 bench/run.py --workload {solo,fleet,sweep} --seed N \
        --seconds S --trace {0,1} [--block {dev,held-out}]

Run from the repository root; bhsim is imported from ``src/``.  The seed
``N`` picks a block of scenario seeds; bhsim only ever sees the workload's
scenario with one of those seeds.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of one extra traced pass.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in
this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from hostspeed import REF_S, reference_seconds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE = Path(__file__).resolve().parent / "probe.py"

# name -> (scenario file, block size, each run goes through sim.sweep and
# writes its log, as `bhsim sweep --out` does)
WORKLOADS = {
    "solo": ("scenarios/default.cfg", 32, False),
    "fleet": ("scenarios/fleet3.cfg", 16, False),
    "sweep": ("scenarios/default.cfg", 32, True),
}
SETUP_PROBES = 9
MEMORY_PROBES = 3
NOISE_NOTE = (
    "speed has varied ~1.5x between invocations on a shared 2-core host "
    "(ROADMAP item 1); compare medians of repeated invocations"
)


def block_seeds(n: int, size: int, block: str) -> list[int]:
    """Scenario seeds of block ``n``: even for dev, odd for held-out.

    The two kinds never share a seed, whatever ``n`` is.
    """
    first = n * size
    return [2 * (first + i) + (block == "held-out") for i in range(size)]


@dataclass
class Outcome:
    """What one run produced, as far as the checks and the report need."""

    log_sha: str
    row: str
    log_bytes: int
    ticks: int
    popped: int
    total: int
    success: bool
    pops_time: Optional[float]
    duration: float
    kinds: dict[str, int]

    @property
    def digest(self) -> tuple[str, str]:
        return (self.log_sha, self.row)


class Ledger:
    """Outcomes of one set of runs, with the per-run and determinism checks.

    Every ``(scenario, seed)`` that runs again must reproduce the first
    run's event-log SHA-256 and CSV row; a run that raises, returns an
    error row, fails a check or differs counts as failed.
    """

    def __init__(self, tick_rate: float, kinds: tuple[str, ...]) -> None:
        self.tick_rate = tick_rate
        self.kinds = kinds
        self.first: dict[int, Outcome] = {}
        # (wall s, scaled s) of each checked run of a seed
        self.times: dict[int, list[tuple[float, float]]] = defaultdict(list)
        self.attempted = 0
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.problems)

    def record(self, seed: int, m, log: bytes, timing: tuple[float, float]) -> None:
        self.attempted += 1
        out = Outcome(
            log_sha=hashlib.sha256(log).hexdigest(),
            row=m.csv_row(),
            log_bytes=len(log),
            ticks=round(m.duration * self.tick_rate),
            popped=m.balloons_popped,
            total=m.balloons_total,
            success=m.success,
            pops_time=m.pops_total_time,
            duration=m.duration,
            kinds={k: log.count(b'"kind":"%s"' % k.encode()) for k in self.kinds},
        )
        problem = _check_run(m, log)
        prior = self.first.setdefault(seed, out)
        if problem is None and prior.digest != out.digest:
            problem = "output differs from an earlier run of the same seed"
        if problem is not None:
            self.problems.append(f"seed {seed}: {problem}")
        else:
            self.times[seed].append(timing)

    def compare(self, seed: int, digest: list[str]) -> None:
        """Check one more run of ``seed`` made in a probe process."""
        self.attempted += 1
        prior = self.first.get(seed)
        if prior is not None and prior.digest != tuple(digest):
            self.problems.append(f"seed {seed}: probe output differs from timed runs")

    def error(self, seed: int, what: str) -> None:
        self.attempted += 1
        self.problems.append(f"seed {seed}: {what}")


def _check_run(m, log: bytes) -> Optional[str]:
    """Invariants every run of the benchmark scenarios must keep."""
    if m.error is not None:
        return f"error row: {m.error}"
    world_pops = log.count(b'"source":"world"')
    if m.balloons_popped != world_pops:
        return f"{m.balloons_popped} popped but {world_pops} pop events logged"
    if m.geofence_violations:
        return f"{m.geofence_violations} geofence violations"
    if m.success and (m.pops_total_time is None or m.pops_total_time > m.duration):
        return f"pops_total_time {m.pops_total_time} outside the run"
    return None


def _scaled(wall: float, ref_before: float, ref_after: float) -> tuple[float, float]:
    """``wall`` and its value at reference host speed (see hostspeed.py)."""
    return wall, wall * 2.0 * REF_S / (ref_before + ref_after)


class Bench:
    """One workload over one seed block: runs passes into ledgers."""

    def __init__(self, workload: str, seeds: list[int], tmp: Path) -> None:
        from bhsim import events, scenario, sim

        self.cfg, _size, self.writes_logs = WORKLOADS[workload]
        self.sim = sim
        self.scenario = scenario.load_scenario(ROOT / self.cfg)
        self.seeds = seeds
        self.tmp = tmp
        self.kinds = tuple(events.EVENT_KINDS)
        # Held before any tracing starts, so digests never pass a wrapper.
        self.serialize = events.serialize_events

    def ledger(self) -> Ledger:
        return Ledger(self.scenario.sim.tick_rate, self.kinds)

    def run_pass(self, ledger: Ledger, deadline: Optional[float] = None) -> float:
        """Run the block once, or until ``deadline``; return wall seconds.

        Each run is bracketed by host-speed references (see hostspeed.py).
        """
        t_pass = time.perf_counter()
        ref = reference_seconds()
        for seed in self.seeds:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            t0 = time.perf_counter()
            try:
                m, events = self._run(seed)
            except Exception as exc:  # a failed run is reported, not fatal
                ledger.error(seed, f"{type(exc).__name__}: {exc}")
                continue
            wall = time.perf_counter() - t0
            after = reference_seconds()
            log_path = self.tmp / f"events_seed{seed}.jsonl"
            if m.error is not None:
                ledger.error(seed, f"error row: {m.error}")
            elif self.writes_logs and not log_path.is_file():
                ledger.error(seed, "no event log written")
            else:
                if self.writes_logs:
                    log = log_path.read_bytes()
                    log_path.unlink()
                else:
                    log = self.serialize(events)
                ledger.record(seed, m, log, _scaled(wall, ref, after))
            ref = after
            del events  # the next run should not start with this one's events
        return time.perf_counter() - t_pass

    def _run(self, seed: int):
        """One run as the workload makes it: its metrics and its events
        (None when ``sim.sweep`` wrote them to a log file)."""
        if self.writes_logs:
            rows = self.sim.sweep(self.scenario, [seed], jobs=1, out_dir=self.tmp).rows
            return rows[0], None
        result = self.sim.run_simulation(replace(self.scenario, seed=seed))
        return result.metrics, result.events

    def measure(self, ledger: Ledger, seconds: float) -> None:
        """One whole pass, then repeats until ``seconds`` have passed."""
        deadline = time.perf_counter() + seconds
        self.run_pass(ledger)
        while time.perf_counter() < deadline:
            self.run_pass(ledger, deadline)

    def host_time(self, ledger: Ledger) -> tuple[float, float, int]:
        """Wall and scaled seconds for one pass over the block, and its ticks.

        Each seed counts with the median of its runs.
        """
        done = [s for s in self.seeds if ledger.times.get(s)]
        samples = [ledger.times[s] for s in done]
        wall = sum(statistics.median(w for w, _ in t) for t in samples)
        scaled = sum(statistics.median(x for _, x in t) for t in samples)
        return wall, scaled, sum(ledger.first[s].ticks for s in done)


def probe(*args: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(PROBE), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def setup_seconds(cfg: str) -> tuple[float, float]:
    """Median wall and scaled time for a fresh process to import bhsim and
    load ``cfg``."""
    times = []
    ref = reference_seconds()
    for _ in range(SETUP_PROBES):
        seconds = probe("setup", str(SRC), str(ROOT / cfg))["seconds"]
        after = reference_seconds()
        times.append(_scaled(seconds, ref, after))
        ref = after
    return (statistics.median(w for w, _ in times),
            statistics.median(x for _, x in times))


def peak_rss_mb(bench: Bench, ledger: Ledger) -> float:
    """Median peak RSS of fresh bhsim processes each doing one block seed.

    A probe process runs the seed as the workload does (writing its log
    through ``sim.sweep`` for sweep) and re-checks its digest.
    """
    peaks = []
    for i, seed in enumerate(bench.seeds[:MEMORY_PROBES]):
        args = ["run", str(SRC), str(ROOT / bench.cfg), str(seed)]
        if bench.writes_logs:
            args.append(str(bench.tmp / f"memory-{i}"))
        try:
            result = probe(*args)
        except (subprocess.SubprocessError, ValueError) as exc:
            ledger.error(seed, f"memory probe failed: {exc}")
            continue
        peaks.append(result["peak_kb"] / 1024.0)
        ledger.compare(seed, result["digest"])
    return statistics.median(peaks) if peaks else 0.0


def machine() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return (
        f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
        f"numpy={numpy.__version__}"
    )


def report_outcomes(bench: Bench, ledger: Ledger) -> None:
    """Print digests and simulated statistics, one line per seed."""
    block = hashlib.sha256()
    for seed in bench.seeds:
        o = ledger.first.get(seed)
        if o is None:
            print(f"seed {seed}: no outcome")
            continue
        row_sha = hashlib.sha256(o.row.encode()).hexdigest()
        block.update(f"{seed}:{o.log_sha}:{row_sha}\n".encode())
        kinds = " ".join(f"{k}={n}" for k, n in o.kinds.items())
        print(
            f"seed {seed}: log_sha256={o.log_sha} row_sha256={row_sha} "
            f"popped={o.popped}/{o.total} duration={o.duration:.2f}s {kinds}"
        )
    print(f"block digest: {block.hexdigest()}")
    for problem in ledger.problems:
        print(f"FAILED {problem}")


def simulated(bench: Bench, ledger: Ledger) -> tuple[float, float]:
    """Share of block runs that popped every balloon, and their mean pop time.

    With no successful run the mean falls back to the duration limit.
    """
    outs = [ledger.first[s] for s in bench.seeds if s in ledger.first]
    times = [o.pops_time for o in outs if o.success]
    rate = len(times) / len(bench.seeds)
    mean = statistics.fmean(times) if times else bench.scenario.sim.duration_limit
    return rate, mean


def end_to_end(bench: Bench, seconds: float) -> dict:
    setup_wall, setup = setup_seconds(bench.cfg)
    ledger = bench.ledger()
    bench.measure(ledger, seconds)
    peak_mb = peak_rss_mb(bench, ledger)
    report_outcomes(bench, ledger)
    wall, scaled, ticks = bench.host_time(ledger)
    n = len(bench.seeds)
    print(
        f"unscaled wall: setup_s={setup_wall:.4f} "
        f"runs_per_s={n / wall if wall else 0.0:.4f} "
        f"tick_us={wall / ticks * 1e6 if ticks else 0.0:.2f} "
        f"(host speed {scaled / wall if wall else 0.0:.3f} of reference)"
    )
    _rate, pops_mean = simulated(bench, ledger)
    metrics = {
        "setup_s": (setup, "s"),
        "runs_per_s": (n / scaled if scaled else 0.0, "1/s"),
        "tick_us": (scaled / ticks * 1e6 if ticks else 0.0, "us"),
        "peak_rss_mb": (peak_mb, "MB"),
        "pops_time_mean_s": (pops_mean, "s"),
    }
    return _result(ledger.attempted, ledger.failed, ledger.failed == 0, metrics)


def per_layer(bench: Bench, seconds: float) -> dict:
    from tracer import SPAN_KEYS, Tracer

    ledger = bench.ledger()
    bench.measure(ledger, seconds / 2)
    _wall, base, ticks = bench.host_time(ledger)

    tracer = Tracer()
    traced = bench.ledger()
    tracer.install()
    try:
        pass_wall = bench.run_pass(traced)
    finally:
        left = tracer.remove()

    report_outcomes(bench, ledger)
    problems = list(traced.problems)
    for seed, o in traced.first.items():
        untraced = ledger.first.get(seed)
        if untraced is not None and untraced.digest != o.digest:
            problems.append(f"seed {seed}: traced output differs from untraced")
    for p in problems:
        print(f"FAILED traced {p}")
    if left:
        print(f"FAILED {left} trace wrappers left installed")
    for name in tracer.missing:
        print(f"note: {name} not found; its span metrics read 0", file=sys.stderr)

    attempted = ledger.attempted + traced.attempted
    failed = ledger.failed + len(problems)
    rate, _mean = simulated(bench, ledger)
    _wall, traced_s, traced_ticks = bench.host_time(traced)
    overhead = (traced_s / traced_ticks) / (base / ticks) if ticks and traced_ticks else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    for key in SPAN_KEYS:
        calls, self_s = tracer.spans.get(key, (0, 0.0))
        metrics[f"{key}.calls"] = (calls, "count")
        metrics[f"{key}.self_s"] = (self_s, "s")
    sums = tracer.sums
    n_assign = sums["tracking.assignment_n.count"]
    measured = sums["tracking.measurements"]
    metrics.update({
        "tracking.assignment_n.mean": (
            sums["tracking.assignment_n.sum"] / n_assign if n_assign else 0.0, "count"),
        "tracking.assignment_n.max": (tracer.assignment_n_max, "count"),
        "tracking.match_ratio": (
            sums["tracking.matched"] / measured if measured else 0.0, "ratio"),
        "perception.detections.true": (sums["perception.detections.true"], "count"),
        "perception.detections.false": (sums["perception.detections.false"], "count"),
        "fleet.claims.granted": (sums["fleet.claims.granted"], "count"),
        "fleet.claims.denied": (sums["fleet.claims.denied"], "count"),
        "events.records": (metrics["events.make_event.calls"][0], "count"),
        "events.bytes": (sum(o.log_bytes for o in traced.first.values()), "bytes"),
        "trace.overhead": (overhead, "ratio"),
        "mission_success_rate": (rate, "ratio"),
        "run_error_rate": (failed / attempted if attempted else 1.0, "ratio"),
    })
    print_layer_table(metrics, pass_wall)
    return _result(attempted, failed, failed == 0 and left == 0, metrics)


def print_layer_table(metrics: dict, pass_wall: float) -> None:
    rows = sorted(
        (v[0], k[: -len(".self_s")], metrics[k[: -len("self_s")] + "calls"][0])
        for k, v in metrics.items() if k.endswith(".self_s")
    )
    print(f"{'span':40s} {'calls':>9s} {'self_s':>9s} {'share':>6s}")
    for self_s, name, calls in reversed(rows):
        share = self_s / pass_wall if pass_wall else 0.0
        print(f"{name:40s} {calls:9.0f} {self_s:9.3f} {share:6.1%}")


def _result(attempted: int, failed: int, correct: bool, metrics: dict) -> dict:
    return {
        "correct": bool(correct and attempted > 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True,
                    help="block number; picks the block's scenario seeds")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--block", choices=("dev", "held-out"), default="dev",
                    help="held-out blocks are kept for checking claims")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    cfg, size, _writes_logs = WORKLOADS[args.workload]
    if not (SRC / "bhsim" / "__init__.py").is_file() or not (ROOT / cfg).is_file():
        print(f"error: bhsim sources or {cfg} not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    seeds = block_seeds(args.seed, size, args.block)
    scratch = ROOT / ".bench_tmp"
    tmp = scratch / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args.workload, seeds, tmp)
        print(f"machine: {machine()}")
        print(f"note: {NOISE_NOTE}")
        how = "sim.sweep jobs=1 per seed, writing logs" if bench.writes_logs else "in-process"
        print(
            f"workload: {args.workload} scenario={cfg} block={args.block}:{args.seed} "
            f"seeds={','.join(map(str, seeds))} runs={how} trace={args.trace}"
        )
        if args.trace:
            result = per_layer(bench, args.seconds)
        else:
            result = end_to_end(bench, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another invocation is still using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
