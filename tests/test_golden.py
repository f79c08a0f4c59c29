"""Golden digests: pin the event log and metrics row of fixed runs.

Each case stores the SHA-256 of ``serialize_events(result.events)`` and of
``result.metrics.csv_row()``.  A change that alters either on purpose must
re-pin the digests here and say why; a refactor must leave them alone.
"""

import functools
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from bhsim.cli import main as cli_main
from bhsim.events import (
    LOG_CHUNK_RECORDS, read_event_log, serialize_events, write_event_log,
)
from bhsim.perception import ZERO_NOISE
from bhsim.scenario import load_scenario
from bhsim.sim import run_simulation, sweep

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# fleet3 runs are cut at 150 s (past the scripted failure at 120 s) to
# keep the suite quick.
FLEET3_DURATION_S = 150.0

# case -> (event log sha256, csv row sha256), pinned on the random.Random
# streams of bhsim.rng
GOLDEN = {
    "default-0": (
        "8e19db890f8f7aa14368c091c14582dc95f9770bee62c511f7d9ac9ad019f7e9",
        "9e8badf6b29e60f8148383c618da79b6c8faa31ca37dfade39aad68b29e0c41c",
    ),
    "default-1": (
        "088343e669c3c547ffdbc243cba96a083876c31411660dbedeb59d8096c4f524",
        "f3662c008885920cc3f892472345adeace177fac96526fb7d7afa73debf86046",
    ),
    "default-2": (
        "7233caf21120c092762e321c42a1101db83b79befb8c5c0a4e42666a7fd45775",
        "3cf9c0ffd2048b67db78afeba02e47e226e80990fab5f64a8723fd53b17d0548",
    ),
    "default-3": (
        "f83da71b7cba78e1baab45c90898288c983940d228f2268b4cc1fec759194950",
        "56ed4ce22eee7de87d80a3ca3d570100cab88854f8870f6debe31a7aae59ae9e",
    ),
    "default-4": (
        "9364fc2001a473c06907f14e7007c8e8a2fb454afa93225f669ed627b700b621",
        "d339c3c390dcf5288d4fc32e8922f36250451b45a5cc6f3dff505e07a6072a66",
    ),
    "default-zero-noise-3": (
        "89825068103f0cf860cebf88bbbfb10138e4ef951ed28d5699da651f343e072d",
        "94b886c0a1c34a5febf982b5b6a3b9f9541c4f9ac6a964a27e03b1d93a76459c",
    ),
    "fleet3-0": (
        "78f9fa17702cecdcd8674d084393877ffa968c38c5204b656a7f8d1eb363b1db",
        "60f72ebb64541d8584b766e8dc75ecafc926c82e1e16b75f7a3b49271da6b45d",
    ),
    "fleet3-1": (
        "243b5ce46bee8ccd8351fa78a13eff8c94f5dac2329a469b4592413ff36ea50d",
        "ab53f92d836a91cb3e1629b280d5236fa73f494d7877c931115fc7f82a3643da",
    ),
    "fleet3-2": (
        "aec0f025a6123df516ed3dd197c03f49b261bf73c0683d59203097e9111b3357",
        "cf3746d1a0fb4511e89be0a1c3c460e48ba14efc01f3d53967d8e2f1fae1529b",
    ),
}


# (command, scenario file) -> sha256 of what ``bhsim <command>`` prints
CLI_GOLDEN = {
    ("partition", "default.cfg"):
        "5abfa2036d7cd8e0e4ea747f5d2c6d24360110aa8e8c66971996cde2e2483a97",
    ("partition", "fleet3.cfg"):
        "104d5fcf06cbb2cde09d08f6e35f834b6c435040e3f952f3773de2469b09e25a",
    ("path", "default.cfg"):
        "a1c3378f8fb4f821e7bec5a8ec4bcc8a946664802e3e8d21a6121c5e22b5bb82",
    ("path", "fleet3.cfg"):
        "b496d8e6cfb41fea039170484a67f03d6621225c963d2723334782393564ed01",
}


def _scenario(case: str):
    name, seed = case.rsplit("-", 1)
    if name == "fleet3":
        s = load_scenario(SCENARIOS / "fleet3.cfg")
        s = replace(s, sim=s.sim._replace(duration_limit=FLEET3_DURATION_S))
    else:
        s = load_scenario(SCENARIOS / "default.cfg")
        if name == "default-zero-noise":
            s = replace(s, noise=ZERO_NOISE)
    return replace(s, seed=int(seed))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# Each golden run is simulated once per process and shared by the tests
# below, which only read it.
@functools.lru_cache(maxsize=None)
def _run(case: str):
    return run_simulation(_scenario(case))


def _digests(case: str) -> tuple[str, str]:
    result = _run(case)
    return (
        _sha256(serialize_events(result.events)),
        _sha256(result.metrics.csv_row().encode("utf-8")),
    )


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_digests(case):
    assert _digests(case) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_log_lines_equal_json_dumps_record_by_record(case):
    """The writer prints each record in its canonical form, and no golden
    record holds a NaN or an infinity."""
    result = _run(case)
    lines = serialize_events(result.events).decode("utf-8").split("\n")
    assert lines.pop() == ""
    assert len(lines) == len(result.events)
    for line, e in zip(lines, result.events):
        assert line == json.dumps(
            e, sort_keys=True, separators=(",", ":"), allow_nan=False
        ), e


@pytest.mark.parametrize("command, cfg", sorted(CLI_GOLDEN))
def test_path_and_partition_print_their_pinned_bytes(command, cfg, capsys):
    assert cli_main([command, "--scenario", str(SCENARIOS / cfg)]) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == CLI_GOLDEN[command, cfg]


def test_fleet3_log_file_round_trips_every_record(tmp_path):
    result = _run("fleet3-0")
    path = tmp_path / "events.jsonl"
    write_event_log(path, result.events)
    assert read_event_log(path) == result.events


def _scenario_file(case: str, directory: Path) -> Path:
    """A scenario file that loads as the golden case's scenario, for the CLI."""
    name, seed = case.rsplit("-", 1)
    base = SCENARIOS / ("fleet3.cfg" if name == "fleet3" else "default.cfg")
    overrides = {"seed": seed}
    if name == "fleet3":
        overrides["sim.duration_limit"] = str(FLEET3_DURATION_S)
    elif name == "default-zero-noise":
        for key in ("center_sigma", "size_sigma_frac", "p_miss_base",
                    "p_miss_range_scale", "false_alarm_rate", "confidence_floor"):
            overrides[f"noise.{key}"] = "0"
    lines = [
        line for line in base.read_text(encoding="utf-8").splitlines()
        if line.partition("=")[0].strip() not in overrides
    ]
    lines += [f"{key} = {value}" for key, value in overrides.items()]
    path = directory / f"{case}.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert load_scenario(path) == _scenario(case)
    return path


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_streamed_logs_equal_the_in_memory_log(case, tmp_path, capsys):
    """``sweep(out_dir)`` and ``simulate --out`` write, chunk by chunk as
    the run goes, the bytes of the whole in-memory log: the per-kind
    formatters print each record as ``emit_line`` prints its dict.  The
    in-memory run's view reads as the records of that log."""
    expected = serialize_events(_run(case).events)
    s = _scenario(case)
    row = sweep(s, [s.seed], jobs=1, out_dir=tmp_path).rows[0]
    assert row.csv_row() == _run(case).metrics.csv_row()
    log = tmp_path / f"events_seed{s.seed}.jsonl"
    assert log.read_bytes() == expected
    assert _run(case).events == read_event_log(log)
    out = tmp_path / "simulate"
    argv = ["simulate", "--scenario", str(_scenario_file(case, tmp_path)),
            "--out", str(out)]
    assert cli_main(argv) == 0
    capsys.readouterr()
    assert (out / "events.jsonl").read_bytes() == expected


def test_pool_streamed_logs_equal_the_in_memory_log(tmp_path):
    """With ``jobs=2`` each worker streams its runs' logs, byte for byte."""
    families: dict[str, list[int]] = {}
    for case in sorted(GOLDEN):
        name, seed = case.rsplit("-", 1)
        families.setdefault(name, []).append(int(seed))
    for name, seeds in families.items():
        s = _scenario(f"{name}-{seeds[0]}")
        # a lone seed gets a companion run so that the pool starts
        run_seeds = seeds if len(seeds) > 1 else seeds + [seeds[0] + 1]
        out = tmp_path / name
        sweep(s, run_seeds, jobs=2, out_dir=out)
        for seed in seeds:
            expected = serialize_events(_run(f"{name}-{seed}").events)
            assert (out / f"events_seed{seed}.jsonl").read_bytes() == expected, seed


def test_streamed_log_crosses_chunks_or_stays_within_one(tmp_path):
    """The fleet3 case writes many chunks; a 3 s run fewer records than
    one.  A streamed run returns no records of its own."""
    assert len(_run("fleet3-0").events) > 3 * LOG_CHUNK_RECORDS
    s = _scenario("default-0")
    s = replace(s, sim=s.sim._replace(duration_limit=3.0))
    in_memory = run_simulation(s).events
    assert 0 < len(in_memory) < LOG_CHUNK_RECORDS
    path = tmp_path / "events.jsonl"
    assert run_simulation(s, path).events == []
    assert path.read_bytes() == serialize_events(in_memory)


# Golden cases and CLI commands re-run in fresh interpreters where
# ``import numpy`` fails: the simulator must not need it.
HOST_CASES = ("default-0", "fleet3-0")

_BLOCK_NUMPY = "import sys; sys.modules['numpy'] = None; "

_DIGEST_SCRIPT = _BLOCK_NUMPY + """
import json
sys.path.insert(0, sys.argv[1])
from test_golden import _digests
print(json.dumps({case: _digests(case) for case in sys.argv[2:]}))
"""

_CLI_SCRIPT = _BLOCK_NUMPY + """
import runpy
sys.argv = ["bhsim", *sys.argv[1:]]
runpy.run_module("bhsim", run_name="__main__")
"""

_CLI_COMMANDS = (
    ("simulate", "--scenario", str(SCENARIOS / "default.cfg")),
    ("sweep", "--scenario", str(SCENARIOS / "fleet3.cfg"), "--seeds", "0..1",
     "--jobs", "2"),
    ("path", "--scenario", str(SCENARIOS / "fleet3.cfg")),
    ("partition", "--scenario", str(SCENARIOS / "fleet3.cfg")),
)


def _python(*args: str, **env_vars: str) -> subprocess.CompletedProcess:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=300,
    )


def test_golden_digests_and_cli_run_without_numpy():
    """A run is a pure function of (scenario, seed), with no numpy loaded.

    Two golden cases reproduce their pinned digests in a fresh
    interpreter that cannot import numpy, and every CLI subcommand,
    ``sweep`` through its process pool, exits 0 there.
    """
    tests_dir = str(Path(__file__).resolve().parent)
    out = _python("-c", _DIGEST_SCRIPT, tests_dir, *HOST_CASES)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    for case in HOST_CASES:
        assert tuple(got[case]) == GOLDEN[case], case
    for command in _CLI_COMMANDS:
        out = _python("-c", _CLI_SCRIPT, *command)
        assert out.returncode == 0, (command, out.stderr)


def test_a_log_does_not_depend_on_the_hash_seed():
    """``str`` hashes, and so the order of sets of strings, change with
    ``PYTHONHASHSEED``; no run output may.  The fleet3 case prints its
    pinned digests under three seeds."""
    tests_dir = str(Path(__file__).resolve().parent)
    for hash_seed in ("0", "1", "987654"):
        out = _python("-c", _DIGEST_SCRIPT, tests_dir, "fleet3-0",
                      PYTHONHASHSEED=hash_seed)
        assert out.returncode == 0, out.stderr
        assert tuple(json.loads(out.stdout)["fleet3-0"]) == GOLDEN["fleet3-0"], hash_seed


@pytest.mark.parametrize("cfg", ["default.cfg", "fleet3.cfg"])
def test_a_cut_run_logs_a_byte_prefix_of_the_longer_run(cfg):
    """A run's records up to a time do not depend on how long it runs."""
    s = load_scenario(SCENARIOS / cfg)

    def log(duration: float) -> bytes:
        cut = replace(s, sim=s.sim._replace(duration_limit=duration))
        return serialize_events(run_simulation(cut).events)

    full = log(60.0)
    for duration in (18.0, 42.0):
        part = log(duration)
        assert 0 < len(part) < len(full) and full.startswith(part), duration


def test_a_cli_run_leaves_numpy_unimported():
    # ... and the process pool, which only a pooled sweep imports.
    script = (
        "import sys\n"
        "from bhsim.cli import main\n"
        f"code = main(['simulate', '--scenario', {str(SCENARIOS / 'default.cfg')!r}])\n"
        "print(code, 'numpy' in sys.modules, 'concurrent.futures' in sys.modules)\n"
    )
    out = _python("-c", script)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 False False"


def test_a_run_and_a_serial_sweep_leave_the_process_pool_unimported():
    script = (
        "import sys\n"
        "from bhsim import events, scenario, sim\n"
        "s = scenario.parse_scenario_text("
        "'seed = 0\\nballoons.count = 1\\nsim.duration_limit = 2\\n')\n"
        "sim.run_simulation(s)\n"
        "sim.sweep(s, [0, 1], jobs=1)\n"
        "print('concurrent.futures' in sys.modules)\n"
    )
    out = _python("-c", script)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "False"


def test_importing_bhsim_builds_only_two_dataclasses():
    # Building a dataclass generates and compiles its methods, which
    # costs every fresh process (a CLI run, a pool worker) before tick 0.
    # Only ``Scenario`` (``dataclasses.replace`` works on it) and
    # ``RunMetrics`` are dataclasses; every other record is a NamedTuple
    # or a ``__slots__`` class.
    script = (
        "import dataclasses\n"
        "built = []\n"
        "real = dataclasses._process_class\n"
        "def counting(cls, *args, **kwargs):\n"
        "    built.append(f'{cls.__module__}.{cls.__qualname__}')\n"
        "    return real(cls, *args, **kwargs)\n"
        "dataclasses._process_class = counting\n"
        "from bhsim import events, scenario, sim\n"
        "print(*sorted(b for b in built if b.startswith('bhsim.')))\n"
    )
    out = _python("-c", script)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["bhsim.scenario.Scenario", "bhsim.sim.RunMetrics"]


def test_no_module_postpones_its_annotations():
    # Postponed annotations are strings, which every NamedTuple field and
    # dataclass field then has to process at import.
    src = Path(__file__).resolve().parents[1] / "src" / "bhsim"
    modules = sorted(src.glob("*.py"))
    assert len(modules) >= 13
    for path in modules:
        text = path.read_text(encoding="utf-8")
        assert "from __future__ import annotations" not in text, path.name
