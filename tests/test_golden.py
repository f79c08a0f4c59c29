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

from bhsim.events import read_event_log, serialize_events, write_event_log
from bhsim.perception import ZERO_NOISE
from bhsim.scenario import load_scenario
from bhsim.sim import run_simulation

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# fleet3 runs are cut at 150 s (past the scripted failure at 120 s) to
# keep the suite quick.
FLEET3_DURATION_S = 150.0

# case -> (event log sha256, csv row sha256)
GOLDEN = {
    "default-0": (
        "b6a5f16e497715269575ea26c580bd3f92ce62c0ad2328d694dc7aae5c15cf60",
        "6f6f11d612e28a998859b3093d55792df86a50e11459aa1092e4c2ea42d411c2",
    ),
    "default-1": (
        "80b29af9fe3f602f96b3228d5ea4f7f813a8a90797330b66a7a6661e9b48996c",
        "514249ae821f79a448555b2283a2530236dee07560ebf2888cde00c68f7e257f",
    ),
    "default-2": (
        "48fa0b634d664bc11500a816b456286911d822a2c2930895cb1fe176b1f70de5",
        "e9f3beeb7d30df3789520438fbf6f660ce96065f3a05f9ffdfe735f2f94588af",
    ),
    "default-3": (
        "f988e414eaf8dda911676dab412219f22faebd9124f26a4a018b77969abbf92a",
        "eb2b999b008b87f93f633897b6cc9381461846d88caea59697da8d6dfd957bfb",
    ),
    "default-4": (
        "17ecde701a533e0819ce362447e1b2811e910414b751033fe7352001965d6fc4",
        "b76690e4613d7c164804e472b96e8cc03432ef988454489163f9486623b88c33",
    ),
    "default-zero-noise-3": (
        "8e49d546143d79cd1f8fb2dc9bdfabca19ff383002befd59319412fbcf1d9c75",
        "af9e9af651b7599a854a3b2bc8ef5e10d961318d2d6992c9c01a24b21e07933a",
    ),
    "fleet3-0": (
        "f2ac182cb65425cc6c0df4f1962b8165a9200eb29007b8333aa5d4cea09c2bf1",
        "0942f6b092126e3841f3ca4c3800e3f2a73ac18bbbbee11a9d49bed237b3eacd",
    ),
    "fleet3-1": (
        "2d9e4c8c71aed10de413d6dd15f404d4afde6ac113a59677db044fdb9f1377e5",
        "ddb789fa75a66cbed57b973ecf04b463559cec6f6423925737db57bc1db3c7ff",
    ),
    "fleet3-2": (
        "8b20b80f4f56be50ce50fead7fcea75b7e693ecbe910ae9da06993665284530e",
        "6e563ba632ccc3972604a361eea91f9be8800308db62fbcd0f5766b2108fe864",
    ),
}


def _scenario(case: str):
    name, seed = case.rsplit("-", 1)
    if name == "fleet3":
        s = load_scenario(SCENARIOS / "fleet3.cfg")
        s = replace(s, sim=replace(s.sim, duration_limit=FLEET3_DURATION_S))
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
    """The writer's fast templates print each record in its canonical form."""
    result = _run(case)
    lines = serialize_events(result.events).decode("utf-8").split("\n")
    assert lines.pop() == ""
    assert len(lines) == len(result.events)
    for line, e in zip(lines, result.events):
        assert line == json.dumps(e, sort_keys=True, separators=(",", ":")), e


def test_fleet3_log_file_round_trips_every_record(tmp_path):
    result = _run("fleet3-0")
    path = tmp_path / "events.jsonl"
    write_event_log(path, result.events)
    assert read_event_log(path) == result.events


# Golden cases re-run in a fresh interpreter under another BLAS kernel.
HOST_CASES = ("default-0", "fleet3-0")

_HOST_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from test_golden import _digests
print(json.dumps({case: _digests(case) for case in sys.argv[2:]}))
"""


def test_golden_digests_do_not_depend_on_the_blas_kernel():
    """A run is a pure function of (scenario, seed), not of the host.

    Re-runs two golden cases with OpenBLAS forced onto its Prescott
    kernel, which has no FMA, and expects the pinned digests.  Where
    numpy is not built on OpenBLAS the variable is ignored and the test
    passes trivially.
    """
    tests_dir = str(Path(__file__).resolve().parent)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["OPENBLAS_CORETYPE"] = "Prescott"
    out = subprocess.run(
        [sys.executable, "-c", _HOST_SCRIPT, tests_dir, *HOST_CASES],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    for case in HOST_CASES:
        assert tuple(got[case]) == GOLDEN[case], case
