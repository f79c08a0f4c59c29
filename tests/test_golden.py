"""Golden digests: pin the event log and metrics row of fixed runs.

Each case stores the SHA-256 of ``serialize_events(result.events)`` and of
``result.metrics.csv_row()``.  A change that alters either on purpose must
re-pin the digests here and say why; a refactor must leave them alone.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from bhsim.events import serialize_events
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
        "d760c74c9aaf7fe301fd12740838ae6057460a596aefa1e010b9567daaed0c82",
        "6f6f11d612e28a998859b3093d55792df86a50e11459aa1092e4c2ea42d411c2",
    ),
    "default-1": (
        "3d8b0cae52c1c2cdcc10a08fe2ebd0f076b0f0b5550ed35da9245e87f33276b7",
        "514249ae821f79a448555b2283a2530236dee07560ebf2888cde00c68f7e257f",
    ),
    "default-2": (
        "acf8cd1431bd315279bc4c6446ffab818cfba40e5a7aa6df3e918b760d8a7bec",
        "e9f3beeb7d30df3789520438fbf6f660ce96065f3a05f9ffdfe735f2f94588af",
    ),
    "default-3": (
        "2fac7b9876ff9d62beea294823b20f9592d7e28e70b78d215919a804187f2c32",
        "eb2b999b008b87f93f633897b6cc9381461846d88caea59697da8d6dfd957bfb",
    ),
    "default-4": (
        "c7a1f8d734c37f7d1ac2158ffb2aa7e69f69efcc557c3f8f0994fbecbba44bee",
        "b76690e4613d7c164804e472b96e8cc03432ef988454489163f9486623b88c33",
    ),
    "default-zero-noise-3": (
        "bd11cf9d7380efe02d18bf3b8a23d3d42350b6a345d1be0343b3f2646bf384b7",
        "af9e9af651b7599a854a3b2bc8ef5e10d961318d2d6992c9c01a24b21e07933a",
    ),
    "fleet3-0": (
        "bf835d4366006e5b74455f1cd52edd07515c2674dae743d16ed27d09ea89855e",
        "0942f6b092126e3841f3ca4c3800e3f2a73ac18bbbbee11a9d49bed237b3eacd",
    ),
    "fleet3-1": (
        "0af6cbb27d8e7cfca96e8b8cec82a8178a2551914d439d2a09f0358a242c0c6f",
        "ddb789fa75a66cbed57b973ecf04b463559cec6f6423925737db57bc1db3c7ff",
    ),
    "fleet3-2": (
        "9b3458c46371c81b3ec41410c51808365a884ae5d6c3301a86fae6a21d86f489",
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


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_digests(case):
    result = run_simulation(_scenario(case))
    log_digest, csv_digest = GOLDEN[case]
    assert _sha256(serialize_events(result.events)) == log_digest
    assert _sha256(result.metrics.csv_row().encode("utf-8")) == csv_digest
