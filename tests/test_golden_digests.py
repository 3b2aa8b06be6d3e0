"""Golden digests of every registered experiment's smoke artifact.

Each deterministic spec runs at smoke scale in-process and the SHA-256 of its
``artifact`` payload's canonical JSON is compared with a recorded value. This
pins placements and metrics byte-for-byte, so a redundant code path can be
deleted without keeping it alive as a live A/B oracle: if the surviving path
drifts, the digest moves.

Canonical JSON is ``sort_keys=True`` with every float rounded to 10
significant digits, so last-ulp libm differences between hosts do not trip
the pin. The payload is hashed rather than the artifact file, so recorded
``params`` may change without invalidating a digest.

When a change *intends* to move an artifact, regenerate the affected entries
with :func:`artifact_digest` and say why in the change log.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments import registry
from repro.simulator.runner import ScenarioRunner

#: Specs whose payload is not a pure function of its parameters.
#: fig17 records only wall-clock time and peak memory; backend_tournament is
#: ``deterministic=False`` (wall-clock budgets decide the exact arms).
EXCLUDED = {"fig17", "backend_tournament"}

#: ``serving_soak`` carries latency timings, so only its decision digest and
#: parity verdict are pinned (see :func:`test_serving_soak_decisions_are_pinned`).
SERVING_DECISION_DIGEST = (
    "6b57ddfa5d0e2e3c10b147e4b62e46d022530977c51b068b8dcd18ae05ab7a01")

GOLDEN = {
    "fig01": "d6c60919cef3cd5b32f2abe00196c2f872ef22030215cf755ce296c79de3061a",
    "fig02": "378f349184c2d567f7ffccdb3874d4e9a55c1320be603a1f5e1608d6dead8197",
    "fig03": "975d1cbf6f5df2f80e4237248a99a14dd90140616151dba24deee91b59898e8f",
    "fig04": "472651623c0d0aabe93c55a4b7f3ed1677865788233e5f8ae23db399a35fb5e1",
    "table1": "1a1f0fb24f75d2e10d91f7e8a29ef1b16ced7e2a513815da9df39b6c1c59ebf3",
    "fig05": "c42ad0e389f2cb4172986a3617488d7e35b1cff8f90c69c25db33075b0a9ec46",
    "fig07": "7bc2542441ec250b7c3533ca907b22a59f3a07b10bd1dc4ff1e0cf5aa2388772",
    "fig08": "aba9ebe5e0c60af63358d2049e5e62a9b5172111447a6933e1f3c610dbb524e8",
    "fig09": "4be3a3162c3813e6e511d92837039e0c1ec6acdb7a7fdd1d5ea176d90e9f6a46",
    "fig10": "8149c7213e3a0209602d8367db3d10d07d83ad9cb93ef95ea2cfe1347d613e8e",
    "fig11": "b225d713120e102589df93d61cedd3ea8d4faee33932dbb68c2b98bb9eb1b8b2",
    "fig12": "b7b6804280cd682c2039008c55c2bcda4a4ee7fc077536fe378e6960a177cf24",
    "fig13": "9e0728c54f90f3a4ec6d15a64eb938ff7f88fdf55383fc6411c0ae1127884bcb",
    "fig14": "9c0b485e0efc4aad3811460415f8fa2e4920558d267e1a86b529de0f032b1fba",
    "fig15": "10f24abfb52b5c38517b166e7309c26fb2ed1207637c8d36d39f81e0a8cd7ab1",
    "fig16": "993da5c5a80b48bd2841e4f38c4299f94d36881d82205b3383fa1f7423c288ac",
    "planetary_sweep":
        "26375a29eba3cd9e4ebc2b7363ca3698d27a9e4375fe2c23f9ef92a884177c47",
    "planetary_sweep_xl":
        "23c60aa7679b2a80525dce576050c67a181cf45a56d287ecdb78d29ae4a06659",
}


def _canonical(value: object) -> object:
    """Round floats to 10 significant digits, recursively."""
    if isinstance(value, float):
        return float(format(value, ".10g"))
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_canonical(item) for item in value]
    return value


def artifact_digest(artifact: dict[str, object]) -> str:
    """SHA-256 of an artifact payload's canonical JSON."""
    blob = json.dumps(_canonical(artifact), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def test_every_registered_spec_is_pinned_or_excluded():
    pinned = set(GOLDEN) | {"serving_soak"} | EXCLUDED
    assert pinned == set(registry.names())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_smoke_artifact_matches_golden_digest(name):
    result = ScenarioRunner(smoke=True).run_one(name)
    assert artifact_digest(result.artifact) == GOLDEN[name]


def test_serving_soak_decisions_are_pinned():
    artifact = ScenarioRunner(smoke=True).run_one("serving_soak").artifact
    assert artifact["serving"]["decision_digest"] == SERVING_DECISION_DIGEST
    assert artifact["parity"]["ok"] is True
