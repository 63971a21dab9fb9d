"""Regression pin: the fleet's observed-latency feed, byte for byte.

Hashes, with SHA-256 over canonical JSON, ``observed_latency().to_dict()``
of the ``fleet_diurnal`` fleet run (the run ``test_telemetry_pin``
pins) at seeds 0-2, plus every replica's full sketch state and every
window of its series with sketch state, at the default 5 ms window and
at 2 ms.

A mismatch means the feed's arithmetic or ingest order changed.  If that
is intended, regenerate the literals with
``python -m tests.serving.test_observed_latency_pin`` and say why in the
change.
"""

from __future__ import annotations

import json
from typing import Dict

import pytest

from tests.serving.test_telemetry_pin import SEEDS, _sha, fleet_report

WINDOWS_US = (5_000.0, 2_000.0)


def digests(seed: int) -> Dict[str, str]:
    out = {}
    for window_us in WINDOWS_US:
        feed = fleet_report(seed).observed_latency(window_us=window_us)
        key = f"w{int(window_us)}"
        out[key] = _sha(feed.to_dict())
        out[f"{key}.state"] = _sha({
            str(r): [feed.sketches[r].to_dict(),
                     feed.series[r].to_dict(include_sketch_state=True)]
            for r in sorted(feed.sketches)})
    return out


PINNED: Dict[int, Dict[str, str]] = {
    0: {
        "w5000": "593170a3ac829fbe",
        "w5000.state": "d9bdf3699c8b2e37",
        "w2000": "235fbd57f3879f7f",
        "w2000.state": "405c7f065617b5c9",
    },
    1: {
        "w5000": "2dd851ceb3b6a064",
        "w5000.state": "df6058acf1a50f23",
        "w2000": "98389e1f97ffcbb4",
        "w2000.state": "ef27fd5fa50e097c",
    },
    2: {
        "w5000": "75ea941d3bf722a6",
        "w5000.state": "e4486c67a2f54fba",
        "w2000": "d0cb66ae65399328",
        "w2000.state": "6011f48ee68a4c35",
    },
}


@pytest.mark.parametrize("seed", SEEDS)
def test_observed_latency_is_pinned(seed):
    assert digests(seed) == PINNED[seed]


if __name__ == "__main__":
    print("{")
    for seed in SEEDS:
        print(f"    {seed}: {{")
        for key, value in digests(seed).items():
            print(f"        {json.dumps(key)}: {json.dumps(value)},")
        print("    },")
    print("}")
