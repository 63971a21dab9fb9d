"""Pin the determinism-style pillars' per-case details, seeds 0-2.

Every ``details`` entry of a passing determinism, cache, faults or
autotune case is recorded here: its key (the check kind), the kind the
report names, the figure it reports as ``cycles`` and an empty
violation list.  A refactor of the checks must reproduce these bytes.
The graph kind reports the fuzzed graph's modelled seconds.
"""

import pytest

from repro.conformance.runner import ConformanceConfig, run_conformance

#: (pillar, seed) -> {details key: (reported kind, reported cycles)}
PIN = {
    ("determinism", 0): {
        "sim": ("sim", 2374.090909090909),
        "graph": ("graph", 0.000558405597950334),
        "serving": ("serving", 86860.94697550547),
        "telemetry": ("telemetry", 65206.33744524981),
        "fleet": ("fleet", 412586.2046664596),
        "critical": ("critical", 2374.090909090909)},
    ("determinism", 1): {
        "sim": ("sim", 1730.090909090909),
        "graph": ("graph", 0.0009725484562939156),
        "serving": ("serving", 192541.497762119),
        "telemetry": ("telemetry", 144241.5364786035),
        "fleet": ("fleet", 16264917.55870336),
        "critical": ("critical", 1730.090909090909)},
    ("determinism", 2): {
        "sim": ("sim", 1472.090909090909),
        "graph": ("graph", 0.0003242795572086361),
        "serving": ("serving", 133074.49341507175),
        "telemetry": ("telemetry", 100196.67409046805),
        "fleet": ("fleet", 521801.62006739585),
        "critical": ("critical", 1472.090909090909)},
    ("cache", 0): {"cache": ("cache", 2374.090909090909)},
    ("cache", 1): {"cache": ("cache", 1730.090909090909)},
    ("cache", 2): {"cache": ("cache", 1472.090909090909)},
    ("faults", 0): {"faults": ("faults", 2374.090909090909)},
    ("faults", 1): {"faults": ("faults", 1730.090909090909)},
    ("faults", 2): {"faults": ("faults", 1472.090909090909)},
    ("autotune", 0): {"autotune": ("autotune", 8.0)},
    ("autotune", 1): {"autotune": ("autotune", 4.0)},
    ("autotune", 2): {"autotune": ("autotune", 8.0)},
}


@pytest.mark.parametrize("pillar", ["determinism", "cache", "faults",
                                    "autotune"])
def test_case_details_match_the_pin(pillar):
    seeds = sorted(seed for p, seed in PIN if p == pillar)
    config = ConformanceConfig(pillars=(pillar,),
                               explicit_seeds=tuple(seeds))
    report = run_conformance(config)
    for case in report.cases:
        assert case.status == "ok", case.to_dict()
        want = {key: {"seed": case.seed, "kind": kind, "cycles": cycles,
                      "violations": []}
                for key, (kind, cycles) in PIN[pillar, case.seed].items()}
        assert case.details == want
