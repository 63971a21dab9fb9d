"""The two-phase autotuner: cost-model search, DES-validated winners.

:func:`autotune` glues the pieces together the way baybe's two-phase
meta-recommender does — a cheap model proposes, measurements dispose:

1. enumerate the :class:`~repro.autotune.space.MappingSpace` for the
   shape;
2. phase 1: seeded beam + evolutionary search under the opmodel cost
   (:func:`repro.autotune.search.run_search`), producing a replayable
   :class:`~repro.autotune.search.SearchTrace`;
3. phase 2: the top-k survivors *plus the hand-written baseline* run
   through the cycle-level DES (:func:`repro.autotune.validate
   .validate_candidates`), fanning out over ``--jobs`` workers;
4. the winner is the candidate with the fewest *measured* cycles —
   never the predicted ones — and the result records the speedup over
   the hand-written mapping honestly, including when it is ≤ 1.

Multi-seed runs (``--seeds``) repeat phase 1 with consecutive seeds and
pool the distinct survivors before the single phase-2 pass, so extra
seeds only cost cheap model evaluations, not simulations.

The JSON report is schema-pinned (``tests/golden``) and every result
carries a ``replay`` command that reproduces it byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.autotune.search import (SearchConfig, SearchResult, key_str,
                                   run_search)
from repro.autotune.space import MappingCandidate, MappingSpace
from repro.autotune.validate import (ValidatedCandidate, hand_candidate,
                                     validate_candidates)

SCHEMA_VERSION = 1


@dataclass
class AutotuneResult:
    """Everything one ``autotune`` invocation decided and measured."""

    shape: object
    seeds: List[int]
    config: SearchConfig
    searches: List[SearchResult]
    validated: List[ValidatedCandidate]     #: fewest cycles first
    baseline: ValidatedCandidate            #: the hand-written mapping
    jobs: int = 1

    @property
    def winner(self) -> ValidatedCandidate:
        return self.validated[0]

    @property
    def speedup(self) -> float:
        """Hand-written cycles over winner cycles (>1 = tuner wins)."""
        if not self.winner.sim_cycles:
            return 0.0
        return self.baseline.sim_cycles / self.winner.sim_cycles

    @property
    def space_size(self) -> int:
        return self.searches[0].trace.space_size

    def replay_command(self) -> str:
        shape = self.shape
        if shape.family == "fc":
            spec = (f"fc --m {shape.m} --k {shape.k} --n {shape.n} "
                    f"--dtype {shape.dtype}")
        else:
            spec = (f"tbe --tables {shape.num_tables} "
                    f"--rows {shape.rows_per_table} "
                    f"--dim {shape.embedding_dim} "
                    f"--pooling {shape.pooling_factor} "
                    f"--batch {shape.batch_size}")
        seeds = (f"--seed {self.seeds[0]}" if len(self.seeds) == 1
                 else f"--seed {self.seeds[0]} --seeds {len(self.seeds)}")
        return (f"python -m repro.autotune {spec} {seeds} "
                f"--budget {self.config.budget} --topk "
                f"{len(self.validated)} --jobs 1")

    def to_dict(self) -> Dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "shape": self.shape.to_dict(),
            "seeds": list(self.seeds),
            "search": {
                "config": self.config.to_dict(),
                "space_size": self.space_size,
                "budget_used": [s.trace.budget_used for s in self.searches],
                "trace_digests": [s.trace.digest() for s in self.searches],
            },
            "validated": [
                {"candidate": v.candidate.to_dict(),
                 "key": key_str(v.candidate),
                 "predicted_s": v.predicted_s,
                 "sim_cycles": v.sim_cycles,
                 "sim_seconds": v.sim_seconds}
                for v in self.validated],
            "baseline": {
                "candidate": self.baseline.candidate.to_dict(),
                "key": key_str(self.baseline.candidate),
                "sim_cycles": self.baseline.sim_cycles,
                "sim_seconds": self.baseline.sim_seconds,
            },
            "winner": {
                "candidate": self.winner.candidate.to_dict(),
                "key": key_str(self.winner.candidate),
                "sim_cycles": self.winner.sim_cycles,
                "speedup_vs_hand": self.speedup,
                "beats_hand": self.winner.sim_cycles
                < self.baseline.sim_cycles,
            },
            "replay": self.replay_command(),
        }


def autotune(shape, seed: int = 0, seeds: int = 1, budget: int = 200,
             topk: int = 4, jobs: int = 1,
             space: Optional[MappingSpace] = None,
             search_config: Optional[SearchConfig] = None
             ) -> AutotuneResult:
    """Tune ``shape``; deterministic in (seed, seeds, budget, topk)."""
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds!r}")
    if space is None:
        space = MappingSpace(shape=shape)
    seed_list = [seed + i for i in range(seeds)]
    searches: List[SearchResult] = []
    for s in seed_list:
        config = (search_config if search_config is not None
                  else SearchConfig(seed=s, budget=budget))
        if config.seed != s:
            config = SearchConfig(**{**config.to_dict(), "seed": s})
        searches.append(run_search(space, config))

    # Pool distinct phase-1 survivors across seeds, preserving rank.
    chosen: List = []
    seen = set()
    rank = 0
    while len(chosen) < topk:
        progressed = False
        for result in searches:
            if rank < len(result.ranked):
                progressed = True
                cc = result.ranked[rank]
                key = cc.candidate.key()
                if key not in seen and len(chosen) < topk:
                    seen.add(key)
                    chosen.append(cc)
        if not progressed:
            break
        rank += 1

    # The hand-written baseline rides along in the same validation batch
    # (one worker pool, same measurement path for both sides).
    from repro.autotune.cost import candidate_cost
    hand = hand_candidate(shape, config=space.config)
    batch = list(chosen)
    if hand.key() not in seen:
        batch.append(candidate_cost(shape, hand, config=space.config))
    validated = validate_candidates(shape, batch, jobs=jobs)
    by_key = {key_str(v.candidate): v for v in validated}
    baseline = by_key[key_str(hand)]
    # Winner ranking considers only the searched survivors (the baseline
    # still wins the table if it is genuinely fastest and was searched).
    searched = [v for v in validated
                if v.candidate.key() in seen]
    final_config = (search_config if search_config is not None
                    else SearchConfig(seed=seed_list[0], budget=budget))
    return AutotuneResult(shape=shape, seeds=seed_list,
                          config=final_config, searches=searches,
                          validated=searched, baseline=baseline,
                          jobs=jobs)


def render_text(result: AutotuneResult) -> str:
    """Human-readable report (the CLI's default output)."""
    shape = result.shape
    lines = [f"autotune {shape.describe()}",
             f"space: {result.space_size} legal mappings; "
             f"budget used: "
             f"{sum(s.trace.budget_used for s in result.searches)} "
             f"cost evals over {len(result.seeds)} seed(s)",
             "",
             f"{'mapping':<32} {'predicted_us':>12} {'sim_cycles':>12} "
             f"{'vs hand':>8}"]
    base = result.baseline.sim_cycles
    for v in result.validated:
        ratio = base / v.sim_cycles if v.sim_cycles else 0.0
        lines.append(f"{v.candidate.describe():<32} "
                     f"{v.predicted_s * 1e6:>12.2f} "
                     f"{v.sim_cycles:>12.2f} {ratio:>7.2f}x")
    lines.append(f"{'hand: ' + result.baseline.candidate.describe():<32} "
                 f"{'-':>12} {base:>12.2f} {1.0:>7.2f}x")
    verdict = ("BEATS hand-written" if result.winner.sim_cycles < base
               else "does NOT beat hand-written")
    lines += ["",
              f"winner: {result.winner.candidate.describe()} "
              f"({result.speedup:.2f}x vs hand; {verdict})",
              f"replay: {result.replay_command()}"]
    return "\n".join(lines)
