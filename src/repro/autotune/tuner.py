"""The two-phase autotuner: cost-model ranking, DES-validated winners.

:func:`autotune` glues the pieces together the way baybe's two-phase
meta-recommender does — a cheap model proposes, measurements dispose:

1. enumerate the :class:`~repro.autotune.space.MappingSpace` for the
   shape;
2. phase 1: cost every legal candidate with the opmodel and sort by
   :meth:`~repro.autotune.cost.CostedCandidate.sort_key`
   (:func:`repro.autotune.cost.rank_space`) — the space is a few
   hundred points and a cost call takes microseconds, so phase 1 sees
   the model's exact top-k;
3. phase 2: the top-k candidates *plus the hand-written baseline* run
   through the cycle-level DES (:func:`repro.autotune.validate
   .validate_candidates`), fanning out over ``--jobs`` workers;
4. the winner is the candidate with the fewest *measured* cycles —
   never the predicted ones — and the result records the speedup over
   the hand-written mapping honestly, including when it is ≤ 1.

The JSON report is schema-pinned (``tests/golden``) and every result
carries a ``replay`` command that reproduces it byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.autotune.cost import candidate_cost, rank_space
from repro.autotune.space import MappingSpace, key_str
from repro.autotune.validate import (ValidatedCandidate, hand_candidate,
                                     validate_candidates)

SCHEMA_VERSION = 2


@dataclass
class AutotuneResult:
    """Everything one ``autotune`` invocation decided and measured."""

    shape: object
    space_size: int                         #: candidates the model costed
    validated: List[ValidatedCandidate]     #: fewest cycles first
    baseline: ValidatedCandidate            #: the hand-written mapping

    @property
    def winner(self) -> ValidatedCandidate:
        return self.validated[0]

    @property
    def speedup(self) -> float:
        """Hand-written cycles over winner cycles (>1 = tuner wins)."""
        if not self.winner.sim_cycles:
            return 0.0
        return self.baseline.sim_cycles / self.winner.sim_cycles

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
        return (f"python -m repro.autotune {spec} "
                f"--topk {len(self.validated)} --jobs 1")

    def to_dict(self) -> Dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "shape": self.shape.to_dict(),
            "search": {"space_size": self.space_size},
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


def autotune(shape, topk: int = 4, jobs: int = 1,
             space: Optional[MappingSpace] = None) -> AutotuneResult:
    """Tune ``shape``: rank the whole space, DES-validate the top ``topk``."""
    if space is None:
        space = MappingSpace(shape=shape)
    ranked = rank_space(space)
    chosen = ranked[:topk]
    keys = {cc.candidate.key() for cc in chosen}

    # The hand-written baseline rides along in the same validation batch
    # (one worker pool, same measurement path for both sides).
    hand = hand_candidate(shape, config=space.config)
    batch = list(chosen)
    if hand.key() not in keys:
        batch.append(candidate_cost(shape, hand, config=space.config))
    validated = validate_candidates(shape, batch, jobs=jobs)
    baseline = next(v for v in validated
                    if v.candidate.key() == hand.key())
    # Winner ranking considers only the model's top-k (the baseline
    # still wins the table if it is genuinely fastest and ranked there).
    return AutotuneResult(
        shape=shape, space_size=len(ranked),
        validated=[v for v in validated if v.candidate.key() in keys],
        baseline=baseline)


def render_text(result: AutotuneResult) -> str:
    """Human-readable report (the CLI's default output)."""
    shape = result.shape
    lines = [f"autotune {shape.describe()}",
             f"space: {result.space_size} legal mappings, all costed; "
             f"top {len(result.validated)} DES-validated",
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
