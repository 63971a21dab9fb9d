"""The benchmark's workloads and failure accounting, run in-process."""

import numpy as np
import pytest

from bench.worker import iteration_seed, run_iteration
from bench.workloads import ChipFC, Workload

#: Figure 7 FC cycles; they do not depend on the operand data
FC_CYCLES = 17783.836363636365


@pytest.fixture(scope="module")
def fc():
    workload = ChipFC()
    workload.setup(0)
    return workload


@pytest.mark.parametrize("seed", [0, 1])
def test_chip_fc_cycles_are_pinned_at_every_seed(fc, seed):
    ops = fc.inputs(iteration_seed(seed, 1))
    outputs = [fc.run(op) for op in ops]
    assert fc.check(ops[0], outputs[0]) is None
    assert fc.stats(outputs)["sim_cycles"] == FC_CYCLES


def test_iteration_seeds_differ_per_iteration_and_seed():
    seeds = {iteration_seed(s, i) for s in range(3) for i in range(3)}
    assert len(seeds) == 9


class CorruptFC(ChipFC):
    """The real FC kernel with one output element off by one."""

    def run(self, op):
        acc, result = super().run(op)
        result.c_t[0, 0] += 1
        return acc, result


def test_corrupted_fc_result_counts_as_one_failed_operation():
    iteration = run_iteration(CorruptFC(), seed=0, index=1)
    assert iteration.attempted == 1
    assert len(iteration.errors) == 1
    assert "int32 matmul" in iteration.errors[0]


class Flaky(Workload):
    """Three operations; the second raises, the third fails its check."""

    def inputs(self, seed):
        return [1, 2, 3]

    def run(self, op):
        if op == 2:
            raise ValueError("boom")
        return np.full(2, op)

    def check(self, op, out):
        return "wrong" if op == 3 else None


def test_raise_and_mismatch_are_counted_and_the_iteration_continues():
    iteration = run_iteration(Flaky(), seed=0, index=0)
    assert iteration.attempted == 3
    assert len(iteration.errors) == 2
    assert "ValueError: boom" in iteration.errors[0]
    assert iteration.errors[1].endswith("wrong")
    assert iteration.stats == {}     # an operation without output
