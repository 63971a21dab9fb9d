"""Operator shapes with an empty or negative dimension fail where they
enter the library, with a ``ValueError`` naming the argument — not deep
in the barrier code or in numpy, and never by returning a result."""

import pytest
from hypothesis import given, strategies as st

from repro.autotune.space import FCShape, TBEShape
from repro.core import Accelerator
from repro.kernels.fc import run_fc
from repro.kernels.tbe import TBEConfig

FC_DIMS = {"m": 64, "k": 64, "n": 64}
TBE_DIMS = {"num_tables": 2, "rows_per_table": 64, "embedding_dim": 16,
            "pooling_factor": 4, "batch_size": 2}

#: (constructor, a valid set of its dimension arguments)
SHAPES = [(FCShape, FC_DIMS), (TBEShape, TBE_DIMS), (TBEConfig, TBE_DIMS)]

non_positive = st.integers(max_value=0)


@pytest.mark.parametrize("make, dims", SHAPES,
                         ids=[make.__name__ for make, _ in SHAPES])
@given(data=st.data(), value=non_positive)
def test_shape_rejects_non_positive_dimension(make, dims, data, value):
    name = data.draw(st.sampled_from(sorted(dims)))
    with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
        make(**{**dims, name: value})


@pytest.fixture(scope="module")
def acc():
    return Accelerator()


@given(name=st.sampled_from(sorted(FC_DIMS)), value=non_positive)
def test_run_fc_rejects_non_positive_dimension(acc, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
        run_fc(acc, **{**FC_DIMS, name: value})
