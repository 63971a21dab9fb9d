"""Operator shapes with an empty or negative dimension, and campaign or
conformance configs with no seeds, requests, cards or load, fail where
they enter the library, with a ``ValueError`` naming the argument —
not deep in the barrier code or in numpy, and never by returning a
result."""

import pytest
from hypothesis import given, strategies as st

from repro.autotune.space import FCShape, TBEShape
from repro.conformance.runner import ConformanceConfig
from repro.core import Accelerator
from repro.faults.campaign import CampaignConfig
from repro.kernels.fc import run_fc
from repro.kernels.tbe import TBEConfig

FC_DIMS = {"m": 64, "k": 64, "n": 64}
TBE_DIMS = {"num_tables": 2, "rows_per_table": 64, "embedding_dim": 16,
            "pooling_factor": 4, "batch_size": 2}

#: (constructor, a valid set of its dimension arguments)
SHAPES = [(FCShape, FC_DIMS), (TBEShape, TBE_DIMS), (TBEConfig, TBE_DIMS)]

#: (config, a field that counts cases or cards)
CONFIG_COUNTS = [(CampaignConfig, "seeds"), (CampaignConfig, "requests"),
                 (CampaignConfig, "cards"), (ConformanceConfig, "seeds")]

non_positive = st.integers(max_value=0)


@pytest.mark.parametrize("make, dims", SHAPES,
                         ids=[make.__name__ for make, _ in SHAPES])
@given(data=st.data(), value=non_positive)
def test_shape_rejects_non_positive_dimension(make, dims, data, value):
    name = data.draw(st.sampled_from(sorted(dims)))
    with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
        make(**{**dims, name: value})


@pytest.mark.parametrize("make, name", CONFIG_COUNTS,
                         ids=[f"{make.__name__}.{name}"
                              for make, name in CONFIG_COUNTS])
@given(value=non_positive)
def test_config_rejects_non_positive_count(make, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
        make(**{name: value})


@pytest.mark.parametrize("qps", [0.0, -5.0, float("inf"), float("nan")])
def test_campaign_config_rejects_a_non_positive_load(qps):
    with pytest.raises(ValueError, match="^qps must be finite and > 0"):
        CampaignConfig(qps=qps)


def test_conformance_config_rejects_an_empty_replay():
    with pytest.raises(ValueError, match="^explicit_seeds must name at least one"):
        ConformanceConfig(explicit_seeds=())


@pytest.fixture(scope="module")
def acc():
    return Accelerator()


@given(name=st.sampled_from(sorted(FC_DIMS)), value=non_positive)
def test_run_fc_rejects_non_positive_dimension(acc, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
        run_fc(acc, **{**FC_DIMS, name: value})
