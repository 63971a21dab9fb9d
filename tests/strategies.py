"""Shared hypothesis strategies for property and conformance suites.

Extracted from ``tests/property/*`` so the same shape/dtype/CB
vocabulary drives both the focused property tests and the differential
conformance suite.  Keep strategies here *data-only* (no Accelerator
construction) so importing this module stays cheap.
"""

from hypothesis import strategies as st

# -- circular buffers --------------------------------------------------------

#: push/pop command streams against a 256-byte CB.
cb_op_lists = st.lists(
    st.tuples(st.sampled_from(["push", "pop"]),
              st.integers(min_value=1, max_value=64)),
    max_size=60)

#: (offset, nbytes) pairs for non-destructive CB reads.
cb_offset_reads = st.tuples(st.integers(0, 200), st.integers(1, 56))

# -- memory hierarchy --------------------------------------------------------

#: address streams for cache-stats invariants.
cache_addresses = st.lists(st.integers(0, 1 << 16), min_size=1,
                           max_size=200)

#: address streams small enough to re-walk fully from a warm cache.
small_cache_addresses = st.lists(st.integers(0, 1 << 14), min_size=1,
                                 max_size=100)

#: (addr, blob) writes against a 512-KiB sparse backing store.
backing_store_writes = st.lists(
    st.tuples(st.integers(0, 1 << 18),
              st.binary(min_size=1, max_size=300)),
    min_size=1, max_size=30)

# -- dtypes / quantisation ---------------------------------------------------

#: float payloads plus an INT8 quantisation scale.
quant_values = st.lists(st.floats(-1e3, 1e3, allow_nan=False),
                        min_size=1, max_size=100)
quant_scales = st.floats(1e-3, 10.0)

#: float payloads inside bf16's comfortable range.
bf16_values = st.lists(st.floats(-100, 100, allow_nan=False),
                       min_size=1, max_size=64)

# -- kernels -----------------------------------------------------------------

#: FC shapes that tile onto a single PE (TILE_MN=64, TILE_K=32).
fc_m = st.sampled_from([64, 128])
fc_k = st.sampled_from([32, 64, 96])
fc_n = st.sampled_from([64, 128])

#: seeds for operand generation — also the conformance fuzzer's domain.
seeds = st.integers(0, 2 ** 16)

#: wider seed space for the graph fuzzer (any uint32 works).
fuzz_seeds = st.integers(0, 2 ** 32 - 1)

# -- firmware allocator ------------------------------------------------------

#: alloc/free request streams for the sub-grid allocator.
allocator_requests = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(1, 8), st.integers(1, 8)),
        st.tuples(st.just("free"), st.integers(0, 30), st.integers(0, 0)),
    ),
    max_size=40)

allocator_clusters = st.sampled_from([1, 2, 4])

# -- engine ------------------------------------------------------------------

event_delays = st.lists(st.integers(0, 1000), min_size=1, max_size=50)
resource_amounts = st.lists(st.integers(1, 100), min_size=1, max_size=30)
resource_rates = st.integers(1, 50)


@st.composite
def engine_programs(draw):
    """Random process programs for the DES-kernel equivalence test.

    Returns ``(n_events, programs)`` where each program is a list of
    actions interpreted by ``tests/property/test_engine_equivalence.py``
    against both the production engine (deque fast-path) and a
    straight-heap reference.  Zero delays are deliberately common: they
    are exactly the traffic the fast-path reroutes.
    """
    n_events = draw(st.integers(1, 3))
    n_programs = draw(st.integers(1, 4))
    action = st.one_of(
        st.tuples(st.just("delay"), st.integers(0, 3)),
        st.tuples(st.just("timeout"), st.integers(0, 2)),
        st.tuples(st.just("trigger"), st.integers(0, n_events - 1)),
        st.tuples(st.just("fail"), st.integers(0, n_events - 1)),
        st.tuples(st.just("wait"), st.integers(0, n_events - 1)),
        st.tuples(st.just("spawn"), st.integers(0, n_programs - 1)),
    )
    programs = draw(st.lists(st.lists(action, min_size=1, max_size=6),
                             min_size=n_programs, max_size=n_programs))
    return n_events, programs


#: optional run() horizon for the equivalence test.
engine_untils = st.one_of(st.none(), st.integers(0, 6))

# -- KNYFE pipelines ---------------------------------------------------------

_FP32_STAGES = ["quantize", "tanh", "relu", "sigmoid", "binary"]


@st.composite
def knyfe_pipelines(draw):
    """A random, type-correct KNYFE stage sequence starting from a load.

    Returns ``(load_dtype, stages)``; ``dequantize`` is forced whenever
    the running dtype is INT8, mirroring the SE's type rules.
    """
    start_int8 = draw(st.booleans())
    dtype = "int8" if start_int8 else "fp32"
    stages = []
    for _ in range(draw(st.integers(1, 4))):
        if dtype == "int8":
            stage = "dequantize"
            dtype = "fp32"
        else:
            stage = draw(st.sampled_from(_FP32_STAGES))
            if stage == "quantize":
                dtype = "int8"
        stages.append(stage)
    return ("int8" if start_int8 else "fp32"), stages


# -- fault injection ---------------------------------------------------------

#: serving-domain fault horizon for the chaos property tests; matches a
#: ~300-request run at 20k qps (15 ms span) with room past the tail.
FAULT_HORIZON_US = 30_000.0


@st.composite
def fault_plans(draw, num_cards=4):
    """A random serving-domain :class:`FaultPlan` over a short horizon.

    Draws ``card.failure`` / ``card.slowdown`` windows (including
    wildcard targets and the occasional permanent failure) so the
    resilient-serving properties — seed-replay determinism, the
    attribution invariant, availability monotonicity — are exercised
    across outage shapes the scenario presets never produce.
    """
    from repro.faults import PERMANENT, FaultEvent, FaultPlan

    events = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["card.failure", "card.slowdown"]))
        start = draw(st.floats(0.0, FAULT_HORIZON_US))
        duration = draw(st.floats(50.0, 8_000.0))
        if kind == "card.failure" and draw(st.sampled_from([0, 0, 0, 1])):
            duration = PERMANENT
        target = draw(st.integers(-1, num_cards - 1))
        magnitude = (draw(st.floats(1.0, 5.0))
                     if kind == "card.slowdown" else 0.0)
        events.append(FaultEvent(start=start, kind=kind, target=target,
                                 duration=duration, magnitude=magnitude))
    return FaultPlan(events=tuple(events))


@st.composite
def hardware_fault_plans(draw):
    """A random hardware-domain plan for determinism-under-replay.

    Uses :meth:`FaultPlan.generate` so the draw is a pure function of
    the seed; the strategy only picks the seed and the kind subset.
    """
    from repro.faults import HARDWARE_KINDS, FaultPlan, FaultProfile

    seed = draw(st.integers(0, 2 ** 16))
    kinds = draw(st.sets(st.sampled_from(HARDWARE_KINDS), min_size=1))
    profile = FaultProfile(horizon_cycles=30_000.0,
                           rates={k: 2.0 for k in kinds})
    return FaultPlan.generate(seed, profile, kinds=tuple(sorted(kinds)))


# -- autotune ----------------------------------------------------------------

@st.composite
def fc_mapping_shapes(draw):
    """FC shape families with at least one legal mapping each.

    Multiples of the 64/32 tile sizes by construction, small enough
    that enumerating the whole :class:`MappingSpace` stays cheap.
    """
    from repro.autotune.space import FCShape
    return FCShape(m=64 * draw(st.sampled_from([1, 2, 4, 8])),
                   k=32 * draw(st.integers(1, 8)),
                   n=64 * draw(st.sampled_from([1, 2, 4])),
                   dtype=draw(st.sampled_from(["int8", "fp16"])))


@st.composite
def tbe_mapping_shapes(draw):
    """TBE shape families (Figure 12 triplets + batch), enumeration-cheap."""
    from repro.autotune.space import TBEShape
    return TBEShape(num_tables=draw(st.integers(1, 8)),
                    rows_per_table=draw(st.sampled_from([64, 256, 1024])),
                    embedding_dim=draw(st.sampled_from([32, 64, 128])),
                    pooling_factor=draw(st.integers(1, 32)),
                    batch_size=draw(st.sampled_from([4, 16, 32])))


@st.composite
def mapping_shapes(draw):
    """Either operator family, for family-agnostic properties."""
    if draw(st.booleans()):
        return draw(fc_mapping_shapes())
    return draw(tbe_mapping_shapes())


@st.composite
def mapping_candidates(draw):
    """(shape, candidate) with the candidate drawn from the legal set."""
    from repro.autotune.space import MappingSpace
    shape = draw(mapping_shapes())
    space = MappingSpace(shape=shape)
    candidates = space.candidates()
    return shape, candidates[draw(st.integers(0, len(candidates) - 1))]


# -- conformance -------------------------------------------------------------

#: op-family subsets for the graph fuzzer; "fc" is always included so
#: every generated graph has at least one dense operator to fuse into.
@st.composite
def fuzzer_op_subsets(draw):
    from repro.conformance.fuzzer import OP_FAMILIES
    extras = draw(st.sets(st.sampled_from(
        [f for f in OP_FAMILIES if f != "fc"])))
    return tuple(["fc"] + sorted(extras))
