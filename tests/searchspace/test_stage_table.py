"""Exactness and laziness of the per-stage FLOP/param tables."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.searchspace.features as features
import repro.searchspace.model_builder as model_builder
import repro.searchspace.stage_table as stage_table
from repro.nn.counters import count_graph
from repro.searchspace.features import FeatureEncoder
from repro.searchspace.mnasnet import (
    DECISIONS,
    NUM_STAGES,
    ArchSpec,
    MnasNetSearchSpace,
)
from repro.searchspace.model_builder import build_model
from repro.searchspace.stage_table import (
    NUM_CONFIGS,
    StageTable,
    arch_configs,
)

CONFIGS = list(MnasNetSearchSpace().enumerate_stage_configs())


def with_stage(arch: ArchSpec, stage: int, config) -> ArchSpec:
    fields = arch.to_dict_tuples()
    for (name, _), value in zip(DECISIONS, config):
        values = list(fields[name])
        values[stage] = value
        fields[name] = tuple(values)
    return ArchSpec(**fields)


@pytest.fixture
def build_calls(monkeypatch):
    """Count the probe builds a table makes."""
    calls = []
    real = model_builder.build_model

    def counting(arch, *args, **kwargs):
        calls.append(arch)
        return real(arch, *args, **kwargs)

    monkeypatch.setattr(model_builder, "build_model", counting)
    return calls


def test_config_index_order_matches_enumeration():
    assert NUM_CONFIGS == len(CONFIGS) == 36
    archs = [ArchSpec(*(tuple([v] * NUM_STAGES) for v in c)) for c in CONFIGS]
    expected = np.repeat(np.arange(NUM_CONFIGS)[:, None], NUM_STAGES, axis=1)
    assert np.array_equal(arch_configs(archs), expected)


def test_every_cell_exact_in_random_contexts(space):
    """All 7 x 36 (stage, config) cells, each in two random contexts."""
    archs = []
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        for stage in range(NUM_STAGES):
            for config in CONFIGS:
                archs.append(with_stage(space.sample(rng), stage, config))
    flops, params = StageTable().totals(arch_configs(archs))
    assert flops.dtype == params.dtype == np.int64
    counted = [count_graph(build_model(a)) for a in archs]
    assert flops.tolist() == [c.flops for c in counted]
    assert params.tolist() == [c.params for c in counted]


def test_flops_for_is_totals_as_float(some_archs):
    table = StageTable()
    flops = table.flops_for(some_archs)
    assert flops.dtype == np.float64
    assert np.array_equal(flops, table.totals(arch_configs(some_archs))[0])
    assert flops.tolist() == [
        float(count_graph(build_model(a)).flops) for a in some_archs
    ]


def test_first_query_builds_once(build_calls):
    """A one-arch first query fills its seven cells from one build."""
    arch = ArchSpec.from_string(
        "e1k3L1se0|e6k5L2se1|e6k5L2se1|e4k3L3se0|e1k3L1se0|e6k5L2se1|e4k3L3se0"
    )
    table = StageTable()
    table.totals(arch_configs([arch]))
    assert build_calls == [arch]
    table.totals(arch_configs([arch]))
    assert len(build_calls) == 1


def test_large_batch_costs_at_most_one_probe_per_config(build_calls, space):
    archs = space.sample_batch(200, rng=np.random.default_rng(9), unique=True)
    StageTable().totals(arch_configs(archs))
    assert len(build_calls) <= NUM_CONFIGS
    assert all(len(set(a.to_string().split("|"))) == 1 for a in build_calls)


def test_rows_from_any_context_equal_uniform_probe_rows(some_archs):
    """The premise of the table: a stage's layers depend only on its own
    decisions, so rows sliced from a real arch equal uniform-probe rows."""
    from_arch, uniform = StageTable(), StageTable()
    arch = some_archs[0]
    from_arch.totals(arch_configs([arch]))
    for stage in range(NUM_STAGES):
        config = [getattr(arch, name)[stage] for name, _ in DECISIONS]
        assert from_arch.stage_layers(stage, *config) == uniform.stage_layers(
            stage, *config
        )
    assert from_arch.stem_layers() == uniform.stem_layers()
    assert from_arch.head_layers() == uniform.head_layers()


def test_off_space_arch_rejected():
    effnet_like = ArchSpec.from_string(
        "e1k3L1se1|e6k3L2se1|e6k5L2se1|e6k3L3se1|e6k5L3se1|e6k5L4se1|e6k3L1se1"
    )
    with pytest.raises(ValueError, match=r"stage 5 layers=4"):
        StageTable().flops_for([effnet_like])


_stage = st.tuples(*(st.sampled_from(choices) for _, choices in DECISIONS))
_archs = st.lists(
    st.lists(_stage, min_size=NUM_STAGES, max_size=NUM_STAGES).map(
        lambda stages: ArchSpec(*(tuple(col) for col in zip(*stages)))
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=40, deadline=None)
@given(archs=_archs)
def test_batch_encode_bit_identical_to_scalar_oracle(archs):
    enc = FeatureEncoder("onehot+global")
    batch = enc.encode(archs)
    oracle = np.stack([enc.encode_one(a) for a in archs])
    assert batch.tobytes() == oracle.tobytes()


def test_encode_builds_no_model(monkeypatch, space):
    archs = space.sample_batch(64, rng=np.random.default_rng(2024), unique=True)
    ref = FeatureEncoder("onehot+global")
    oracle = np.stack([ref.encode_one(a) for a in archs])

    def forbidden(*args, **kwargs):
        raise AssertionError("encode built a model")

    monkeypatch.setattr(features, "build_model", forbidden)
    monkeypatch.setattr(features, "count_graph", forbidden)
    X = FeatureEncoder("onehot+global").encode(archs)
    assert X.tobytes() == oracle.tobytes()


def test_concurrent_first_encodes_identical(monkeypatch, space):
    """Eight threads race to fill a fresh shared table."""
    archs = space.sample_batch(64, rng=np.random.default_rng(77), unique=True)
    ref = FeatureEncoder("onehot+global")
    oracle = np.stack([ref.encode_one(a) for a in archs])
    monkeypatch.setattr(stage_table, "_TABLES", {})
    barrier = threading.Barrier(8, timeout=60)
    results: list = [None] * 8

    def worker(i: int) -> None:
        enc = FeatureEncoder("onehot+global")
        barrier.wait()
        results[i] = enc.encode(archs)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for X in results:
        assert X.tobytes() == oracle.tobytes()
