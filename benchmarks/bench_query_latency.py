"""Bench: the zero-cost claim — benchmark queries answer in milliseconds.

The paper's pitch is that a surrogate query replaces hours of training and
measurement "within a few milliseconds".  This is the one true
microbenchmark in the harness: pytest-benchmark statistics over repeated
single-architecture queries.

``test_record_query_trajectory`` additionally appends a dated point to
``results/BENCH_query.json`` (via its own ``repro.obs.timer`` timing so it
also works under ``--benchmark-disable``), tracking query latency across PRs.
``test_record_encode_miss_trajectory`` appends the encoder's per-arch cost
for a batch of never-seen architectures (cache misses) and for the same
batch again (cache hits).
"""

import numpy as np
import pytest

import repro.obs as obs
import repro.searchspace.features as features

from repro.searchspace.mnasnet import MnasNetSearchSpace

from conftest import record_trajectory


@pytest.fixture(scope="module")
def built(ctx):
    bench = ctx.benchmark()
    space = MnasNetSearchSpace(seed=99)
    archs = space.sample_batch(64, unique=True)
    return bench, archs


def test_accuracy_query_latency(benchmark, built):
    bench, archs = built
    state = {"i": 0}

    def query():
        state["i"] = (state["i"] + 1) % len(archs)
        return bench.query_accuracy(archs[state["i"]])

    value = benchmark(query)
    assert 0.5 < value < 0.9
    # Zero-cost: well under 50 ms per query even in pure Python.
    # (stats is None under --benchmark-disable smoke runs.)
    if benchmark.stats:
        assert benchmark.stats["mean"] < 0.05


def test_biobjective_query_latency(benchmark, built):
    bench, archs = built
    state = {"i": 0}

    def query():
        state["i"] = (state["i"] + 1) % len(archs)
        return bench.query(archs[state["i"]], device="vck190")

    result = benchmark(query)
    assert result.performance > 0
    if benchmark.stats:
        assert benchmark.stats["mean"] < 0.1


def test_repeat_query_latency(benchmark, built):
    """Cache-hot path: re-querying a seen arch skips encoding entirely."""
    bench, archs = built
    arch = archs[0]
    bench.query_accuracy(arch)  # prime the encoder cache

    value = benchmark(lambda: bench.query_accuracy(arch))
    assert 0.5 < value < 0.9
    if benchmark.stats:
        assert benchmark.stats["mean"] < 0.05


def test_record_query_trajectory(built):
    """Append a dated latency point to results/BENCH_query.json."""
    bench, archs = built
    rounds = 50

    bench.encoder.cache_clear()
    with obs.timer() as warm_t:
        for _ in range(rounds):
            for arch in archs:
                bench.query_accuracy(arch)
    warm_mean = warm_t.seconds / (rounds * len(archs))

    bench.encoder.cache_clear()
    with obs.timer() as cold_t:
        for arch in archs:
            bench.query(arch, device="vck190")
    cold_bi_mean = cold_t.seconds / len(archs)

    info = bench.encoder.cache_info()
    record_trajectory(
        "query",
        {
            "accuracy_query_warm_mean_s": warm_mean,
            "biobjective_query_cold_mean_s": cold_bi_mean,
            "cache_hits": info["hits"],
            "cache_misses": info["misses"],
        },
    )
    assert warm_mean < 0.05
    assert cold_bi_mean < 0.1


# Encode-miss ceiling; the target is <= 20 us/arch (ROADMAP item 1(a)).
ENCODE_MISS_CEILING_US = 50.0


def test_record_encode_miss_trajectory(built, monkeypatch):
    """A 512-arch never-seen batch encodes from the stage tables, building
    no model; append its per-arch miss and hit cost to BENCH_query.json."""
    bench, _ = built
    encoder = bench.encoder
    archs = MnasNetSearchSpace().sample_batch(
        512, rng=np.random.default_rng(512), unique=True
    )
    encoder.encode(archs)  # fill the stage tables' configs first
    builds = {"n": 0}
    real_build = features.build_model

    def counting_build(*args, **kwargs):
        builds["n"] += 1
        return real_build(*args, **kwargs)

    monkeypatch.setattr(features, "build_model", counting_build)
    miss_s, hit_s = [], []
    for _ in range(5):
        encoder.cache_clear()
        with obs.timer() as t_miss:
            encoder.encode(archs)
        with obs.timer() as t_hit:
            encoder.encode(archs)
        miss_s.append(t_miss.seconds)
        hit_s.append(t_hit.seconds)
    info = encoder.cache_info()
    miss_us = min(miss_s) / len(archs) * 1e6
    hit_us = min(hit_s) / len(archs) * 1e6
    record_trajectory(
        "query",
        {
            "encoding": encoder.encoding,
            "encode_batch": len(archs),
            "encode_miss_us_per_arch": miss_us,
            "encode_hit_us_per_arch": hit_us,
            "encode_build_model_calls": builds["n"],
        },
    )
    assert info["misses"] == len(archs) and info["hits"] == len(archs)
    assert builds["n"] == 0
    assert miss_us <= ENCODE_MISS_CEILING_US
