"""Unit tests for the AccelNASBench query interface."""

import json

import numpy as np
import pytest

from repro.core.benchmark import AccelNASBench
from repro.core.reliability import ArtifactIntegrityError
from repro.trainsim.schemes import P_STAR


@pytest.fixture(scope="module")
def bench():
    bench, reports = AccelNASBench.build(
        P_STAR,
        num_archs=250,
        devices={"a100": ("throughput",), "zcu102": ("throughput", "latency")},
        sample_seed=2,
    )
    return bench, reports


class TestBuild:
    def test_reports_cover_all_targets(self, bench):
        _, reports = bench
        assert len(reports) == 4  # accuracy + 3 perf targets
        assert reports[0].dataset == "ANB-Acc"

    def test_targets_listed(self, bench):
        b, _ = bench
        assert b.targets == [
            ("a100", "throughput"),
            ("zcu102", "latency"),
            ("zcu102", "throughput"),
        ]

    def test_meta_records_provenance(self, bench):
        b, _ = bench
        assert b.meta["scheme"] == P_STAR.to_dict()
        assert b.meta["num_archs"] == 250


class TestQuery:
    def test_accuracy_in_range(self, bench, some_archs):
        b, _ = bench
        for arch in some_archs[:10]:
            assert 0.5 < b.query_accuracy(arch) < 0.9

    def test_performance_positive(self, bench, some_archs):
        b, _ = bench
        for arch in some_archs[:5]:
            assert b.query_performance(arch, "a100", "throughput") > 0
            assert b.query_performance(arch, "zcu102", "latency") > 0

    def test_unknown_target_rejected(self, bench, some_archs):
        b, _ = bench
        with pytest.raises(KeyError):
            b.query_performance(some_archs[0], "tpuv3", "throughput")

    def test_query_bundles_both_objectives(self, bench, some_archs):
        b, _ = bench
        result = b.query(some_archs[0], device="a100")
        assert result.device == "a100"
        assert result.metric == "throughput"
        assert result.performance is not None
        accuracy_only = b.query(some_archs[0])
        assert accuracy_only.performance is None
        assert accuracy_only.metric is None

    def test_query_batch_matches_single(self, bench, some_archs):
        b, _ = bench
        batch = b.query_accuracy_batch(some_archs[:5])
        singles = [b.query_accuracy(a) for a in some_archs[:5]]
        assert np.allclose(batch, singles)

    def test_query_batch_returns_query_results(self, bench, some_archs):
        b, _ = bench
        results = b.query_batch(some_archs[:5], device="a100")
        assert len(results) == 5
        for arch, res in zip(some_archs[:5], results):
            assert res.arch == arch
            assert res.device == "a100"
            assert res.metric == "throughput"
            assert res.performance > 0
        acc_only = b.query_batch(some_archs[:3])
        assert all(r.performance is None and r.metric is None for r in acc_only)

    def test_query_encodes_arch_exactly_once(self, bench, some_archs, monkeypatch):
        """Regression: the bi-objective query used to encode twice."""
        b, _ = bench
        calls = {"n": 0}
        original = type(b.encoder).encode

        def counting_encode(self, archs):
            calls["n"] += 1
            return original(self, archs)

        monkeypatch.setattr(type(b.encoder), "encode", counting_encode)
        b.query(some_archs[0], device="a100")
        assert calls["n"] == 1
        b.query(some_archs[1])
        assert calls["n"] == 2

    def test_off_space_arch_rejected(self, bench, some_archs):
        """``e99k9L9se0`` parses but is not in the space: no made-up answer,
        and the encoder cache is left as it was."""
        from repro.searchspace.mnasnet import ArchSpec

        b, _ = bench
        bad = ArchSpec.from_string("|".join(["e99k9L9se0"] + ["e1k3L1se0"] * 6))
        b.query_batch(some_archs[:2], device="a100")
        info = b.encoder.cache_info()
        with pytest.raises(ValueError, match="stage 0 expansion=99"):
            b.query(bad, device="a100")
        with pytest.raises(ValueError, match="stage 0 expansion=99"):
            b.query_batch([some_archs[0], some_archs[40], bad], device="a100")
        with pytest.raises(ValueError, match="outside the search space"):
            b.query_accuracy(bad)
        assert b.encoder.cache_info() == info

    def test_query_correlates_with_simulated_truth(self, bench, some_archs, trainer):
        from repro.core.metrics import kendall_tau

        b, _ = bench
        archs = some_archs[:40]
        predicted = [b.query_accuracy(a) for a in archs]
        true = [trainer.expected_top1(a, P_STAR) for a in archs]
        assert kendall_tau(predicted, true) > 0.5


class TestPersistence:
    def test_save_load_roundtrip(self, bench, some_archs, tmp_path):
        b, _ = bench
        path = tmp_path / "bench.json"
        b.save(path)
        loaded = AccelNASBench.load(path)
        assert loaded.targets == b.targets
        assert loaded.meta == b.meta
        for arch in some_archs[:5]:
            assert loaded.query_accuracy(arch) == pytest.approx(
                b.query_accuracy(arch)
            )
            assert loaded.query_performance(
                arch, "zcu102", "latency"
            ) == pytest.approx(b.query_performance(arch, "zcu102", "latency"))

    def test_save_is_byte_stable(self, bench, tmp_path):
        """Saving the same benchmark twice produces identical bytes."""
        b, _ = bench
        first, second = tmp_path / "one.json", tmp_path / "two.json"
        b.save(first)
        b.save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_save_load_save_roundtrip_is_byte_stable(self, bench, tmp_path):
        """load(save(bench)) serialises back to the exact same bytes."""
        b, _ = bench
        first, second = tmp_path / "one.json", tmp_path / "two.json"
        b.save(first)
        AccelNASBench.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()


class TestArtifactIntegrity:
    def test_truncated_file_raises_clear_error(self, bench, tmp_path):
        b, _ = bench
        path = tmp_path / "bench.json"
        b.save(path)
        path.write_text(path.read_text()[: path.stat().st_size // 2])
        with pytest.raises(ArtifactIntegrityError, match="not valid JSON") as info:
            AccelNASBench.load(path)
        assert str(path) in str(info.value)

    def test_tampered_file_fails_checksum(self, bench, tmp_path):
        b, _ = bench
        path = tmp_path / "bench.json"
        b.save(path)
        envelope = json.loads(path.read_text())
        envelope["payload"]["meta"]["num_archs"] = 999999
        path.write_text(json.dumps(envelope, sort_keys=True))
        with pytest.raises(ArtifactIntegrityError, match="sha256 mismatch"):
            AccelNASBench.load(path)

    def test_wrong_schema_version_named_in_error(self, bench, tmp_path):
        b, _ = bench
        path = tmp_path / "bench.json"
        b.save(path)
        envelope = json.loads(path.read_text())
        envelope["schema_version"] = 99
        path.write_text(json.dumps(envelope, sort_keys=True))
        with pytest.raises(
            ArtifactIntegrityError, match="version 99 found, expected 1"
        ):
            AccelNASBench.load(path)

    def test_legacy_raw_payload_rejected(self, tmp_path):
        """Pre-envelope saves fail loudly instead of with a bare KeyError."""
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps({"meta": {}, "perf_models": {}}))
        with pytest.raises(ArtifactIntegrityError, match="envelope"):
            AccelNASBench.load(path)

    def test_valid_envelope_malformed_payload(self, tmp_path):
        from repro.core.benchmark import (
            BENCHMARK_SCHEMA,
            BENCHMARK_SCHEMA_VERSION,
        )
        from repro.core.reliability import write_artifact

        path = tmp_path / "bad.json"
        write_artifact(
            path, {"nonsense": 1}, BENCHMARK_SCHEMA, BENCHMARK_SCHEMA_VERSION
        )
        with pytest.raises(ArtifactIntegrityError, match="malformed benchmark"):
            AccelNASBench.load(path)

    def test_interrupted_save_preserves_previous_artifact(
        self, bench, tmp_path, monkeypatch
    ):
        import os

        b, _ = bench
        path = tmp_path / "bench.json"
        b.save(path)
        before = path.read_bytes()
        monkeypatch.setattr(
            os, "replace", lambda src, dst: (_ for _ in ()).throw(OSError("kill"))
        )
        with pytest.raises(OSError):
            b.save(path)
        assert path.read_bytes() == before
