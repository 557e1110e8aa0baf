"""Unit tests for surrogate feature encodings."""

import numpy as np
import pytest

from repro.searchspace.features import ENCODINGS, FeatureEncoder
from repro.searchspace.mnasnet import NUM_STAGES


class TestWidths:
    def test_onehot_width(self):
        assert FeatureEncoder("onehot").num_features == NUM_STAGES * 10

    def test_integer_width(self):
        assert FeatureEncoder("integer").num_features == NUM_STAGES * 4

    def test_global_width(self):
        assert FeatureEncoder("onehot+global").num_features == NUM_STAGES * 10 + 4

    def test_unknown_encoding_rejected(self):
        with pytest.raises(ValueError, match="unknown encoding"):
            FeatureEncoder("fourier")


class TestEncodeOne:
    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_shape_and_dtype(self, encoding, some_archs):
        enc = FeatureEncoder(encoding)
        row = enc.encode_one(some_archs[0])
        assert row.shape == (enc.num_features,)
        assert row.dtype == np.float64

    def test_onehot_groups_sum_to_one(self, some_archs):
        enc = FeatureEncoder("onehot")
        row = enc.encode_one(some_archs[0])
        # 28 decision groups with sizes 3,2,3,2 repeating.
        sizes = [3, 2, 3, 2] * NUM_STAGES
        pos = 0
        for size in sizes:
            assert row[pos : pos + size].sum() == 1.0
            pos += size

    def test_integer_encoding_carries_raw_values(self, some_archs):
        arch = some_archs[0]
        row = FeatureEncoder("integer").encode_one(arch)
        assert row[0] == arch.expansion[0]
        assert row[1] == arch.kernel[0]
        assert row[2] == arch.layers[0]
        assert row[3] == arch.se[0]

    def test_global_features_finite_and_ordered(self, tiny_arch, big_arch):
        enc = FeatureEncoder("onehot+global")
        small = enc.encode_one(tiny_arch)[-4:]
        big = enc.encode_one(big_arch)[-4:]
        assert np.all(np.isfinite(small))
        assert big[0] > small[0]  # log flops
        assert big[1] > small[1]  # log params
        assert big[2] > small[2]  # depth
        assert big[3] > small[3]  # SE count


class TestEncodeBatch:
    def test_batch_matches_rows(self, some_archs):
        enc = FeatureEncoder("onehot")
        X = enc.encode(some_archs[:10])
        assert X.shape == (10, enc.num_features)
        for i, arch in enumerate(some_archs[:10]):
            assert np.array_equal(X[i], enc.encode_one(arch))

    def test_empty_batch(self):
        enc = FeatureEncoder("onehot")
        assert enc.encode([]).shape == (0, enc.num_features)

    def test_distinct_archs_distinct_rows(self, some_archs):
        enc = FeatureEncoder("onehot")
        X = enc.encode(some_archs[:20])
        assert len(np.unique(X, axis=0)) == 20

    def test_feature_names_align(self):
        for encoding in ENCODINGS:
            enc = FeatureEncoder(encoding)
            assert len(enc.feature_names()) == enc.num_features

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_vectorised_batch_matches_scalar_reference(self, encoding, some_archs):
        """The cached/vectorised batch path is bit-identical to encode_one."""
        enc = FeatureEncoder(encoding)
        X = enc.encode(some_archs[:30])
        ref = np.stack([enc.encode_one(a) for a in some_archs[:30]])
        assert (X == ref).all()

    def test_duplicate_archs_share_rows(self, some_archs):
        enc = FeatureEncoder("onehot")
        X = enc.encode([some_archs[0], some_archs[1], some_archs[0]])
        assert np.array_equal(X[0], X[2])


class TestEncoderCache:
    def test_repeat_encode_hits_cache(self, some_archs):
        enc = FeatureEncoder("onehot")
        first = enc.encode(some_archs[:10])
        info = enc.cache_info()
        assert info["misses"] == 10 and info["hits"] == 0
        second = enc.encode(some_archs[:10])
        info = enc.cache_info()
        assert info["hits"] == 10 and info["misses"] == 10
        assert (first == second).all()

    def test_partial_overlap_encodes_only_missing(self, some_archs):
        enc = FeatureEncoder("onehot")
        enc.encode(some_archs[:5])
        enc.encode(some_archs[:8])
        info = enc.cache_info()
        assert info["misses"] == 8
        assert info["hits"] == 5

    def test_lru_eviction_bounds_size(self, some_archs):
        enc = FeatureEncoder("onehot", cache_size=4)
        enc.encode(some_archs[:12])
        info = enc.cache_info()
        assert info["size"] == 4
        # Most recent survive; evicted archs re-encode with identical rows.
        again = enc.encode(some_archs[:12])
        assert (again == enc.encode(some_archs[:12])).all()

    def test_cache_disabled(self, some_archs):
        enc = FeatureEncoder("onehot", cache_size=0)
        X = enc.encode(some_archs[:6])
        assert enc.cache_info()["size"] == 0
        ref = np.stack([enc.encode_one(a) for a in some_archs[:6]])
        assert (X == ref).all()

    def test_cache_clear_resets_counters(self, some_archs):
        enc = FeatureEncoder("onehot")
        enc.encode(some_archs[:3])
        enc.cache_clear()
        info = enc.cache_info()
        assert info == {"hits": 0, "misses": 0, "size": 0, "capacity": enc.cache_size}

    def test_cached_rows_are_immutable(self, some_archs):
        enc = FeatureEncoder("onehot")
        enc.encode(some_archs[:1])
        row = enc._cache[some_archs[0]]
        assert not row.flags.writeable

    def test_negative_cache_size_rejected(self):
        with pytest.raises(ValueError, match="cache_size"):
            FeatureEncoder("onehot", cache_size=-1)

    def test_thread_safety_under_concurrent_encodes(self, some_archs):
        import concurrent.futures

        enc = FeatureEncoder("onehot", cache_size=32)
        ref = np.stack([enc.encode_one(a) for a in some_archs])

        def worker(offset: int) -> bool:
            sub = some_archs[offset : offset + 20]
            X = enc.encode(sub)
            return bool((X == ref[offset : offset + 20]).all())

        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            assert all(pool.map(worker, [0, 10, 20, 30]))


OFF_SPACE = "e1k3L1se0|e1k3L1se0|e99k9L9se0|e1k3L1se0|e1k3L1se0|e1k3L1se0|e1k3L1se0"


class TestOffSpaceRejected:
    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_batch_and_scalar_name_arch_stage_and_field(self, encoding, some_archs):
        from repro.searchspace.mnasnet import ArchSpec

        enc = FeatureEncoder(encoding)
        bad = ArchSpec.from_string(OFF_SPACE)
        pattern = rf"'{OFF_SPACE}'.*stage 2 expansion=99"
        with pytest.raises(ValueError, match=pattern):
            enc.encode([some_archs[0], bad])
        with pytest.raises(ValueError, match=pattern):
            enc.encode_one(bad)
        with pytest.raises(ValueError, match=pattern):
            FeatureEncoder(encoding, cache_size=0).encode([bad])

    def test_decision_beyond_int64_is_off_space(self, some_archs):
        from repro.searchspace.mnasnet import ArchSpec

        huge = ArchSpec.from_string(OFF_SPACE.replace("e99", f"e{2**70 + 1}"))
        with pytest.raises(ValueError, match="outside the search space"):
            FeatureEncoder("onehot+global").encode([some_archs[0], huge])

    def test_rejected_batch_leaves_cache_untouched(self, some_archs):
        from repro.searchspace.mnasnet import ArchSpec

        enc = FeatureEncoder("onehot+global", cache_size=4)
        enc.encode(some_archs[:4])
        enc.encode(some_archs[:1])
        info, order = enc.cache_info(), list(enc._cache)
        bad = ArchSpec.from_string(OFF_SPACE)
        with pytest.raises(ValueError):
            enc.encode([some_archs[1], some_archs[10], bad])
        assert enc.cache_info() == info
        assert list(enc._cache) == order
