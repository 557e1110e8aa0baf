"""Golden pins for the tree engine and shared-traversal predictors.

Every grown tree is pinned as a sha256 digest over its
``feature/threshold/left/right/value`` arrays.  The digests were captured
from the pre-fusion per-node grower before it was deleted, after checking
that it, the current grower and every histogram kernel agreed byte for
byte on each case; they now stand in for that reference implementation.
Each histogram kernel is forced by moving ``tree._BINCOUNT_MIN_ROWS``.
"""

import hashlib

import numpy as np
import pytest

import repro.surrogates.tree as tree_mod
from repro.core.surrogate_fit import SurrogateFitter
from repro.searchspace.features import FeatureEncoder
from repro.surrogates import make_surrogate
from repro.surrogates.forest import RandomForestRegressor
from repro.surrogates.gbdt import XGBRegressor
from repro.surrogates.lgb import LGBRegressor
from repro.surrogates.tree import (
    _BINCOUNT_MIN_ROWS,
    GradientTreeBuilder,
    HistogramBinner,
    TreeEnsemblePredictor,
)


def _digest(tree) -> str:
    h = hashlib.sha256()
    for arr in (tree.feature, tree.threshold, tree.left, tree.right, tree.value):
        h.update(arr.tobytes())
    return h.hexdigest()


def _ensemble_digest(trees) -> str:
    h = hashlib.sha256()
    for tree in trees:
        h.update(bytes.fromhex(_digest(tree)))
    return h.hexdigest()


@pytest.fixture(scope="module")
def binned(xy_small):
    X, y = xy_small
    binner = HistogramBinner(max_bins=64).fit(X)
    return binner, binner.transform(X), y


@pytest.fixture(scope="module")
def mixed(small_acc_dataset):
    """One-hot plus the four continuous global features (bin widths 2..64)."""
    X = FeatureEncoder("onehot+global").encode(small_acc_dataset.archs)
    binner = HistogramBinner(max_bins=64).fit(X)
    return binner, binner.transform(X), small_acc_dataset.values


def _force_kernel(monkeypatch, kernel):
    """Make every histogram pass pick ``kernel`` ("fused" or "bincount")."""
    rows = 0 if kernel == "bincount" else 10**12
    monkeypatch.setattr(tree_mod, "_BINCOUNT_MIN_ROWS", rows)


@pytest.fixture(params=["fused", "bincount"])
def kernel(request, monkeypatch):
    _force_kernel(monkeypatch, request.param)
    return request.param


def _build(binned, subtract, h=None, **kwargs):
    """One tree on the first boosting round's gradients (centred targets).

    Raw accuracies (~0.74 +- 0.02) under ``reg_lambda=1`` never beat the
    root's score, so uncentred gradients would only ever grow a stump.
    """
    binner, codes, y = binned
    y = np.asarray(y, dtype=np.float64)
    g = -(y - y.mean())
    if h is None:
        h = np.ones_like(g)
    builder = GradientTreeBuilder(
        binner,
        rng=np.random.default_rng(123),
        hist_subtraction=subtract,
        **kwargs,
    )
    return builder.build(codes, g=g, h=h)


GROWTH_CONFIGS = [
    {"growth": "depthwise", "max_depth": 6},
    {"growth": "depthwise", "max_depth": 12},
    {"growth": "depthwise", "max_depth": None},
    {"growth": "leafwise", "max_depth": None, "num_leaves": 31},
    {"growth": "leafwise", "max_depth": 8, "num_leaves": 63},
]
GROWTH_IDS = [str(c) for c in GROWTH_CONFIGS]
SUBSAMPLED = {
    "depthwise": {"growth": "depthwise", "max_depth": 8},
    "leafwise": {"growth": "leafwise", "max_depth": 8, "num_leaves": 31},
}

# Pinned digests, one per GROWTH_CONFIGS entry (``binned`` fixture).
GROWTH_DIGESTS = [
    "c95efac59d76897db9b4f52d069ce3f565872461c285943fc1e57c368fb166c3",
    "89ae7280b10a59a61974355c6257fdc431723ad21fb0ca8bc310a105cbf7e2d4",
    "89ae7280b10a59a61974355c6257fdc431723ad21fb0ca8bc310a105cbf7e2d4",
    "75782dce64627af12861817db8e212a9e66b29fb6f570bbc3eaac1482f87af1f",
    "470dbd787d453bcb2b290d6e05c447445d0714ac46ceaf124800708f528b9d62",
]
DEPTH10_DIGEST = GROWTH_DIGESTS[1]  # max_depth=10 already reaches full depth
WIDE_UNBOUNDED_DIGEST = (
    "af1660ba5964088f5009395ea1052f69852f5d72ba78b023e3e2ccfca0e73a29"
)
# colsample_bynode=0.5 over SUBSAMPLED configs.
COLSAMPLE_DIGESTS = {
    "depthwise": "ebe36a6ebe6119d30d1fb0ee913c368ccb8138574af5fff98d0e731e88b442fd",
    "leafwise": "f2d05a6901acbc138c90e87264edaace55518fae29298a0c1ef7870e14d2ea0d",
}
# h = linspace(0.5, 2.0) over SUBSAMPLED configs (no subsampling).
HESSIAN_DIGESTS = {
    "depthwise": "dd7f934fa84f9342ad88d09f0e1bc8edbe47748a1bf160114bbfffecf2b0e7a1",
    "leafwise": "3775564a3a9ceb2c09c3c42460c48df6dfcac5b8d789c5d1ad7b036c766b09c7",
}
# Seeded all-binary matrix, one per GROWTH_CONFIGS entry.
BINARY_DIGESTS = [
    "63f96ecd072c57dab49b238863d7d586414daa3bc134956866f69eb023ae0e68",
    "fa6e5898a93f548a2631418d90928bda6579e1d55cdeb9865eb525aa3c574ca3",
    "fa6e5898a93f548a2631418d90928bda6579e1d55cdeb9865eb525aa3c574ca3",
    "9add015a576b496560e68fdf8a5ebfa9281eb516a48bd5e0f5976bdfc5f7a5e1",
    "9e51593f73e05cabf31679468151094de4e16c1500e9ed52ba195ce1b741b6f4",
]
# ``mixed`` fixture, one per GROWTH_CONFIGS entry, then colsample 0.5.
MIXED_DIGESTS = [
    "bed7bc5402a5204ba43178b538851271f9966e3235071c9172d2aa5f08b4ee2b",
    "0ea5209d7d2dc69f2fdc43e50c3aa04ecc4479a9ce5d12ef81344c83366095b7",
    "0ea5209d7d2dc69f2fdc43e50c3aa04ecc4479a9ce5d12ef81344c83366095b7",
    "282b133469a5a9644c33279e40911630d20268e155059e2e56de277fc137c2b0",
    "d6cb075f60b0dce20a53999bbee3c4d0fbff5d0183b449696b8025f4651ed976",
]
MIXED_COLSAMPLE_DIGESTS = {
    "depthwise": "5229d1e4d39118a1368b31228be0f97b397048dfbc0903913c73e711cda15eaa",
    "leafwise": "598828f1e4de6c53fa8885a556030664493679aaf78fafb23f6a1334ebb862ca",
}
# Seeded 8704 x 12 Gaussian matrix, max_depth=9: upper levels stage more
# than _BINCOUNT_MIN_ROWS rows, deep levels fewer.
LARGE_DIGEST = "42837ec6036f3bbeadce9eaa3f4699247aa7205d29bfb6aa81d17a2e44b5b451"
# Whole ensembles on ``xy_small``: tree count, ensemble digest, and the
# sha256 of ``predict(X).tobytes()``.
ENSEMBLE_PARAMS = {
    "xgb": dict(n_estimators=12, max_depth=5, subsample=0.8,
                colsample_bynode=0.7, seed=7),
    "lgb": dict(n_estimators=12, num_leaves=15, subsample=0.8,
                colsample_bynode=0.7, seed=7),
    "rf": dict(n_estimators=8, max_depth=12, max_features=0.5, seed=3),
}
ENSEMBLE_DIGESTS = {
    "xgb": (
        12,
        "bf162c54251277a023c8a29f911b573011f99f3a76972b7663bfa840c7077fc4",
        "5a27a3ca34fbd90d2116a124d6b7f8432a7859cf709696cdbdd79404c7be37dd",
    ),
    "lgb": (
        12,
        "cf98fde189aba0195ee781da85173f5e99d3077a585f69664cd03f5fc6d999fe",
        "c3c8b5a54870184ed8e8cd6c568cf03a191662c8b0ea5d17bfe8689a46ceec46",
    ),
    "rf": (
        8,
        "8c406a4dd4f5c740874bf9f2e346064f1014b4c61ac26ad65785235e9a03708d",
        "327705104ad27017ae3e2fd130a1aae14ac68e59ed270d6082dffe4b12965339",
    ),
    # XGBRegressor(n_estimators=15, max_depth=6, seed=7)
    "xgb_depth6": (
        15,
        "e3e2019acd29f7d613ed0be2e99356f88a7e9694b21b72e0d6108274a983582c",
        "8f8b73f7a6b835a06443e53c2a1be0572c8765bf5e14a1f2fcf645e49a1fe45a",
    ),
}


def _assert_ensemble_pinned(model, X, key):
    trees = model.trees_ if isinstance(model, RandomForestRegressor) else model._trees
    n_trees, trees_digest, predict_digest = ENSEMBLE_DIGESTS[key]
    assert len(trees) == n_trees
    assert _ensemble_digest(trees) == trees_digest
    assert hashlib.sha256(model.predict(X).tobytes()).hexdigest() == predict_digest


def _all_binary_data():
    rng = np.random.default_rng(42)
    X = (rng.uniform(size=(900, 24)) < 0.4).astype(np.float64)
    y = X @ rng.normal(size=24) + 0.05 * rng.standard_normal(900)
    binner = HistogramBinner(max_bins=64).fit(X)
    return binner, binner.transform(X), y


class TestHistogramSubtractionGolden:
    """``hist_subtraction=False`` is the in-engine reference: deriving count
    histograms as parent - sibling must change nothing."""

    @pytest.mark.parametrize("config", GROWTH_CONFIGS, ids=GROWTH_IDS)
    def test_trees_identical_engine_on_and_off(self, binned, config):
        """Subtraction must change *nothing*: same splits, thresholds, values."""
        on = _build(binned, True, **config)
        off = _build(binned, False, **config)
        assert on.num_nodes > 1
        assert on.to_dict() == off.to_dict()

    def test_non_unit_hessians_identical(self, binned):
        _, codes, y = binned
        h = np.linspace(0.5, 2.0, len(y))
        on = _build(binned, True, h=h, max_depth=8)
        off = _build(binned, False, h=h, max_depth=8)
        assert on.to_dict() == off.to_dict()

    def test_engine_self_gates_on_feature_subsampling(self, mixed):
        """colsample < 1 consumes rng per node; full-feature count
        histograms keep subtraction exact regardless of the draw."""
        on = _build(mixed, True, colsample_bynode=0.5, max_depth=8)
        off = _build(mixed, False, colsample_bynode=0.5, max_depth=8)
        assert on.to_dict() == off.to_dict()

    def test_wide_unbounded_tree_identical(self, binned):
        """No depth cap and tiny leaves: many levels, many subtractions."""
        on = _build(binned, True, max_depth=None, min_child_samples=2)
        off = _build(binned, False, max_depth=None, min_child_samples=2)
        assert on.to_dict() == off.to_dict()
        assert _digest(on) == WIDE_UNBOUNDED_DIGEST

    @pytest.mark.parametrize("module", ["gbdt", "forest"])
    def test_ensemble_fits_identical_engine_on_and_off(
        self, xy_small, monkeypatch, module
    ):
        """Whole-ensemble fits pin the engine: forcing hist_subtraction=False
        through the builder must leave every fitted tree byte-identical."""
        X, y = xy_small

        class _NoSubtractionBuilder(GradientTreeBuilder):
            def __init__(self, *args, **kwargs):
                kwargs["hist_subtraction"] = False
                super().__init__(*args, **kwargs)

        def fit_model():
            if module == "gbdt":
                return XGBRegressor(n_estimators=15, max_depth=6, seed=7).fit(
                    X, y
                )
            return RandomForestRegressor(n_estimators=10, seed=3).fit(X, y)

        fast = fit_model()
        monkeypatch.setattr(
            f"repro.surrogates.{module}.GradientTreeBuilder",
            _NoSubtractionBuilder,
        )
        reference = fit_model()
        fast_trees = fast.trees_ if module == "forest" else fast._trees
        ref_trees = reference.trees_ if module == "forest" else reference._trees
        assert len(fast_trees) == len(ref_trees)
        for ta, tb in zip(fast_trees, ref_trees):
            assert ta.to_dict() == tb.to_dict()
        assert np.array_equal(fast.predict(X), reference.predict(X))


class TestPartitionEngineGolden:
    """The engine grows byte for byte what the deleted per-node grower
    grew, for every growth policy, sampling configuration and kernel."""

    @pytest.mark.parametrize(
        "config, digest", zip(GROWTH_CONFIGS, GROWTH_DIGESTS), ids=GROWTH_IDS
    )
    def test_trees_identical_partition_vs_legacy(self, binned, config, digest):
        assert _digest(_build(binned, True, **config)) == digest

    @pytest.mark.parametrize("growth", ["depthwise", "leafwise"])
    def test_feature_subsampling_identical(self, binned, growth):
        """colsample consumes rng per node: the same candidates must be
        drawn in the same order."""
        tree = _build(binned, True, colsample_bynode=0.5, **SUBSAMPLED[growth])
        assert _digest(tree) == COLSAMPLE_DIGESTS[growth]

    @pytest.mark.parametrize("growth", ["depthwise", "leafwise"])
    def test_non_unit_hessians_identical(self, binned, growth):
        _, codes, y = binned
        h = np.linspace(0.5, 2.0, len(y))
        tree = _build(binned, True, h=h, **SUBSAMPLED[growth])
        assert _digest(tree) == HESSIAN_DIGESTS[growth]

    @pytest.mark.parametrize("mode", ["auto", "fused", "bincount"])
    def test_every_hist_mode_matches_legacy(self, binned, monkeypatch, mode):
        if mode != "auto":
            _force_kernel(monkeypatch, mode)
        assert _digest(_build(binned, True, max_depth=10)) == DEPTH10_DIGEST

    def test_all_binary_features_identical(self):
        """Pure one-hot matrices take the counts-from-staged-buffer path
        (no bincount at all); it must not change a single split."""
        data = _all_binary_data()
        for config, digest in zip(GROWTH_CONFIGS, BINARY_DIGESTS):
            assert _digest(_build(data, True, **config)) == digest, config

    @pytest.mark.parametrize(
        "config, digest", zip(GROWTH_CONFIGS, MIXED_DIGESTS), ids=GROWTH_IDS
    )
    def test_mixed_width_features_identical(self, mixed, kernel, config, digest):
        """Binary and 7/11/64-bin features share one CSR axis of uneven
        runs (the default ``onehot+global`` encoding)."""
        assert _digest(_build(mixed, True, **config)) == digest

    @pytest.mark.parametrize("growth", ["depthwise", "leafwise"])
    def test_mixed_width_feature_subsampling_identical(
        self, mixed, kernel, growth
    ):
        """Uneven bin widths gather draw candidates per feature."""
        tree = _build(mixed, True, colsample_bynode=0.5, **SUBSAMPLED[growth])
        assert _digest(tree) == MIXED_COLSAMPLE_DIGESTS[growth]

    def test_subtraction_off_identical(self, binned):
        assert _digest(_build(binned, False, max_depth=10)) == DEPTH10_DIGEST

    @pytest.mark.parametrize("family", ["xgb", "lgb", "rf"])
    def test_ensemble_fits_identical_across_engines(self, xy_small, family):
        """Whole-ensemble pins through the public constructors."""
        X, y = xy_small
        model = make_surrogate(family, **ENSEMBLE_PARAMS[family]).fit(X, y)
        _assert_ensemble_pinned(model, X, family)


class TestPerTreePrediction:
    @pytest.fixture(scope="class")
    def forest(self, xy_small):
        X, y = xy_small
        return RandomForestRegressor(n_estimators=25, seed=1).fit(X, y), X

    def test_predict_per_tree_matches_tree_loop(self, forest):
        model, X = forest
        predictor = TreeEnsemblePredictor(model.trees_)
        fast = predictor.predict_per_tree(X)
        slow = np.stack([t.predict(X) for t in model.trees_])
        assert fast.shape == slow.shape == (25, X.shape[0])
        assert np.array_equal(fast, slow)

    def test_per_tree_is_contiguous_tree_major(self, forest):
        model, X = forest
        fast = TreeEnsemblePredictor(model.trees_).predict_per_tree(X)
        assert fast.flags["C_CONTIGUOUS"]

    def test_predict_std_matches_legacy_loop(self, forest):
        """Satellite pin: predict_std must stay bit-identical to the old
        per-tree Python loop it replaced."""
        model, X = forest
        fast = model.predict_std(X)
        legacy = np.stack([t.predict(X) for t in model.trees_]).std(axis=0)
        assert np.array_equal(fast, legacy)

    def test_predict_std_requires_fit(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            RandomForestRegressor().predict_std(np.zeros((1, 3)))

    def test_predict_consistent_with_per_tree_mean(self, forest):
        model, X = forest
        per_tree = TreeEnsemblePredictor(model.trees_).predict_per_tree(X)
        assert np.allclose(model.predict(X), per_tree.mean(axis=0))


class TestBincountHistograms:
    """Both histogram kernels — the fused CSR pass and one ``bincount`` per
    feature column — grow the pinned trees, whichever one a pass picks."""

    def test_resolve_hist_mode(self, binned):
        binner, _, _ = binned
        builder = GradientTreeBuilder(binner)
        assert builder._resolve_hist_mode(_BINCOUNT_MIN_ROWS) == "bincount"
        assert builder._resolve_hist_mode(10**9) == "bincount"
        assert builder._resolve_hist_mode(_BINCOUNT_MIN_ROWS - 1) == "fused"
        assert builder._resolve_hist_mode(1) == "fused"

    def test_engine_option_rejected(self, binned):
        """The growth engine is not selectable anywhere."""
        binner, _, _ = binned
        with pytest.raises(TypeError, match="engine"):
            GradientTreeBuilder(binner, engine="partition")
        for cls in (XGBRegressor, LGBRegressor, RandomForestRegressor,
                    SurrogateFitter):
            with pytest.raises(TypeError, match="engine"):
                cls(engine="partition")

    def test_auto_mode_crosses_threshold_identical(self, monkeypatch):
        """With rows well above ``_BINCOUNT_MIN_ROWS`` the auto rule runs
        bincount on the tree's upper levels and the fused kernel on small
        deep passes — and must match both forced kernels bit for bit."""
        rng = np.random.default_rng(11)
        n = 2 * _BINCOUNT_MIN_ROWS + 512
        X = rng.standard_normal((n, 12))
        y = X[:, 0] - 2.0 * X[:, 1] + 0.1 * rng.standard_normal(n)
        binner = HistogramBinner(max_bins=32).fit(X)
        data = (binner, binner.transform(X), y)
        assert _digest(_build(data, True, max_depth=9)) == LARGE_DIGEST
        for kernel in ("bincount", "fused"):
            _force_kernel(monkeypatch, kernel)
            assert _digest(_build(data, True, max_depth=9)) == LARGE_DIGEST

    @pytest.mark.parametrize(
        "config, digest", zip(GROWTH_CONFIGS, GROWTH_DIGESTS), ids=GROWTH_IDS
    )
    def test_trees_identical_bincount_vs_repeat(
        self, binned, monkeypatch, config, digest
    ):
        _force_kernel(monkeypatch, "bincount")
        assert _digest(_build(binned, True, **config)) == digest

    def test_non_unit_hessians_identical(self, binned, monkeypatch):
        _, codes, y = binned
        h = np.linspace(0.5, 2.0, len(y))
        _force_kernel(monkeypatch, "bincount")
        tree = _build(binned, True, h=h, **SUBSAMPLED["depthwise"])
        assert _digest(tree) == HESSIAN_DIGESTS["depthwise"]

    def test_feature_subsampling_identical(self, binned, monkeypatch):
        _force_kernel(monkeypatch, "bincount")
        tree = _build(
            binned, True, colsample_bynode=0.5, **SUBSAMPLED["depthwise"]
        )
        assert _digest(tree) == COLSAMPLE_DIGESTS["depthwise"]

    def test_unknown_hist_mode_rejected(self, binned):
        """The kernel is chosen by pass size only; no option selects it."""
        binner, _, _ = binned
        with pytest.raises(TypeError, match="hist_mode"):
            GradientTreeBuilder(binner, hist_mode="fused")
        for cls in (XGBRegressor, LGBRegressor, RandomForestRegressor,
                    SurrogateFitter):
            with pytest.raises(TypeError, match="hist_mode"):
                cls(hist_mode="fused")

    def test_ensemble_fits_identical_bincount_vs_repeat(
        self, xy_small, monkeypatch
    ):
        X, y = xy_small
        for kernel in ("bincount", "fused"):
            _force_kernel(monkeypatch, kernel)
            model = XGBRegressor(n_estimators=15, max_depth=6, seed=7).fit(X, y)
            _assert_ensemble_pinned(model, X, "xgb_depth6")


def _depth_by_python_walk(tree) -> int:
    """Reference max_depth: the per-node Python loop the property replaced."""

    def walk(node: int, depth: int) -> int:
        if tree.feature[node] < 0:
            return depth
        return max(
            walk(int(tree.left[node]), depth + 1),
            walk(int(tree.right[node]), depth + 1),
        )

    return walk(0, 0)


class TestVectorisedMaxDepth:
    def test_matches_python_walk(self, xy_small):
        X, y = xy_small
        model = XGBRegressor(n_estimators=8, max_depth=None, seed=11).fit(X, y)
        for tree in model._trees:
            assert tree.max_depth == _depth_by_python_walk(tree)

    def test_stump_and_capped_trees(self, xy_small):
        X, y = xy_small
        for cap in (1, 3, 6):
            model = XGBRegressor(n_estimators=4, max_depth=cap, seed=5).fit(X, y)
            for tree in model._trees:
                assert tree.max_depth == _depth_by_python_walk(tree)
                assert tree.max_depth <= cap


class TestFlatArraysRoundTrip:
    @pytest.fixture(scope="class")
    def forest(self, xy_small):
        X, y = xy_small
        return RandomForestRegressor(n_estimators=12, seed=2).fit(X, y), X

    def test_predictor_as_from_arrays_identical(self, forest):
        model, X = forest
        predictor = TreeEnsemblePredictor(model.trees_)
        clone = TreeEnsemblePredictor.from_arrays(**predictor.as_arrays())
        assert clone.num_trees == predictor.num_trees
        assert np.array_equal(clone.predict_sum(X), predictor.predict_sum(X))

    def test_flat_tree_sequence_reproduces_trees(self, forest):
        from repro.surrogates.tree import FlatTreeSequence

        model, X = forest
        arrays = TreeEnsemblePredictor(model.trees_).as_arrays()
        seq = FlatTreeSequence(**arrays)
        assert len(seq) == len(model.trees_)
        for lazy, original in zip(seq, model.trees_):
            assert lazy.to_dict() == original.to_dict()
        # negative indexing and slicing behave like a list
        assert seq[-1].to_dict() == model.trees_[-1].to_dict()
        assert [t.num_nodes for t in seq[2:5]] == [
            t.num_nodes for t in model.trees_[2:5]
        ]
