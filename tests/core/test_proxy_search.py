"""Unit tests for the training-proxy search (Eq. 1)."""

import numpy as np
import pytest

from repro.core.proxy_search import (
    TrainingProxySearch,
    flops_stratified_grid,
)
from repro.nn.counters import count_graph
from repro.searchspace.model_builder import build_model
from repro.trainsim.schemes import P_STAR, REFERENCE_SCHEME, TrainingScheme


@pytest.fixture(scope="module")
def search():
    grid = flops_stratified_grid(n=12, seed=0, pool_size=200)
    return TrainingProxySearch(grid_archs=grid, t_spec=3.5, seeds=(0,))


class TestStratifiedGrid:
    def test_size_and_uniqueness(self):
        grid = flops_stratified_grid(n=10, seed=1, pool_size=150)
        assert len(grid) == 10
        assert len(set(grid)) == 10

    def test_spans_flops_range(self):
        grid = flops_stratified_grid(n=10, seed=2, pool_size=300)
        flops = [count_graph(build_model(a)).flops for a in grid]
        assert max(flops) > 2 * min(flops)

    def test_needs_two_archs(self):
        with pytest.raises(ValueError):
            flops_stratified_grid(n=1)

    def test_grid_matches_built_model_flops(self):
        """The table-summed FLOPs order the pool exactly as building every
        model and counting it did, so the grid is unchanged."""
        from repro.searchspace.mnasnet import MnasNetSearchSpace

        n, seed, pool_size = 8, 4, 120
        rng = np.random.default_rng(seed)
        pool = MnasNetSearchSpace().sample_batch(pool_size, rng=rng, unique=True)
        flops = np.asarray([count_graph(build_model(a)).flops for a in pool])
        assert flops.dtype == np.int64
        order = np.argsort(flops)
        edges = np.linspace(0, len(pool), n + 1).astype(int)
        expected = [
            pool[order[int(rng.integers(lo, max(hi, lo + 1)))]]
            for lo, hi in zip(edges[:-1], edges[1:])
        ]
        assert flops_stratified_grid(n=n, seed=seed, pool_size=pool_size) == (
            expected
        )

    def test_deterministic(self):
        assert flops_stratified_grid(n=8, seed=3, pool_size=100) == (
            flops_stratified_grid(n=8, seed=3, pool_size=100)
        )


class TestEvaluation:
    def test_reference_scheme_is_self_correlated(self, search):
        ev = search.evaluate_scheme(REFERENCE_SCHEME)
        assert ev.tau == pytest.approx(1.0)
        assert ev.speedup == pytest.approx(1.0)
        assert not ev.feasible  # reference is way over t_spec

    def test_p_star_evaluation(self, search):
        ev = search.evaluate_scheme(P_STAR)
        assert 0.8 < ev.tau <= 1.0
        assert ev.speedup > 4
        assert ev.feasible

    def test_cheaper_scheme_has_lower_tau(self, search):
        cheap = TrainingScheme(1024, 15, 0, 0, 96, 96)
        assert search.evaluate_scheme(cheap).tau < search.evaluate_scheme(P_STAR).tau

    def test_t_spec_validated(self):
        with pytest.raises(ValueError):
            TrainingProxySearch(t_spec=0.0)


class TestSearch:
    def test_infeasible_budget_raises(self, search):
        strict = TrainingProxySearch(
            grid_archs=search.grid_archs, t_spec=1e-6, seeds=(0,)
        )
        with pytest.raises(RuntimeError, match="no feasible scheme"):
            strict.search(candidates=[P_STAR])

    def test_explicit_candidates(self, search):
        worse = TrainingScheme(1024, 15, 0, 0, 96, 96)
        result = search.search(candidates=[worse, P_STAR])
        assert result.best_scheme == P_STAR
        assert result.num_evaluated == 2

    def test_early_stop_with_verification(self, search):
        # P_STAR genuinely has high tau, so it should pass verification and
        # stop the search before the bad scheme is reached.
        bad = TrainingScheme(1024, 15, 0, 0, 96, 96)
        result = search.search(
            candidates=[P_STAR, bad], early_stop_tau=0.85
        )
        assert result.best_scheme == P_STAR
        assert result.num_evaluated == 1
        assert result.best.verified_tau is not None

    def test_lucky_scheme_rejected_by_verification(self, search):
        """A scheme whose grid tau clears the bar but verification does not
        must not stop the search."""
        bad = TrainingScheme(1024, 15, 0, 0, 96, 192)
        ev = search.evaluate_scheme(bad)
        threshold = ev.tau - 0.001  # bar the bad scheme *would* clear on grid
        verified = search._verified_tau(bad)
        if verified >= threshold - 0.03:
            pytest.skip("verification batch happened to rank the scheme well")
        result = search.search(
            candidates=[bad, P_STAR], early_stop_tau=threshold
        )
        assert result.best_scheme == P_STAR

    def test_max_evaluations_cap(self, search):
        schemes = [
            TrainingScheme(512, e, 0, 0, 224, 224) for e in (20, 30, 40, 50)
        ]
        result = search.search(candidates=schemes, max_evaluations=2)
        assert result.num_evaluated == 2


class TestValidateProtocol:
    def test_validation_keys_and_tau(self, search, some_archs):
        validation = search.validate(P_STAR, some_archs[:15], seeds=(0, 1))
        assert set(validation) == {
            "proxy_mean",
            "proxy_std",
            "reference_mean",
            "reference_std",
            "tau",
        }
        assert len(validation["proxy_mean"]) == 15
        assert np.all(validation["proxy_std"] >= 0)
        assert -1 <= validation["tau"] <= 1

    def test_validation_tau_high_for_p_star(self, search, some_archs):
        validation = search.validate(P_STAR, some_archs[:30], seeds=(0, 1, 2))
        assert validation["tau"] > 0.75
