"""Bit-identity of the vectorised trainsim batch kernels vs the scalar loop."""

import numpy as np
import pytest

from repro.core.reliability import (
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    MeasurementTimeout,
)
from repro.searchspace.baselines import EFFICIENTNET_B0
from repro.searchspace.mnasnet import MnasNetSearchSpace
from repro.trainsim import (
    BatchTrainResult,
    encode_population,
    supports_batch,
)
from repro.trainsim.datasets import get_dataset
from repro.trainsim.schemes import (
    P_STAR,
    REFERENCE_SCHEME,
    proxy_scheme_candidates,
)
from repro.trainsim.trainer import SimulatedTrainer


@pytest.fixture(scope="module")
def archs():
    space = MnasNetSearchSpace()
    return space.sample_batch(48, rng=np.random.default_rng(17))


SCHEMES = [REFERENCE_SCHEME, P_STAR] + list(proxy_scheme_candidates())[:2]


class TestBatchBitIdentity:
    @pytest.mark.parametrize(
        "scheme", SCHEMES, ids=[f"scheme{i}" for i in range(len(SCHEMES))]
    )
    def test_top1_and_hours_match_scalar_loop(self, archs, scheme):
        trainer = SimulatedTrainer()
        batched = trainer.train_batch(archs, scheme, seeds=0)
        scalar = [trainer.train(a, scheme, seed=0) for a in archs]
        assert batched.top1.tolist() == [r.top1 for r in scalar]
        assert batched.train_hours.tolist() == [r.train_hours for r in scalar]

    def test_per_arch_seeds_match_scalar(self, archs):
        trainer = SimulatedTrainer()
        seeds = tuple(range(len(archs)))
        batched = trainer.train_batch(archs, P_STAR, seeds=seeds)
        scalar = [
            trainer.train(a, P_STAR, seed=s) for a, s in zip(archs, seeds)
        ]
        assert batched.top1.tolist() == [r.top1 for r in scalar]

    @pytest.mark.parametrize("dataset_name", ["imagenet", "imagenet100"])
    def test_dataset_bound_trainer_matches_scalar(self, archs, dataset_name):
        trainer = SimulatedTrainer(dataset=get_dataset(dataset_name))
        batched = trainer.train_batch(archs, P_STAR, seeds=3)
        scalar = [trainer.train(a, P_STAR, seed=3) for a in archs]
        assert batched.top1.tolist() == [r.top1 for r in scalar]
        assert batched.train_hours.tolist() == [r.train_hours for r in scalar]

    def test_results_views_equal_scalar_results(self, archs):
        trainer = SimulatedTrainer()
        batched = trainer.train_batch(archs[:8], P_STAR, seeds=1)
        assert isinstance(batched, BatchTrainResult)
        assert len(batched) == 8
        for view, arch in zip(batched.results(), archs[:8]):
            ref = trainer.train(arch, P_STAR, seed=1)
            assert view.arch == ref.arch
            assert view.top1 == ref.top1
            assert view.train_hours == ref.train_hours
            assert view.seed == ref.seed

    def test_seed_count_mismatch_rejected(self, archs):
        trainer = SimulatedTrainer()
        with pytest.raises(ValueError, match="seeds"):
            trainer.train_batch(archs[:4], P_STAR, seeds=(0, 1))


class TestForeignSpecFallback:
    def test_supports_batch_rejects_foreign_specs(self, archs):
        from repro.searchspace.proxyless import ProxylessSearchSpace

        foreign = ProxylessSearchSpace().sample(np.random.default_rng(0))
        assert supports_batch(archs)
        assert not supports_batch([archs[0], foreign])
        # An off-space MnasNet baseline is buildable but has no table cells.
        assert not supports_batch([archs[0], EFFICIENTNET_B0.arch])

    def test_fallback_matches_scalar_loop(self, archs):
        from repro.searchspace.proxyless import ProxylessSearchSpace

        foreign = ProxylessSearchSpace().sample_batch(
            6, rng=np.random.default_rng(5)
        ) + [EFFICIENTNET_B0.arch]
        trainer = SimulatedTrainer()
        batched = trainer.train_batch(foreign, P_STAR, seeds=0)
        scalar = [trainer.train(a, P_STAR, seed=0) for a in foreign]
        assert batched.top1.tolist() == [r.top1 for r in scalar]
        assert batched.train_hours.tolist() == [r.train_hours for r in scalar]


class TestBatchFaults:
    def test_crash_raises_at_scalar_index(self, archs):
        victim = archs[20]
        plan = FaultPlan.crash_on([victim.to_string()])
        trainer = SimulatedTrainer(fault_plan=plan)
        with pytest.raises(InjectedCrash):
            trainer.train_batch(archs, P_STAR)
        # The scalar loop dies at the same population index.
        scalar_done = 0
        scalar_trainer = SimulatedTrainer(
            fault_plan=FaultPlan.crash_on([victim.to_string()])
        )
        with pytest.raises(InjectedCrash):
            for a in archs:
                scalar_trainer.train(a, P_STAR)
                scalar_done += 1
        assert scalar_done == 20

    def test_timeout_fault_raises(self, archs):
        plan = FaultPlan([FaultSpec("timeout", keys=[archs[5].to_string()])])
        trainer = SimulatedTrainer(fault_plan=plan)
        with pytest.raises(MeasurementTimeout):
            trainer.train_batch(archs, P_STAR)

    def test_value_faults_match_scalar(self, archs):
        def make_plan():
            return FaultPlan.from_string("nan:0.2,spike:0.3", seed=11)

        batched = SimulatedTrainer(fault_plan=make_plan()).train_batch(
            archs, P_STAR
        )
        scalar_trainer = SimulatedTrainer(fault_plan=make_plan())
        scalar = [scalar_trainer.train(a, P_STAR) for a in archs]
        expect = np.array([r.top1 for r in scalar])
        assert np.array_equal(batched.top1, expect, equal_nan=True)
        assert np.isnan(expect).any() or (expect != batched.top1).sum() == 0

    def test_apply_faults_false_skips_plan(self, archs):
        plan = FaultPlan.crash_on([archs[0].to_string()])
        trainer = SimulatedTrainer(fault_plan=plan)
        clean = trainer.train_batch(archs, P_STAR, apply_faults=False)
        ref = SimulatedTrainer().train_batch(archs, P_STAR)
        assert np.array_equal(clean.top1, ref.top1)


class TestPopulationEncoding:
    def test_encoding_matches_spec_fields(self, archs):
        pop = encode_population(archs)
        assert pop.expansion.shape == (len(archs), 7)
        for i, arch in enumerate(archs):
            assert pop.expansion[i].tolist() == list(arch.expansion)
            assert pop.kernel[i].tolist() == list(arch.kernel)
            assert pop.layers[i].tolist() == list(arch.layers)
            assert pop.se[i].tolist() == list(arch.se)

    def test_flops_match_scalar_counter(self, archs):
        from repro.trainsim.accuracy_model import _counters

        pop = encode_population(archs[:8])
        for i, arch in enumerate(archs[:8]):
            assert pop.flops[i] == float(_counters(arch).flops)
