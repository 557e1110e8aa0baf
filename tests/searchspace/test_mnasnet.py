"""Unit and property tests for the MnasNet search space."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.searchspace.mnasnet import (
    ArchSpec,
    EXPANSION_CHOICES,
    KERNEL_CHOICES,
    LAYER_CHOICES,
    MnasNetSearchSpace,
    NUM_STAGES,
    SE_CHOICES,
)

arch_specs = st.builds(
    ArchSpec,
    expansion=st.tuples(*[st.sampled_from(EXPANSION_CHOICES)] * NUM_STAGES),
    kernel=st.tuples(*[st.sampled_from(KERNEL_CHOICES)] * NUM_STAGES),
    layers=st.tuples(*[st.sampled_from(LAYER_CHOICES)] * NUM_STAGES),
    se=st.tuples(*[st.sampled_from(SE_CHOICES)] * NUM_STAGES),
)


class TestArchSpecValidation:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="7 entries"):
            ArchSpec((1,) * 6, (3,) * 7, (1,) * 7, (0,) * 7)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            ArchSpec((1,) * 7, (4,) * 7, (1,) * 7, (0,) * 7)

    def test_zero_layers_rejected(self):
        with pytest.raises(ValueError):
            ArchSpec((1,) * 7, (3,) * 7, (0,) * 7, (0,) * 7)

    def test_bad_se_flag_rejected(self):
        with pytest.raises(ValueError):
            ArchSpec((1,) * 7, (3,) * 7, (1,) * 7, (2,) * 7)

    def test_out_of_space_values_allowed_for_baselines(self):
        # EfficientNet-B0's 4-layer stage is buildable even though the
        # searchable space caps layers at 3.
        spec = ArchSpec((1,) * 7, (3,) * 7, (1, 2, 2, 3, 3, 4, 1), (1,) * 7)
        assert spec.total_layers == 16


class TestSerialization:
    @given(arch_specs)
    @settings(max_examples=100, deadline=None)
    def test_string_roundtrip(self, arch):
        assert ArchSpec.from_string(arch.to_string()) == arch

    @given(arch_specs)
    @settings(max_examples=50, deadline=None)
    def test_dict_roundtrip(self, arch):
        assert ArchSpec.from_dict(arch.to_dict()) == arch

    def test_malformed_string_rejected(self):
        with pytest.raises(ValueError):
            ArchSpec.from_string("e1k3L1se0")  # only one stage
        with pytest.raises(ValueError):
            ArchSpec.from_string("|".join(["garbage"] * 7))

    def test_string_format(self):
        arch = ArchSpec((1,) * 7, (3,) * 7, (1,) * 7, (0,) * 7)
        assert arch.to_string() == "|".join(["e1k3L1se0"] * 7)

    def test_bad_stage_prefix_rejected_under_optimize(self):
        """Validation must not rest on asserts, which ``python -O`` strips:
        ``x6k3L2se0`` must never parse as ``e6k3L2se0``."""
        bad = "|".join(["x6k3L2se0"] + ["e6k3L2se0"] * 6)
        with pytest.raises(ValueError, match="x6k3L2se0"):
            ArchSpec.from_string(bad)
        code = (
            "from repro.searchspace.mnasnet import ArchSpec\n"
            "try:\n"
            f"    ArchSpec.from_string({bad!r})\n"
            "except ValueError:\n"
            "    print('rejected')\n"
            "else:\n"
            "    print('accepted')\n"
        )
        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert out.stdout.strip() == "rejected"


class TestStableHash:
    @given(arch_specs)
    @settings(max_examples=50, deadline=None)
    def test_deterministic(self, arch):
        assert arch.stable_hash() == arch.stable_hash()

    def test_salt_changes_hash(self):
        arch = ArchSpec((1,) * 7, (3,) * 7, (1,) * 7, (0,) * 7)
        assert arch.stable_hash("a") != arch.stable_hash("b")

    def test_known_value_is_stable_across_processes(self):
        # Regression pin: blake2b-based hashing must never depend on
        # PYTHONHASHSEED.  If this fails, every hash-seeded simulation
        # output changes.
        arch = ArchSpec((1,) * 7, (3,) * 7, (1,) * 7, (0,) * 7)
        assert arch.stable_hash() == arch.stable_hash("")
        assert isinstance(arch.stable_hash(), int)


class TestSearchSpace:
    def test_size_matches_paper_order(self, space):
        assert space.size == 36**7
        assert 1e10 < space.size < 1e11

    def test_sample_is_member(self, space):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert space.contains(space.sample(rng))

    def test_sampling_deterministic_with_seed(self):
        a = MnasNetSearchSpace(seed=7).sample()
        b = MnasNetSearchSpace(seed=7).sample()
        assert a == b

    def test_sample_batch_unique(self, space):
        batch = space.sample_batch(50, rng=np.random.default_rng(3), unique=True)
        assert len(set(batch)) == 50

    def test_sample_batch_unique_impossible(self):
        space = MnasNetSearchSpace(seed=0)
        with pytest.raises(ValueError):
            space.sample_batch(space.size + 1, unique=True)

    def test_mutate_changes_exactly_one_decision(self, space):
        rng = np.random.default_rng(5)
        arch = space.sample(rng)
        for _ in range(30):
            child = space.mutate(arch, rng)
            diffs = sum(
                1
                for field in ("expansion", "kernel", "layers", "se")
                for i in range(NUM_STAGES)
                if getattr(arch, field)[i] != getattr(child, field)[i]
            )
            assert diffs == 1
            assert space.contains(child)

    def test_neighbors_count_and_distance(self, space):
        arch = space.sample(np.random.default_rng(9))
        neighbours = list(space.neighbors(arch))
        # Per stage: 2 expansion + 1 kernel + 2 layers + 1 se alternatives.
        assert len(neighbours) == NUM_STAGES * 6
        assert len(set(neighbours)) == len(neighbours)
        assert arch not in neighbours

    def test_contains_rejects_out_of_space(self, space):
        b0_like = ArchSpec((1,) * 7, (3,) * 7, (1, 2, 2, 3, 3, 4, 1), (1,) * 7)
        assert not space.contains(b0_like)

    def test_enumerate_stage_configs(self, space):
        configs = list(space.enumerate_stage_configs())
        assert len(configs) == 36
        assert len(set(configs)) == 36
