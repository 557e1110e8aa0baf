"""Vectorised population kernels for the training simulator.

Evaluating a population of architectures through the scalar
:meth:`~repro.trainsim.trainer.SimulatedTrainer.train` loop rebuilds one
layer graph per architecture and walks Python loops per stage and per epoch.
This module evaluates the *whole population at once*: the per-stage decisions
are encoded into integer arrays one time, and every deterministic landscape
term (capacity, structural, pairwise, convergence, training cost) is computed
across the population axis in single NumPy passes.  Exact FLOP counts come
from the probe-built :class:`~repro.searchspace.stage_table.StageTable`, so
no graphs are built or validated per architecture at all.

Bit-identity contract: every value returned here is **bitwise equal** to the
scalar reference path.  The recipes that make that true:

* additions replicate the scalar accumulation order (per-stage masked adds
  on a running total; FP addition is not associative, so order is part of
  the contract),
* transcendentals (``exp``, ``log10``, ``**``) are evaluated per element
  through :mod:`math` — NumPy's SIMD variants differ from libm by ulps —
  while ``sqrt`` (IEEE-exact) and arithmetic run vectorised,
* ``log2`` over the small categorical expansion domain uses a per-value
  lookup table,
* per-architecture hash-seeded draws (idiosyncratic residual, scheme
  interaction, seed noise) stay per-architecture; each is O(1).

The kernels return *clean* values; fault injection composes on top exactly
as in the scalar path (see :meth:`SimulatedTrainer.train_batch`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.searchspace.mnasnet import ArchSpec, NUM_STAGES, decision_indices
from repro.searchspace.stage_table import get_stage_table
from repro.trainsim import accuracy_model as _am
from repro.trainsim import learning_curve as _lc
from repro.trainsim.schemes import EVAL_RESOLUTION, TrainingScheme


def supports_batch(archs: Sequence[object]) -> bool:
    """Whether the batch kernels cover every member of ``archs``.

    The kernels understand exactly the in-space MnasNet :class:`ArchSpec`
    (their FLOP counts come from the stage table's 36 configs); foreign spec
    types (e.g. the Proxyless space) and buildable off-space baselines (e.g.
    EfficientNet-B0's 4-layer stage) fall back to the scalar path.
    """
    if any(type(arch) is not ArchSpec for arch in archs):
        return False
    try:
        decision_indices(archs)
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class PopulationEncoding:
    """Per-stage decision arrays for a population of architectures.

    Attributes:
        archs: The encoded architectures (order-defining).
        expansion: ``(n, 7)`` int64 expansion factors.
        kernel: ``(n, 7)`` int64 kernel sizes.
        layers: ``(n, 7)`` int64 layer counts.
        se: ``(n, 7)`` int64 SE flags.
        flops: ``(n,)`` float64 exact per-model FLOPs (integer-valued).
    """

    archs: tuple[ArchSpec, ...]
    expansion: np.ndarray
    kernel: np.ndarray
    layers: np.ndarray
    se: np.ndarray
    flops: np.ndarray

    def __len__(self) -> int:
        return len(self.archs)


def encode_population(archs: Sequence[ArchSpec]) -> PopulationEncoding:
    """Encode ``archs`` once into the integer arrays the kernels consume.

    Raises:
        ValueError: if any arch is outside the search space (e.g. the
            EfficientNet-B0 baseline); the stage table has no cells for it.
            :meth:`SimulatedTrainer.train_batch` is the entry point that
            checks :func:`supports_batch` and falls back to the scalar loop.
    """
    archs = tuple(archs)
    return PopulationEncoding(
        archs=archs,
        expansion=np.asarray([a.expansion for a in archs], dtype=np.int64),
        kernel=np.asarray([a.kernel for a in archs], dtype=np.int64),
        layers=np.asarray([a.layers for a in archs], dtype=np.int64),
        se=np.asarray([a.se for a in archs], dtype=np.int64),
        flops=get_stage_table(EVAL_RESOLUTION).flops_for(archs),
    )


def _elementwise(fn: Callable[[float], float], values: np.ndarray) -> np.ndarray:
    """Apply a libm function per element (bitwise-matching ``math.*``)."""
    return np.asarray([fn(float(v)) for v in values], dtype=np.float64)


def _structural_term(pop: PopulationEncoding) -> np.ndarray:
    """Vectorised :func:`~repro.trainsim.accuracy_model.structural_term`."""
    log2_by_value = {
        int(v): math.log2(max(int(v), 1)) for v in np.unique(pop.expansion)
    }
    log2_e = np.vectorize(log2_by_value.get, otypes=[np.float64])(pop.expansion)
    total = np.zeros(len(pop), dtype=np.float64)
    for i in range(NUM_STAGES):
        has_se = pop.se[:, i] == 1
        # Masked adds replicate the scalar conditional skips exactly: the
        # running totals can never be -0.0, so adding 0.0 is the identity.
        total = total + np.where(has_se, _am._SE_BONUS[i], 0.0)
        total = total + np.where(
            has_se, _am._SE_DEPTH_INTERACTION * (pop.layers[:, i] - 1), 0.0
        )
        total = total + np.where(pop.kernel[:, i] >= 5, _am._K5_BONUS[i], 0.0)
        total = total + _am._DEPTH_BONUS[i] * np.sqrt(pop.layers[:, i] - 1)
        total = total + _am._EXPANSION_BONUS[i] * log2_e[:, i]
    return total


def _pairwise_term(pop: PopulationEncoding) -> np.ndarray:
    """Vectorised :func:`~repro.trainsim.accuracy_model.pairwise_term`."""
    pair_k5, pair_se_mismatch, pair_wide_deep, combo_ek = _am._pairwise_tables()
    total = np.zeros(len(pop), dtype=np.float64)
    for i in range(NUM_STAGES - 1):
        both_k5 = (pop.kernel[:, i] >= 5) & (pop.kernel[:, i + 1] >= 5)
        total = total + np.where(both_k5, pair_k5[i], 0.0)
        mismatch = pop.se[:, i] != pop.se[:, i + 1]
        total = total + np.where(mismatch, pair_se_mismatch[i], 0.0)
        wide_deep = (pop.expansion[:, i] >= 6) & (pop.layers[:, i + 1] == 3)
        total = total + np.where(wide_deep, pair_wide_deep[i], 0.0)
    e_idx = np.full(pop.expansion.shape, -1, dtype=np.int64)
    for value, j in _am._E_INDEX.items():
        e_idx[pop.expansion == value] = j
    k_idx = np.full(pop.kernel.shape, -1, dtype=np.int64)
    for value, j in _am._K_INDEX.items():
        k_idx[pop.kernel == value] = j
    for i in range(NUM_STAGES):
        present = (e_idx[:, i] >= 0) & (k_idx[:, i] >= 0)
        gathered = combo_ek[i][
            np.where(present, e_idx[:, i], 0), np.where(present, k_idx[:, i], 0)
        ]
        total = total + np.where(present, gathered, 0.0)
    return total


def _capacity_term(pop: PopulationEncoding) -> np.ndarray:
    """Vectorised :func:`~repro.trainsim.accuracy_model.capacity_term`."""
    log_flops = _elementwise(math.log10, pop.flops)
    exponent = _elementwise(
        math.exp, -(log_flops - _am._CAP_MID) / _am._CAP_SCALE
    )
    return _am._CAP_GAIN / (1.0 + exponent)


def _converged_fraction(
    pop: PopulationEncoding, scheme: TrainingScheme
) -> np.ndarray:
    """Vectorised :func:`~repro.trainsim.learning_curve.converged_fraction`."""
    ratio = pop.flops / _lc._REF_FLOPS
    tau = _lc._EPOCH_TAU_BASE * _elementwise(
        lambda r: r**_lc._EPOCH_TAU_CAP_EXP, ratio
    )
    epoch = 1.0 - _lc._EPOCH_DEFICIT * _elementwise(
        math.exp, -scheme.epochs / tau
    )
    k5_frac = (pop.kernel >= 5).sum(axis=1) / max(NUM_STAGES, 1)
    depth_frac = np.minimum(
        np.maximum((pop.layers.sum(axis=1) - 7) / 14.0, 0.0), 1.0
    )
    sensitivity = (
        1.0
        + _lc._RES_SENSITIVITY_K5 * k5_frac
        + _lc._RES_SENSITIVITY_DEPTH * depth_frac
    )
    deficit = max(0.0, 1.0 - scheme.res_end / EVAL_RESOLUTION)
    res = 1.0 - _lc._RES_PENALTY * deficit * sensitivity
    return epoch * res * _lc.batch_factor(scheme)


def expected_top1_batch(
    archs: Sequence[ArchSpec],
    scheme: TrainingScheme,
    dataset=None,
    pop: PopulationEncoding | None = None,
) -> np.ndarray:
    """Noise-free expected accuracies; bitwise equal to the scalar path.

    Matches ``[SimulatedTrainer(dataset=dataset).expected_top1(a, scheme)
    for a in archs]`` element for element.
    """
    pop = pop if pop is not None else encode_population(archs)
    structure = _capacity_term(pop) + (_structural_term(pop) + _pairwise_term(pop))
    if dataset is None or dataset.name == "imagenet":
        residual = np.asarray(
            [_am.idiosyncratic_residual(a) for a in pop.archs], dtype=np.float64
        )
        acc = _am._BASE_ACC + structure + residual
        ceiling = _am._ACC_CEIL
    else:
        salt = f"asymptotic-residual|{dataset.name}"
        residual = np.asarray(
            [
                float(
                    np.random.default_rng(a.stable_hash(salt)).uniform(
                        -_am._RESIDUAL_AMPLITUDE, _am._RESIDUAL_AMPLITUDE
                    )
                )
                for a in pop.archs
            ],
            dtype=np.float64,
        )
        acc = (
            _am._BASE_ACC
            + dataset.base_accuracy_shift
            + dataset.capacity_sensitivity * structure
            + residual
        )
        ceiling = min(_am._ACC_CEIL + dataset.base_accuracy_shift, 0.99)
    asymptotic = np.minimum(np.maximum(acc, _am._ACC_FLOOR), ceiling)
    interaction = np.asarray(
        [_lc.interaction(a, scheme) for a in pop.archs], dtype=np.float64
    )
    clean = asymptotic * _converged_fraction(pop, scheme)
    return np.clip(clean + interaction, 0.0, 1.0)


def clean_top1_batch(
    archs: Sequence[ArchSpec],
    scheme: TrainingScheme,
    seeds: int | Sequence[int] = 0,
    dataset=None,
    noise_scale: float = 1.0,
    pop: PopulationEncoding | None = None,
) -> np.ndarray:
    """Seeded (pre-fault) accuracies; bitwise equal to scalar ``train``.

    Args:
        archs: Population to evaluate.
        scheme: Training scheme.
        seeds: One shared seed or a per-architecture seed sequence.
        dataset: Trainer dataset binding (``None`` = ImageNet2012).
        noise_scale: The trainer's dataset noise scale.
        pop: Optional pre-built encoding (avoids re-encoding).

    Raises:
        ValueError: if any arch is outside the search space (see
            :func:`encode_population`).
    """
    pop = pop if pop is not None else encode_population(archs)
    expected = expected_top1_batch(pop.archs, scheme, dataset=dataset, pop=pop)
    if isinstance(seeds, (int, np.integer)):
        seeds = [int(seeds)] * len(pop)
    elif len(seeds) != len(pop):
        raise ValueError(f"{len(seeds)} seeds for {len(pop)} architectures")
    tag = "" if dataset is None else f"|{dataset.name}"
    std = _lc.seed_noise_std(scheme) * noise_scale
    noise = np.asarray(
        [
            np.random.default_rng(
                a.stable_hash(f"train-seed|{seed}|{scheme}{tag}")
            ).normal(0.0, std)
            for a, seed in zip(pop.archs, seeds)
        ],
        dtype=np.float64,
    )
    return np.clip(expected + noise, 0.0, 1.0)


def train_hours_batch(
    cost_model,
    archs: Sequence[ArchSpec],
    scheme: TrainingScheme,
    pop: PopulationEncoding | None = None,
) -> np.ndarray:
    """Vectorised GPU-hours; bitwise equal to ``cost_model.train_time_hours``.

    The per-epoch loop is preserved (elementwise operation order per epoch
    matches the scalar accumulation), only the architecture axis vectorises.
    Off-space archs raise ``ValueError`` (see :func:`encode_population`).
    """
    pop = pop if pop is not None else encode_population(archs)
    flops_224 = 3.0 * pop.flops  # forward+backward at eval resolution
    rate = cost_model.effective_rate(scheme.batch_size)
    seconds = np.zeros(len(pop), dtype=np.float64)
    for epoch in range(scheme.epochs):
        res_ratio_sq = (scheme.resolution_at(epoch) / EVAL_RESOLUTION) ** 2
        epoch_flops = cost_model.dataset_images * flops_224 * res_ratio_sq
        seconds = seconds + epoch_flops / rate
    return seconds / 3600.0 + scheme.epochs * cost_model.epoch_overhead_hours
