"""Per-stage layer tables: reconstruct any MnasNet model without a build.

The skeleton of the MnasNet space fixes every stage's input channels and
input resolution regardless of the decisions taken in *other* stages (stage
widths and strides are not searchable).  Consequently the IR layers of stage
``i`` depend only on ``(i, expansion, kernel, layers, se, resolution)`` — a
36-way table per stage — and a whole model's layer sequence is exactly

    stem layers + stage_0 layers + ... + stage_6 layers + head layers

in :func:`~repro.searchspace.model_builder.build_model` insertion order.

:class:`StageTable` materialises that table lazily from *probe* builds (one
real ``build_model`` call fills the rows of all seven stages) and serves
per-architecture layer sequences from dictionary lookups.  For the 36
in-space configurations it also keeps two ``(7, 36)`` int64 tables of
per-stage FLOPs and parameters, so exact whole-model totals for a batch are
one fancy-indexed sum (:meth:`StageTable.totals`).  This is the foundation
of the batch kernels in :mod:`repro.trainsim.batch` and
:mod:`repro.hwsim.batch` and of the ``onehot+global`` feature encoding:
evaluating a population of architectures no longer builds (or
shape-validates) any graphs beyond a bounded number of probes.

Exactness: FLOP/MAC/parameter counts are integers, so table sums equal
``count_graph(build_model(arch))`` exactly in any order.  Per-layer float
quantities (e.g. device timings) are kept as per-layer sequences so callers
can reduce them in the same left-to-right order as a real graph walk.
"""

from __future__ import annotations

import itertools
import threading
from typing import Sequence

import numpy as np

from repro.nn.layers import Layer
from repro.searchspace.mnasnet import (
    ArchSpec,
    DECISIONS,
    DEFAULT_RESOLUTION,
    NUM_STAGES,
    decision_indices,
)

# One stage config: (expansion, kernel, layers, se).
_StageKey = tuple[int, int, int, int]

# A stage config index is the row-major position of its choice indices,
# i.e. the order of ``itertools.product`` over the decisions' choices.
_CONFIG_DIMS = tuple(len(choices) for _, choices in DECISIONS)
_CONFIGS: tuple[_StageKey, ...] = tuple(
    itertools.product(*(choices for _, choices in DECISIONS))
)
_CONFIG_INDEX = {config: i for i, config in enumerate(_CONFIGS)}
NUM_CONFIGS = len(_CONFIGS)


def _uniform(config: _StageKey) -> ArchSpec:
    """The architecture with ``config`` in every stage."""
    return ArchSpec(*(tuple([value] * NUM_STAGES) for value in config))


def _arch_of(row: np.ndarray) -> ArchSpec:
    """The architecture whose per-stage config indices are ``row``."""
    stages = [_CONFIGS[c] for c in row]
    return ArchSpec(*(tuple(field) for field in zip(*stages)))


def config_indices(indices: np.ndarray) -> np.ndarray:
    """Per-stage config indices ``(n, NUM_STAGES)`` from choice indices.

    ``indices`` is the ``(n, 4, NUM_STAGES)`` tensor of
    :func:`~repro.searchspace.mnasnet.decision_indices`.
    """
    return np.ravel_multi_index(tuple(indices.transpose(1, 0, 2)), _CONFIG_DIMS)


def arch_configs(archs: Sequence[ArchSpec]) -> np.ndarray:
    """Per-stage config indices of in-space ``archs`` (ValueError otherwise)."""
    return config_indices(decision_indices(archs)[1])


class StageTable:
    """Lazily-built per-stage layer lookup for the MnasNet skeleton.

    Thread-safe: probe builds and lookups share one lock; the layer rows
    handed out are immutable tuples.

    Args:
        resolution: Input resolution the table is built for (one table per
            resolution; 224 covers every in-repo consumer).
    """

    def __init__(self, resolution: int = DEFAULT_RESOLUTION) -> None:
        self.resolution = resolution
        self._lock = threading.Lock()
        # (stage, e, k, L, se) -> tuple[Layer, ...]
        self._stages: dict[tuple[int, int, int, int, int], tuple[Layer, ...]] = {}
        self._stem: tuple[Layer, ...] | None = None
        self._head: tuple[Layer, ...] | None = None
        # Exact integer totals: stem + head, and per (stage, config index).
        self._fixed_flops = 0
        self._fixed_params = 0
        self._flops = np.zeros((NUM_STAGES, NUM_CONFIGS), dtype=np.int64)
        self._params = np.zeros((NUM_STAGES, NUM_CONFIGS), dtype=np.int64)
        self._filled = np.zeros((NUM_STAGES, NUM_CONFIGS), dtype=bool)

    # ----------------------------------------------------------------- probes

    def _probe(self, arch: ArchSpec) -> None:
        """Build ``arch`` and slice its layers into the table.

        Each stage's fixed input channels/resolution make its slice reusable
        verbatim in any architecture with the same decisions in that stage,
        so one build fills seven (stage, config) rows (and, for in-space
        configs, their FLOP/param cells) plus the config-independent stem
        and head rows.
        """
        from repro.searchspace.model_builder import build_model

        graph = build_model(arch, resolution=self.resolution)
        groups: dict[str, list[Layer]] = {}
        for layer in graph:
            prefix = layer.name.split(".", 1)[0]
            groups.setdefault(prefix, []).append(layer)
        if self._stem is None:
            self._stem = tuple(groups["stem"])
            self._head = tuple(groups["head"])
            fixed = self._stem + self._head
            self._fixed_flops = sum(layer.flops for layer in fixed)
            self._fixed_params = sum(layer.params for layer in fixed)
        for stage in range(NUM_STAGES):
            config = (
                arch.expansion[stage],
                arch.kernel[stage],
                arch.layers[stage],
                arch.se[stage],
            )
            row = tuple(groups[f"s{stage}"])
            self._stages[(stage, *config)] = row
            column = _CONFIG_INDEX.get(config)
            if column is not None:
                self._flops[stage, column] = sum(layer.flops for layer in row)
                self._params[stage, column] = sum(layer.params for layer in row)
                self._filled[stage, column] = True

    def _fill(self, configs: np.ndarray, missing: np.ndarray) -> None:
        """Probe until every cell ``configs`` needs is filled.

        Two covers are exact, and the one with fewer builds is taken: the
        batch's own rows that miss a cell (a one-arch first query costs one
        build, as encoding it by a model build would), or one uniform probe
        per missing config (at most 36, however large the batch).
        """
        rows = configs[missing.any(axis=1)]
        columns = np.unique(configs[missing])
        if len(columns) < len(rows):
            rows = np.repeat(columns[:, None], NUM_STAGES, axis=1)
        stages = np.arange(NUM_STAGES)
        for row in rows:
            if not self._filled[stages, row].all():
                self._probe(_arch_of(row))

    def _stage_layers_locked(
        self, stage: int, e: int, k: int, layers: int, se: int
    ) -> tuple[Layer, ...]:
        key = (stage, e, k, layers, se)
        row = self._stages.get(key)
        if row is None:
            self._probe(_uniform((e, k, layers, se)))
            row = self._stages[key]
        return row

    # ---------------------------------------------------------------- lookups

    def stem_layers(self) -> tuple[Layer, ...]:
        """The config-independent stem layer sequence."""
        with self._lock:
            if self._stem is None:
                self._probe(_uniform((1, 3, 1, 0)))
            return self._stem  # type: ignore[return-value]

    def head_layers(self) -> tuple[Layer, ...]:
        """The config-independent head layer sequence."""
        with self._lock:
            if self._stem is None:
                self._probe(_uniform((1, 3, 1, 0)))
            return self._head  # type: ignore[return-value]

    def stage_layers(
        self, stage: int, e: int, k: int, layers: int, se: int
    ) -> tuple[Layer, ...]:
        """The layer sequence of one stage under one decision tuple."""
        with self._lock:
            return self._stage_layers_locked(stage, e, k, layers, se)

    def layers_for(self, arch: ArchSpec) -> list[Layer]:
        """The exact layer sequence ``build_model(arch)`` would produce."""
        with self._lock:
            if self._stem is None:
                self._probe(_uniform((1, 3, 1, 0)))
            out: list[Layer] = list(self._stem)  # type: ignore[arg-type]
            for stage in range(NUM_STAGES):
                out.extend(
                    self._stage_layers_locked(
                        stage,
                        arch.expansion[stage],
                        arch.kernel[stage],
                        arch.layers[stage],
                        arch.se[stage],
                    )
                )
            out.extend(self._head)  # type: ignore[arg-type]
        return out

    def totals(self, configs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact whole-model ``(flops, params)`` as int64 arrays.

        ``configs`` is an ``(n, NUM_STAGES)`` array of config indices (see
        :func:`config_indices`).  Only cells no earlier call filled are
        probed (see :meth:`_fill`).  Integer sums make the result equal
        ``count_graph(build_model(a))`` exactly.
        """
        configs = np.asarray(configs, dtype=np.intp).reshape(-1, NUM_STAGES)
        stages = np.arange(NUM_STAGES)
        with self._lock:
            missing = ~self._filled[stages, configs]
            if missing.any():
                self._fill(configs, missing)
            flops = self._flops[stages, configs].sum(axis=1) + self._fixed_flops
            params = self._params[stages, configs].sum(axis=1) + self._fixed_params
        return flops, params

    def flops_for(self, archs: Sequence[ArchSpec]) -> np.ndarray:
        """Exact per-arch FLOP counts of in-space ``archs`` as float64.

        Raises:
            ValueError: if any arch is outside the search space (see
                :func:`~repro.searchspace.mnasnet.decision_indices`).
        """
        return self.totals(arch_configs(archs))[0].astype(np.float64)


_TABLES: dict[int, StageTable] = {}
_TABLES_LOCK = threading.Lock()


def get_stage_table(resolution: int = DEFAULT_RESOLUTION) -> StageTable:
    """Shared per-resolution :class:`StageTable` instance."""
    with _TABLES_LOCK:
        table = _TABLES.get(resolution)
        if table is None:
            table = StageTable(resolution)
            _TABLES[resolution] = table
        return table
