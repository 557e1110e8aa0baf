"""Feature encodings that map architectures to surrogate-model inputs.

The paper's surrogates consume "architecture specifications, such as operation
types, filter sizes, layer specifications" — i.e. a tabular encoding of the
per-stage decisions.  Three encodings are provided:

``onehot``
    One-hot per (stage, decision) pair: 7 stages x (3+2+3+2) = 70 columns.
    The default, and what tree ensembles handle best on categorical spaces.
``integer``
    Raw decision values: 7 stages x 4 = 28 columns.
``onehot+global``
    One-hot plus global summary statistics (log-FLOPs, log-params, depth,
    SE count), used by the feature-encoding ablation.

Encoding is the per-query hot path of a built benchmark, so
:meth:`FeatureEncoder.encode` is vectorised over the batch and backed by an
arch-keyed LRU cache: only rows for architectures never seen before are
computed, and repeat queries (optimizer populations, repeated single-arch
queries) are served straight from the cache.  A miss builds no graph: the
global statistics come from the exact integer FLOP/param tables of
:class:`~repro.searchspace.stage_table.StageTable`.  Cached rows are
immutable (``writeable=False``) and bit-identical to what
:meth:`encode_one`, the scalar reference implementation that builds the
model, produces.

Every encoding accepts only architectures inside the search space; any
other raises :class:`ValueError` naming the architecture, stage and decision
(an off-space one-hot row would silently be all zeros).
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro.nn.counters import count_graph
from repro.searchspace.mnasnet import (
    ArchSpec,
    DECISIONS,
    NUM_STAGES,
    decision_indices,
)
from repro.searchspace.model_builder import build_model
from repro.searchspace.stage_table import config_indices, get_stage_table

ENCODINGS = ("onehot", "integer", "onehot+global")

DEFAULT_CACHE_SIZE = 16384


class FeatureEncoder:
    """Encode :class:`ArchSpec` instances as fixed-width float matrices.

    Args:
        encoding: One of :data:`ENCODINGS`.
        cache_size: Capacity of the arch-keyed LRU row cache; ``0`` disables
            caching (every call re-encodes).  The cache is thread-safe so one
            encoder can be shared by a parallel benchmark build.
    """

    def __init__(
        self, encoding: str = "onehot", cache_size: int = DEFAULT_CACHE_SIZE
    ) -> None:
        if encoding not in ENCODINGS:
            raise ValueError(f"unknown encoding {encoding!r}; choose from {ENCODINGS}")
        if cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        self.encoding = encoding
        self.cache_size = int(cache_size)
        self._cache: OrderedDict[ArchSpec, np.ndarray] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    @property
    def num_features(self) -> int:
        """Width of the encoded feature vector."""
        onehot = NUM_STAGES * sum(len(c) for _, c in DECISIONS)
        if self.encoding == "onehot":
            return onehot
        if self.encoding == "integer":
            return NUM_STAGES * len(DECISIONS)
        return onehot + 4

    def feature_names(self) -> list[str]:
        """Human-readable column names aligned with :meth:`encode` output."""
        names: list[str] = []
        if self.encoding == "integer":
            for stage in range(NUM_STAGES):
                for field_name, _ in DECISIONS:
                    names.append(f"s{stage}.{field_name}")
            return names
        for stage in range(NUM_STAGES):
            for field_name, choices in DECISIONS:
                for choice in choices:
                    names.append(f"s{stage}.{field_name}={choice}")
        if self.encoding == "onehot+global":
            names.extend(["log_flops", "log_params", "total_layers", "num_se"])
        return names

    # ------------------------------------------------------------------ cache

    def cache_info(self) -> dict:
        """Cache statistics: hits, misses, current size and capacity."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "size": len(self._cache),
                "capacity": self.cache_size,
            }

    def cache_clear(self) -> None:
        """Drop all cached rows and reset the hit/miss counters."""
        with self._lock:
            self._cache.clear()
            self._hits = 0
            self._misses = 0

    # ----------------------------------------------------------------- encode

    def encode_one(self, arch: ArchSpec) -> np.ndarray:
        """Encode a single architecture to a 1-D float64 vector.

        This is the scalar reference implementation; :meth:`encode` is the
        vectorised, cached batch path and is asserted bit-identical to it.
        Its global statistics count a freshly built model.
        """
        decision_indices([arch])  # the same space-membership rule as encode
        if self.encoding == "integer":
            row = []
            for stage in range(NUM_STAGES):
                for field_name, _ in DECISIONS:
                    row.append(float(getattr(arch, field_name)[stage]))
            return np.asarray(row, dtype=np.float64)

        row = []
        for stage in range(NUM_STAGES):
            for field_name, choices in DECISIONS:
                value = getattr(arch, field_name)[stage]
                row.extend(1.0 if value == choice else 0.0 for choice in choices)
        if self.encoding == "onehot+global":
            counters = count_graph(build_model(arch))
            row.extend(
                (
                    math.log10(counters.flops),
                    math.log10(counters.params),
                    float(arch.total_layers),
                    float(sum(arch.se)),
                )
            )
        return np.asarray(row, dtype=np.float64)

    def _encode_rows(self, archs: Sequence[ArchSpec]) -> np.ndarray:
        """Vectorised batch encode (no cache); returns an (n, d) matrix."""
        n = len(archs)
        # Decisions and their choice indices as (n, num_fields, NUM_STAGES)
        # integer tensors; raises on any off-space decision.
        dec, idx = decision_indices(archs)
        if self.encoding == "integer":
            # Column order is stage-major: (s0.e, s0.k, s0.L, s0.se, s1.e, ...).
            return np.ascontiguousarray(
                dec.transpose(0, 2, 1).reshape(n, -1).astype(np.float64)
            )
        blocks = [
            idx[:, f, :, None] == np.arange(len(choices))
            for f, (_, choices) in enumerate(DECISIONS)
        ]
        onehot = np.concatenate(blocks, axis=2).astype(np.float64).reshape(n, -1)
        if self.encoding != "onehot+global":
            return np.ascontiguousarray(onehot)
        flops, params = get_stage_table().totals(config_indices(idx))
        # math.log10 on the exact ints, per element: NumPy's SIMD log10 is
        # not guaranteed to match libm to the last ulp.
        stats = np.empty((n, 4), dtype=np.float64)
        stats[:, 0] = [math.log10(f) for f in flops.tolist()]
        stats[:, 1] = [math.log10(p) for p in params.tolist()]
        stats[:, 2] = dec[:, 2].sum(axis=1)
        stats[:, 3] = dec[:, 3].sum(axis=1)
        return np.ascontiguousarray(np.concatenate([onehot, stats], axis=1))

    def encode(self, archs: Sequence[ArchSpec]) -> np.ndarray:
        """Encode a batch of architectures to an ``(n, num_features)`` matrix.

        Rows for architectures already in the LRU cache are reused; only
        missing rows are computed (in one vectorised pass).
        """
        archs = list(archs)
        if not archs:
            return np.empty((0, self.num_features), dtype=np.float64)
        if self.cache_size == 0:
            return self._encode_rows(archs)

        rows: dict[ArchSpec, np.ndarray] = {}
        hits: list[ArchSpec] = []
        missing: list[ArchSpec] = []
        with self._lock:
            for arch in archs:
                if arch in rows:
                    continue
                cached = self._cache.get(arch)
                if cached is not None:
                    hits.append(arch)
                    rows[arch] = cached
                else:
                    missing.append(arch)
                    rows[arch] = np.empty(0)  # placeholder, filled below

        # Encode before touching the cache: a batch rejected for an
        # off-space arch leaves the rows, their order and the counters as
        # they were.
        fresh = self._encode_rows(missing) if missing else None
        with self._lock:
            self._hits += len(hits)
            self._misses += len(missing)
            for arch in hits:
                if arch in self._cache:  # may have been evicted meanwhile
                    self._cache.move_to_end(arch)
            if fresh is not None:
                fresh.flags.writeable = False
                for arch, row in zip(missing, fresh):
                    rows[arch] = row
                    self._cache[arch] = row
                    self._cache.move_to_end(arch)
                while len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)

        out = np.empty((len(archs), self.num_features), dtype=np.float64)
        for i, arch in enumerate(archs):
            out[i] = rows[arch]
        return out
