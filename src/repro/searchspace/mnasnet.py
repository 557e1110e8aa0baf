"""Architecture specification and search-space operations for MnasNet.

The spec intentionally separates the *searchable* decisions (expansion,
kernel, depth, SE per stage) from the *fixed* network skeleton (stage widths,
strides, stem/head), which follows the EfficientNet-B0 backbone that defines
this space in the paper.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

NUM_STAGES = 7

EXPANSION_CHOICES: tuple[int, ...] = (1, 4, 6)
KERNEL_CHOICES: tuple[int, ...] = (3, 5)
LAYER_CHOICES: tuple[int, ...] = (1, 2, 3)
SE_CHOICES: tuple[int, ...] = (0, 1)

# The four searchable decisions of a stage, in encoding order.
DECISIONS: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("expansion", EXPANSION_CHOICES),
    ("kernel", KERNEL_CHOICES),
    ("layers", LAYER_CHOICES),
    ("se", SE_CHOICES),
)


@dataclass(frozen=True)
class StageSetting:
    """Fixed (non-searchable) skeleton parameters of one stage."""

    out_channels: int
    stride: int


# EfficientNet-B0 / MnasNet backbone skeleton: widths and strides per stage.
STAGE_SETTINGS: tuple[StageSetting, ...] = (
    StageSetting(16, 1),
    StageSetting(24, 2),
    StageSetting(40, 2),
    StageSetting(80, 2),
    StageSetting(112, 1),
    StageSetting(192, 2),
    StageSetting(320, 1),
)

STEM_CHANNELS = 32
HEAD_CHANNELS = 1280
NUM_CLASSES = 1000
DEFAULT_RESOLUTION = 224


@dataclass(frozen=True)
class ArchSpec:
    """One architecture in the MnasNet space.

    Attributes:
        expansion: Per-stage MBConv expansion factors (length 7).
        kernel: Per-stage depthwise kernel sizes (length 7).
        layers: Per-stage layer repeat counts (length 7).
        se: Per-stage squeeze-excitation flags, 0 or 1 (length 7).

    Instances are hashable and canonically serializable; they are the keys of
    every dataset and benchmark query in the library.
    """

    expansion: tuple[int, ...]
    kernel: tuple[int, ...]
    layers: tuple[int, ...]
    se: tuple[int, ...]

    def __post_init__(self) -> None:
        for field_name, values in (
            ("expansion", self.expansion),
            ("kernel", self.kernel),
            ("layers", self.layers),
            ("se", self.se),
        ):
            if len(values) != NUM_STAGES:
                raise ValueError(
                    f"{field_name} must have {NUM_STAGES} entries, "
                    f"got {len(values)}"
                )
        if any(e < 1 for e in self.expansion):
            raise ValueError("expansion factors must be >= 1")
        if any(k < 1 or k % 2 == 0 for k in self.kernel):
            raise ValueError("kernel sizes must be positive and odd")
        if any(n < 1 for n in self.layers):
            raise ValueError("layer counts must be >= 1")
        if any(s not in (0, 1) for s in self.se):
            raise ValueError("se flags must be 0 or 1")

    def to_string(self) -> str:
        """Canonical compact string, e.g. ``e1k3L1se0|e6k5L2se1|...``."""
        return "|".join(
            f"e{e}k{k}L{n}se{s}"
            for e, k, n, s in zip(self.expansion, self.kernel, self.layers, self.se)
        )

    @classmethod
    def from_string(cls, text: str) -> "ArchSpec":
        """Parse the canonical string form produced by :meth:`to_string`."""
        blocks = text.strip().split("|")
        if len(blocks) != NUM_STAGES:
            raise ValueError(f"expected {NUM_STAGES} stages, got {len(blocks)}")
        e, k, n, s = [], [], [], []
        for block in blocks:
            # Explicit checks, not asserts: input validation must survive
            # ``python -O``.
            if not block.startswith("e"):
                raise ValueError(f"malformed stage spec {block!r}")
            try:
                e_val, rest = block[1:].split("k", 1)
                k_val, rest = rest.split("L", 1)
                n_val, s_val = rest.split("se", 1)
                e.append(int(e_val))
                k.append(int(k_val))
                n.append(int(n_val))
                s.append(int(s_val))
            except ValueError as exc:
                raise ValueError(f"malformed stage spec {block!r}") from exc
        return cls(tuple(e), tuple(k), tuple(n), tuple(s))

    def to_dict(self) -> dict:
        """JSON-friendly dict form."""
        return {
            "expansion": list(self.expansion),
            "kernel": list(self.kernel),
            "layers": list(self.layers),
            "se": list(self.se),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ArchSpec":
        """Inverse of :meth:`to_dict`."""
        return cls(
            tuple(data["expansion"]),
            tuple(data["kernel"]),
            tuple(data["layers"]),
            tuple(data["se"]),
        )

    def stable_hash(self, salt: str = "") -> int:
        """Deterministic 64-bit hash of the architecture.

        Unlike Python's builtin ``hash`` this is stable across processes, so
        it can seed architecture-intrinsic randomness reproducibly.
        """
        digest = hashlib.blake2b(
            (salt + self.to_string()).encode(), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big")

    @property
    def total_layers(self) -> int:
        """Total MBConv layer count across all stages."""
        return sum(self.layers)

    def kernel_sizes(self) -> tuple[int, ...]:
        """Kernel size per searchable unit (per stage for this space)."""
        return self.kernel

    def to_dict_tuples(self) -> dict:
        """Field dict with tuple values, for rebuilding modified copies."""
        return {
            "expansion": self.expansion,
            "kernel": self.kernel,
            "layers": self.layers,
            "se": self.se,
        }


def _int64_or_minus_one(value: object) -> int:
    """``value`` as an int if it is an int64-range integer, else ``-1``."""
    if isinstance(value, (int, np.integer)) and -(2**63) <= value < 2**63:
        return int(value)
    return -1


def decision_indices(archs: Sequence[ArchSpec]) -> tuple[np.ndarray, np.ndarray]:
    """Every decision of ``archs`` as ``(values, indices)`` tensors.

    Both are ``(n, len(DECISIONS), NUM_STAGES)`` int64: ``values[i, f, s]`` is
    decision ``f`` (in :data:`DECISIONS` order) of stage ``s`` of
    ``archs[i]``, and ``indices`` is its position in that decision's choices.

    Raises:
        ValueError: naming the first architecture, its index in ``archs``,
            and the stage and decision whose value is not a choice of the
            space (e.g. ``e99`` or the 4-layer stage of EfficientNet-B0,
            which can be built but not queried).
    """
    n = len(archs)
    # One flat 28-tuple per arch, concatenated in DECISIONS order.
    rows = [a.expansion + a.kernel + a.layers + a.se for a in archs]
    values = np.array(rows)
    if values.dtype.kind not in "iub":
        # A float, or an int beyond int64, is no choice of the space either:
        # map it to -1, which no decision offers (the error names the raw
        # value from ``rows``).
        values = np.array(
            [[_int64_or_minus_one(v) for v in row] for row in rows],
            dtype=np.int64,
        )
    values = values.astype(np.int64, copy=False)
    values = values.reshape(n, len(DECISIONS), NUM_STAGES)
    indices = np.empty_like(values)
    off_space = np.zeros(values.shape, dtype=bool)
    for f, (_, choices) in enumerate(DECISIONS):
        c = np.asarray(choices, dtype=np.int64)
        pos = np.minimum(np.searchsorted(c, values[:, f]), len(c) - 1)
        indices[:, f] = pos
        off_space[:, f] = c[pos] != values[:, f]
    if off_space.any():
        i, f, s = (int(v) for v in np.argwhere(off_space)[0])
        name, choices = DECISIONS[f]
        raise ValueError(
            f"architecture {archs[i].to_string()!r} at index {i} is outside "
            f"the search space: stage {s} {name}={rows[i][f * NUM_STAGES + s]} is not "
            f"one of {choices}"
        )
    return values, indices


class MnasNetSearchSpace:
    """Sampling, mutation and enumeration over the MnasNet space.

    All randomness flows through a :class:`numpy.random.Generator`, either
    passed per call or derived from the constructor seed.
    """

    DECISIONS = DECISIONS

    def __init__(self, seed: int | None = None) -> None:
        self._rng = np.random.default_rng(seed)

    @property
    def size(self) -> int:
        """Exact number of unique architectures."""
        per_stage = 1
        for _, choices in self.DECISIONS:
            per_stage *= len(choices)
        return per_stage**NUM_STAGES

    def _generator(self, rng: np.random.Generator | None) -> np.random.Generator:
        return rng if rng is not None else self._rng

    def sample(self, rng: np.random.Generator | None = None) -> ArchSpec:
        """Draw one architecture uniformly at random."""
        gen = self._generator(rng)
        values: dict[str, tuple[int, ...]] = {}
        for field_name, choices in self.DECISIONS:
            idx = gen.integers(0, len(choices), size=NUM_STAGES)
            values[field_name] = tuple(int(choices[i]) for i in idx)
        return ArchSpec(**values)

    def sample_batch(
        self, n: int, rng: np.random.Generator | None = None, unique: bool = False
    ) -> list[ArchSpec]:
        """Draw ``n`` architectures; optionally reject duplicates."""
        gen = self._generator(rng)
        if not unique:
            return [self.sample(gen) for _ in range(n)]
        if n > self.size:
            raise ValueError(f"cannot draw {n} unique archs from space of {self.size}")
        seen: set[ArchSpec] = set()
        out: list[ArchSpec] = []
        while len(out) < n:
            arch = self.sample(gen)
            if arch not in seen:
                seen.add(arch)
                out.append(arch)
        return out

    def mutate(
        self, arch: ArchSpec, rng: np.random.Generator | None = None
    ) -> ArchSpec:
        """Return a copy of ``arch`` with one random decision resampled.

        This is the mutation operator used by regularized evolution: pick a
        uniformly random (stage, decision) pair and change it to a different
        valid value.
        """
        gen = self._generator(rng)
        stage = int(gen.integers(0, NUM_STAGES))
        field_name, choices = self.DECISIONS[int(gen.integers(0, len(self.DECISIONS)))]
        current = getattr(arch, field_name)
        alternatives = [c for c in choices if c != current[stage]]
        new_value = int(alternatives[int(gen.integers(0, len(alternatives)))])
        updated = list(current)
        updated[stage] = new_value
        return ArchSpec(**{**arch.to_dict_tuples(), field_name: tuple(updated)})

    def neighbors(self, arch: ArchSpec) -> Iterator[ArchSpec]:
        """Yield every architecture one decision change away from ``arch``."""
        for field_name, choices in self.DECISIONS:
            current = getattr(arch, field_name)
            for stage in range(NUM_STAGES):
                for choice in choices:
                    if choice == current[stage]:
                        continue
                    updated = list(current)
                    updated[stage] = int(choice)
                    yield ArchSpec(
                        **{**arch.to_dict_tuples(), field_name: tuple(updated)}
                    )

    def enumerate_stage_configs(self) -> Iterator[tuple[int, int, int, int]]:
        """Enumerate all (e, k, L, se) combinations of a single stage."""
        yield from itertools.product(
            EXPANSION_CHOICES, KERNEL_CHOICES, LAYER_CHOICES, SE_CHOICES
        )

    @staticmethod
    def contains(arch: ArchSpec) -> bool:
        """Check whether ``arch`` lies inside the searchable space.

        Baseline models (e.g. EfficientNet-B0 with a 4-layer stage) can be
        *built* and *measured* but are not necessarily members of the space.
        Membership is :func:`decision_indices`' rule, so whatever this
        accepts the encoder and stage table can index.
        """
        try:
            decision_indices([arch])
        except ValueError:
            return False
        return True

    # Generic decision-site interface (shared with other search spaces; the
    # factorised REINFORCE policy is written against it).

    def decision_sites(self) -> list[tuple[str, tuple[int, ...]]]:
        """Ordered (site name, choices) pairs covering every decision."""
        return [
            (f"s{stage}.{name}", choices)
            for stage in range(NUM_STAGES)
            for name, choices in self.DECISIONS
        ]

    def arch_to_decisions(self, arch: ArchSpec) -> dict[str, int]:
        """Flatten an architecture into its per-site decision values."""
        return {
            f"s{stage}.{name}": getattr(arch, name)[stage]
            for stage in range(NUM_STAGES)
            for name, _ in self.DECISIONS
        }

    def arch_from_decisions(self, decisions: dict[str, int]) -> ArchSpec:
        """Inverse of :meth:`arch_to_decisions`."""
        values = {name: [] for name, _ in self.DECISIONS}
        for stage in range(NUM_STAGES):
            for name, _ in self.DECISIONS:
                values[name].append(int(decisions[f"s{stage}.{name}"]))
        return ArchSpec(**{k: tuple(v) for k, v in values.items()})
