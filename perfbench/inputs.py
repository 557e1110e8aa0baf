"""Benchmark-owned input streams.

Only the search-space *choices* come from the program; which archs are
drawn, mutated and repeated is decided here from ``--seed``.
"""

from __future__ import annotations

from collections import deque

import numpy as np

import common

common.import_program()

from repro.searchspace.mnasnet import NUM_STAGES, ArchSpec, MnasNetSearchSpace  # noqa: E402

DECISIONS = MnasNetSearchSpace.DECISIONS

# search-novel: a batched regularized-evolution step of 64 archs, 58 of
# them never seen by this process (the encode-miss path) and 6 re-queried
# tournament winners.  The aging population spans ~9 generations so that
# selection drifts slowly and seeds land on archs of similar cost.
POPULATION, NOVEL, PARENTS, TOURNAMENT = 512, 58, 6, 16
# sweep-pool: 512-arch slices of a 1,024-arch pool warmed during set-up.
POOL, SLICE = 1024, 512


class ArchStream:
    """Benchmark-owned arch generator that never repeats an arch."""

    def __init__(self, seed: int, stream: int) -> None:
        self.rng = np.random.default_rng([seed, stream])
        self.seen: set[ArchSpec] = set()

    def _make(self, values: dict) -> ArchSpec:
        return ArchSpec(**{k: tuple(int(x) for x in v) for k, v in values.items()})

    def random(self) -> ArchSpec:
        while True:
            arch = self._make(
                {
                    name: [choices[i] for i in self.rng.integers(0, len(choices), NUM_STAGES)]
                    for name, choices in DECISIONS
                }
            )
            if arch not in self.seen:
                self.seen.add(arch)
                return arch

    def mutate(self, arch: ArchSpec) -> ArchSpec:
        """Change one decision; keep changing more until the arch is new.

        A parent picked often runs out of unseen one-step neighbours, so
        mutations accumulate rather than retrying from the parent.
        """
        child = arch
        while True:
            name, choices = DECISIONS[int(self.rng.integers(0, len(DECISIONS)))]
            stage = int(self.rng.integers(0, NUM_STAGES))
            values = {n: list(getattr(child, n)) for n, _ in DECISIONS}
            others = [c for c in choices if c != values[name][stage]]
            values[name][stage] = others[int(self.rng.integers(0, len(others)))]
            child = self._make(values)
            if child not in self.seen:
                self.seen.add(child)
                return child


class SearchNovel:
    """Regularized evolution, batched: each call is one generation."""

    def __init__(self, seed: int) -> None:
        self.stream = ArchStream(seed, 1)
        self.population: deque = deque()

    def probe(self) -> list[ArchSpec]:
        return [self.stream.random()]

    def warm(self, bench) -> None:
        """The optimizer's initial population, answered before timing."""
        archs = [self.stream.random() for _ in range(POPULATION)]
        results = bench.query_batch(archs, *common.TARGETS[0])
        self.population.extend((r.arch, r.accuracy) for r in results)

    def next_call(self) -> tuple[list[ArchSpec], int]:
        rng = self.stream.rng
        members = list(self.population)
        winners: list[ArchSpec] = []
        while len(winners) < PARENTS:
            picks = rng.choice(len(members), TOURNAMENT, replace=False)
            best = max((members[i] for i in picks), key=lambda m: m[1])[0]
            if best not in winners:
                winners.append(best)
        children = [
            self.stream.mutate(winners[int(rng.integers(0, PARENTS))])
            for _ in range(NOVEL)
        ]
        return winners + children, NOVEL

    def feedback(self, results) -> None:
        for r in results[PARENTS:]:
            self.population.append((r.arch, r.accuracy))
        while len(self.population) > POPULATION:
            self.population.popleft()


class SweepPool:
    """Repeated 512-arch slices of one pool: every row is an encode hit."""

    def __init__(self, seed: int) -> None:
        self.stream = ArchStream(seed, 2)
        self.pool = [self.stream.random() for _ in range(POOL)]

    def probe(self) -> list[ArchSpec]:
        return self.pool

    def warm(self, bench) -> None:
        pass

    def next_call(self) -> tuple[list[ArchSpec], int]:
        start = int(self.stream.rng.integers(0, POOL))
        return [self.pool[(start + i) % POOL] for i in range(SLICE)], 0

    def feedback(self, results) -> None:
        pass


QUERY_WORKLOADS = {"search-novel": (SearchNovel, "py"), "sweep-pool": (SweepPool, "np")}
