"""Smoke tests: the example scripts' core logic at reduced scale.

The examples double as user-facing documentation; these tests import their
``main`` logic where it is cheap, or replicate the scenario at a smaller
size where running the script verbatim would be slow.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro import AccelNASBench, P_STAR
from repro.core.metrics import kendall_tau
from repro.hwsim import MeasurementHarness, get_device
from repro.nn import count_graph
from repro.searchspace import MnasNetSearchSpace, build_model

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _load_example(name: str):
    """Import ``examples/<name>.py`` as a module (without running ``main``)."""
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDeviceRankingScenario:
    """examples/device_ranking_study.py at reduced size."""

    def test_flops_is_worse_proxy_for_fpga_than_gpu(self):
        space = MnasNetSearchSpace(seed=11)
        archs = space.sample_batch(50, unique=True)
        flops = np.asarray([count_graph(build_model(a)).flops for a in archs])
        gpu = np.asarray(
            [MeasurementHarness(get_device("a100")).measure_throughput(a) for a in archs]
        )
        fpga = np.asarray(
            [MeasurementHarness(get_device("zcu102")).measure_throughput(a) for a in archs]
        )
        tau_gpu = kendall_tau(-flops, gpu)
        tau_fpga = kendall_tau(-flops, fpga)
        assert tau_gpu > tau_fpga + 0.1


class TestQuickstartScenario:
    """examples/quickstart.py at reduced size."""

    def test_build_and_query_cycle(self):
        bench, reports = AccelNASBench.build(
            P_STAR, num_archs=150, devices={"vck190": ("throughput",)}
        )
        assert all(r.r2 > 0.4 for r in reports)
        arch = MnasNetSearchSpace(seed=7).sample()
        result = bench.query(arch, device="vck190", metric="throughput")
        assert 0.5 < result.accuracy < 0.9
        assert result.performance > 0
        # The example's own baseline report: EdgeTPU-S is answered on every
        # target, EfficientNet-B0 (a 4-layer stage) is refused by name.
        lines = _load_example("quickstart").describe_baselines(bench)
        assert len(lines) == 2 + len(bench.targets) + 1
        assert "img/s" in lines[2]
        assert "EfficientNet-B0 is not answered" in lines[-1]
        assert "stage 5 layers=4" in lines[-1]


class TestGeneralizabilityScenario:
    """examples/generalizability_study.py at reduced size."""

    def test_cross_dataset_rank_correlation_moderate(self):
        from repro.core.dataset import collect_accuracy_dataset, sample_dataset_archs
        from repro.trainsim import IMAGENET100, SimulatedTrainer

        archs = sample_dataset_archs(80, seed=0)
        imagenet = collect_accuracy_dataset(archs, P_STAR)
        small = collect_accuracy_dataset(
            archs, P_STAR, trainer=SimulatedTrainer(dataset=IMAGENET100)
        )
        tau = kendall_tau(imagenet.values, small.values)
        assert 0.3 < tau < 0.98  # correlated, but a misleading search proxy
