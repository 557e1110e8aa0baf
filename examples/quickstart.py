"""Quickstart: build a small Accel-NASBench and query it.

Builds the benchmark from an 800-architecture collection (the paper uses
5.2k; smaller keeps this example under a minute), then answers zero-cost
queries: the accuracy of EfficientNet-EdgeTPU-S, its predicted performance
on every accelerator, and a random architecture's bi-objective profile.
EfficientNet-B0 has a 4-layer stage, outside the search space, so the
benchmark refuses to answer for it (its true values come from the trainer
and measurement harness, as in ``accelerator_aware_search.py``).

Run:  python examples/quickstart.py
"""

from repro import AccelNASBench, MnasNetSearchSpace, P_STAR
from repro.searchspace.baselines import EFFICIENTNET_B0, EFFICIENTNET_EDGETPU_S


def describe_baselines(bench: AccelNASBench) -> list[str]:
    """Report lines for the baseline queries: one in-space, one off-space."""
    edgetpu = EFFICIENTNET_EDGETPU_S.arch
    lines = [
        f"EfficientNet-EdgeTPU-S = {edgetpu.to_string()}",
        f"  predicted top-1 (proxy scheme): {bench.query_accuracy(edgetpu):.4f}",
    ]
    for device, metric in bench.targets:
        value = bench.query_performance(edgetpu, device, metric)
        unit = "ms" if metric == "latency" else "img/s"
        lines.append(f"  predicted {metric:10s} on {device:8s}: {value:9.1f} {unit}")
    try:
        bench.query_accuracy(EFFICIENTNET_B0.arch)
    except ValueError as exc:
        lines.append(f"EfficientNet-B0 is not answered: {exc}")
    return lines


def main() -> None:
    print("Building Accel-NASBench (800 archs, XGB surrogates)...")
    bench, reports = AccelNASBench.build(P_STAR, num_archs=800)
    print("\nSurrogate fit quality (test split):")
    for report in reports:
        print(f"  {report.dataset:18s} {report.row()}")

    print()
    for line in describe_baselines(bench):
        print(line)

    space = MnasNetSearchSpace(seed=7)
    arch = space.sample()
    result = bench.query(arch, device="vck190", metric="throughput")
    print(f"\nRandom arch {arch.to_string()}")
    print(
        f"  accuracy={result.accuracy:.4f}, "
        f"vck190 throughput={result.performance:.1f} img/s"
    )


if __name__ == "__main__":
    main()
