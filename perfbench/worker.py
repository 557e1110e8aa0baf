"""Child process of the benchmark: does one workload's work and reports.

    python3 perfbench/worker.py store
    python3 perfbench/worker.py query --workload search-novel --seed 1 \
        --seconds 10 --trace 0 [--setup-only]
    python3 perfbench/worker.py build --seed 1 --seconds 10 --trace 0

A worker prints ``READY`` once set-up is done (the parent times set-up
from spawning the interpreter to that line), then one ``RESULT {json}``
line.  Inputs come only from the benchmark's own random streams seeded by
``--seed``; the program contributes the search-space choices.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import common  # noqa: E402

common.import_program()

from inputs import QUERY_WORKLOADS, ArchStream  # noqa: E402
from repro.core.benchmark import AccelNASBench  # noqa: E402
from repro.searchspace.features import FeatureEncoder  # noqa: E402

# Rows per call re-answered by the scalar query as a bit-equality check.
CHECK_ROWS = 2


def ready(args) -> bool:
    """Report set-up done; a timed worker then waits for the parent's start."""
    emit("READY")
    if args.setup_only:
        return False
    return sys.stdin.readline().strip() == "start"


def emit(tag: str, payload=None) -> None:
    line = tag if payload is None else f"{tag} {json.dumps(payload)}"
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


# ------------------------------------------------------------------ query


def check_call(bench, archs, results, device, metric, rng) -> bool:
    """Every answer finite and in order; sampled rows equal scalar query."""
    if len(results) != len(archs):
        return False
    for arch, r in zip(archs, results):
        if r.arch != arch or not (math.isfinite(r.accuracy) and math.isfinite(r.performance)):
            return False
    for j in rng.choice(len(archs), CHECK_ROWS, replace=False):
        if bench.query(archs[j], device, metric) != results[j]:
            return False
    return True


def query_phase(bench, inputs, ref, seconds, rng, tracer=None) -> list[dict]:
    """Timed `query_batch` calls, each between two reference samples.

    With a tracer, pairs of calls (one per target) alternate between
    untraced and traced, so both halves see the same inputs and machine.
    """
    encoder = bench.encoder
    calls = []
    before = ref.sample()
    end = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < end:
        archs, expect_miss = inputs.next_call()
        device, metric = common.TARGETS[i % 2]
        traced = tracer is not None and (i // 2) % 2 == 1
        if tracer:
            tracer.active = traced
        enc0 = tracer.incl["searchspace.encode"] if tracer else 0.0
        info0 = encoder.cache_info()
        t0 = time.perf_counter()
        results = bench.query_batch(archs, device, metric)
        wall = time.perf_counter() - t0
        info1 = encoder.cache_info()
        enc = (tracer.incl["searchspace.encode"] - enc0) if tracer else 0.0
        after = ref.sample()
        scale = ref.scale(before, after)
        before = after
        misses = info1["misses"] - info0["misses"]
        hits = info1["hits"] - info0["hits"]
        if tracer:
            tracer.active = False
        ok = check_call(bench, archs, results, device, metric, rng)
        honest = misses == expect_miss and hits == len(set(archs)) - expect_miss
        calls.append(
            {
                "n": len(archs), "wall": wall, "scale": scale, "ok": ok and honest,
                "honest": honest, "misses": misses, "hits": hits, "encode": enc,
                "traced": traced,
            }
        )
        inputs.feedback(results)
        i += 1
    return calls


def install_store_spans(tracer) -> None:
    import repro.core.store as store_mod

    tracer.patch(store_mod, "load_benchmark", lambda f: tracer.wrap("core.store.load", f))
    tracer.patch(
        store_mod.BenchmarkStore, "load_model",
        lambda f: tracer.wrap("core.store.load_model", f),
    )


def install_query_spans(tracer, bench) -> None:
    import repro.searchspace.features as features_mod

    rows: dict[str, int] = {}

    def predict_span(name, model):
        def count(args, result, _):
            rows[name] = rows.get(name, 0) + len(args[0])

        model.predict = tracer.wrap(f"surrogates.predict.{name}", model.predict, count)

    tracer.patch(AccelNASBench, "query_batch", lambda f: tracer.wrap("core.query_batch", f))
    tracer.patch(FeatureEncoder, "encode", lambda f: tracer.wrap("searchspace.encode", f))
    tracer.patch(features_mod, "build_model", lambda f: tracer.wrap("searchspace.build_model", f))
    tracer.patch(features_mod, "count_graph", lambda f: tracer.wrap("nn.count_graph", f))
    predict_span("accuracy", bench.store.load_model("accuracy"))
    for device, metric in common.TARGETS:
        predict_span(f"{device}.{metric}", bench.store.load_model(f"perf/{device}|{metric}"))
    tracer.rows = rows


def run_query(args) -> None:
    factory, ref_kind = QUERY_WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        install_store_spans(tracer)
    inputs = factory(args.seed)
    bench = AccelNASBench.load(common.STORE)
    probe = inputs.probe()
    for device, metric in common.TARGETS:
        bench.query_batch(probe, device, metric)
    if not ready(args):
        return
    setup_spans = None
    if tracer:
        setup_spans = {k: tracer.incl[k] for k in ("core.store.load", "core.store.load_model")}
        tracer.unpatch()
    inputs.warm(bench)
    ref = common.Reference(ref_kind)
    rng = np.random.default_rng([args.seed, 3])
    if tracer:
        tracer = type(tracer)()
        install_query_spans(tracer, bench)
    calls = query_phase(bench, inputs, ref, args.seconds, rng, tracer)
    result = {"calls": calls, "refs": ref.samples, "rss_mb": common.peak_rss_mb()}
    if tracer:
        tracer.unpatch()
        result["traced"] = {
            "calls_n": dict(tracer.calls), "incl": dict(tracer.incl),
            "self": dict(tracer.self_s), "spans": tracer.spans,
            "rows": tracer.rows, "span_cost_s": tracer.span_cost_s(),
            "setup": setup_spans, "models_loaded": 1 + len(common.TARGETS),
        }
    emit("RESULT", result)


# ------------------------------------------------------------------ build


def build_once(scheme, workdir: Path, tag: int, rng, tracer=None):
    """One timed build + pack, then the checks on what it wrote."""
    import repro.core.store as store_mod

    out = workdir / f"build-{os.getpid()}-{tag}"
    emit("BUILD-START")
    t0 = time.perf_counter()
    bench, reports = AccelNASBench.build(
        scheme, num_archs=common.BUILD_NUM_ARCHS, devices=common.BUILD_DEVICES
    )
    store_mod.pack_benchmark(bench, out)
    wall = time.perf_counter() - t0
    emit("BUILD-DONE")
    if tracer:
        tracer.active = False
    ok = True
    try:
        store_mod.verify_store(out)
        reloaded = AccelNASBench.load(out)
        stream = ArchStream(int(rng.integers(0, 2**31)), 4)
        for device, metric in common.TARGETS:
            for arch in (stream.random() for _ in range(8)):
                if reloaded.query(arch, device, metric) != bench.query(arch, device, metric):
                    ok = False
    except Exception as exc:  # any failed check counts against ok_frac
        print(f"build check failed: {exc!r}", file=sys.stderr)
        ok = False
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return wall, ok, min(r.kendall for r in reports)


def install_build_spans(tracer) -> None:
    import repro.core.benchmark as bench_mod
    import repro.core.store as store_mod
    from repro.core.surrogate_fit import SurrogateFitter

    def target_of(dataset) -> str:
        if dataset.metric == "accuracy":
            return "accuracy"
        return f"{dataset.name.split('-')[1]}.{dataset.metric}"

    def named(prefix, fn, name_of):
        def wrapper(*a, **k):
            return tracer.wrap(f"{prefix}.{name_of(a, k)}", fn)(*a, **k)

        return wrapper

    tracer.patch(AccelNASBench, "build", lambda f: tracer.wrap("core.build", f))
    tracer.patch(
        bench_mod, "collect_accuracy_dataset",
        lambda f: named("core.dataset.collect_s", f, lambda a, k: "accuracy"),
    )
    tracer.patch(
        bench_mod, "collect_device_dataset",
        lambda f: named("core.dataset.collect_s", f, lambda a, k: f"{a[1]}.{a[2]}"),
    )
    tracer.patch(
        SurrogateFitter, "fit",
        lambda f: named("surrogates.fit_s", f, lambda a, k: target_of(a[1])),
    )
    tracer.patch(FeatureEncoder, "encode", lambda f: tracer.wrap("searchspace.encode", f))
    tracer.patch(store_mod, "pack_benchmark", lambda f: tracer.wrap("core.store.pack", f))


def run_build(args) -> None:
    """Builds on command: ``go`` (plain), ``trace`` (with spans), ``stop``.

    The parent time-slices each build (see run.py), so the worker only
    marks where the timed region starts and ends.
    """
    from repro.trainsim.schemes import P_STAR

    if not ready(args):
        return
    rng = np.random.default_rng([args.seed, 5])
    tag = 0
    for line in sys.stdin:
        command = line.strip()
        if command not in ("go", "trace"):
            break
        tracer = None
        if command == "trace":
            from spans import Tracer

            tracer = Tracer()
            install_build_spans(tracer)
        wall, ok, tau = build_once(P_STAR, common.WORK, tag, rng, tracer)
        tag += 1
        built = {"wall": wall, "ok": ok, "tau": tau}
        if tracer:
            tracer.unpatch()
            built.update(
                calls_n=dict(tracer.calls), incl=dict(tracer.incl),
                self=dict(tracer.self_s), spans=tracer.spans,
                span_cost_s=tracer.span_cost_s(),
            )
        emit("BUILT", built)
    emit("RESULT", {"rss_mb": common.peak_rss_mb()})


# ------------------------------------------------------------------ store


def run_store(args) -> None:
    """Build the store the query workloads read, once per checkout."""
    import repro.core.store as store_mod
    from repro.trainsim.schemes import P_STAR

    common.WORK.mkdir(exist_ok=True)
    source = common.source_digest()
    tmp = common.WORK / f"store.tmp-{os.getpid()}"
    bench, reports = AccelNASBench.build(
        P_STAR, num_archs=common.BUILD_NUM_ARCHS, devices=common.BUILD_DEVICES
    )
    store_mod.pack_benchmark(bench, tmp)
    store_mod.verify_store(tmp)
    info = {"kendall": {r.dataset: r.kendall for r in reports}, "source": source}
    (tmp / "perfbench.json").write_text(json.dumps(info, sort_keys=True))
    if common.STORE.exists():
        shutil.rmtree(common.STORE)
    os.replace(tmp, common.STORE)
    emit("RESULT", info)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("store", "query", "build"))
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    {"store": run_store, "query": run_query, "build": run_build}[args.role](args)


if __name__ == "__main__":
    main()
