"""Bench: cold-start-to-first-query, JSON envelope vs columnar store.

The released artifact's real serving cost is how fast a *fresh process* can
answer its first query and how much private memory it pays to do so.  This
bench builds one benchmark (full device suite), saves it both ways, then
spawns a cold subprocess per format that loads the artifact, answers one
accuracy query, and reports elapsed time plus resident memory (current and
peak, from ``/proc/self/status``) before/after.
The columnar store must be >= 5x faster to first query: the JSON path parses
every tree of every surrogate up front, the columnar path reads one manifest
and memmaps just the accuracy model's shards.

Results append to ``results/BENCH_build.json``.
"""

import json
import os
import subprocess
import sys

import repro.obs as obs
from repro.core.benchmark import AccelNASBench
from repro.core.dataset import sample_dataset_archs
from repro.trainsim.schemes import P_STAR

from conftest import BENCH_ARCHS, emit, record_trajectory

COLD_ARCHS = min(400, BENCH_ARCHS)
COLD_RUNS = 3

# Memory comes from /proc/self/status (Linux): VmRSS is the resident set now,
# VmHWM its peak in *this* process.  ``ru_maxrss`` would not do: it carries
# the spawning process's peak across exec, so a small load reads as 0.
_COLD_SCRIPT = """
import json, sys, time
from repro.core.benchmark import AccelNASBench
from repro.searchspace.mnasnet import ArchSpec

def memory_kb():
    fields = {}
    with open("/proc/self/status") as status:
        for line in status:
            key, _, value = line.partition(":")
            if key in ("VmRSS", "VmHWM"):
                fields[key] = int(value.split()[0])
    return fields["VmRSS"], fields["VmHWM"]

path, arch = sys.argv[1], sys.argv[2]
rss_before, hwm_before = memory_kb()
start = time.perf_counter()
bench = AccelNASBench.load(path)
accuracy = bench.query_accuracy(ArchSpec.from_string(arch))
elapsed = time.perf_counter() - start
rss_after, hwm_after = memory_kb()
print(json.dumps({
    "seconds": elapsed,
    "rss_before_kb": rss_before,
    "rss_after_kb": rss_after,
    "hwm_before_kb": hwm_before,
    "hwm_after_kb": hwm_after,
    "accuracy": accuracy,
}))
"""


def _cold_start(artifact_path, arch) -> dict:
    """Best-of-N cold load+first-query in fresh subprocesses."""
    best = None
    for _ in range(COLD_RUNS):
        out = subprocess.run(
            [sys.executable, "-c", _COLD_SCRIPT, str(artifact_path), arch.to_string()],
            capture_output=True,
            text=True,
            check=True,
        )
        run = json.loads(out.stdout)
        if best is None or run["seconds"] < best["seconds"]:
            best = run
    return best


def test_columnar_cold_start(tmp_path):
    bench, _ = AccelNASBench.build(
        P_STAR,
        num_archs=COLD_ARCHS,
        sample_seed=17,
        n_jobs=max(2, os.cpu_count() or 1),
    )
    json_path = tmp_path / "anb.json"
    store_path = tmp_path / "anb.store"
    with obs.timer() as t_save_json:
        bench.save(json_path)
    with obs.timer() as t_save_store:
        bench.save(store_path, format="columnar")
    store_bytes = sum(
        p.stat().st_size for p in store_path.rglob("*") if p.is_file()
    )

    arch = sample_dataset_archs(1, seed=99)[0]
    cold_json = _cold_start(json_path, arch)
    cold_store = _cold_start(store_path, arch)
    # both formats answer the first query with the exact same bits
    assert cold_json["accuracy"] == cold_store["accuracy"]
    speedup = cold_json["seconds"] / cold_store["seconds"]
    assert speedup >= 5.0, (
        f"columnar cold start only {speedup:.1f}x faster "
        f"({cold_store['seconds']:.3f}s vs {cold_json['seconds']:.3f}s)"
    )

    lines = [
        f"Cold start to first query ({COLD_ARCHS} archs, "
        f"{len(bench.targets)} device targets + accuracy, best of {COLD_RUNS}):",
        f"  json     : {cold_json['seconds'] * 1e3:8.1f} ms, "
        f"rss {cold_json['rss_before_kb']} -> {cold_json['rss_after_kb']} kB "
        f"(peak {cold_json['hwm_after_kb']} kB), "
        f"{json_path.stat().st_size} bytes",
        f"  columnar : {cold_store['seconds'] * 1e3:8.1f} ms, "
        f"rss {cold_store['rss_before_kb']} -> {cold_store['rss_after_kb']} kB "
        f"(peak {cold_store['hwm_after_kb']} kB), "
        f"{store_bytes} bytes",
        f"  speedup  : {speedup:8.1f} x",
        f"  save     : json {t_save_json.seconds:.2f} s, "
        f"columnar {t_save_store.seconds:.2f} s",
    ]
    emit("bench_cold_start", "\n".join(lines))
    record_trajectory(
        "build",
        {
            "num_archs": COLD_ARCHS,
            "cold_start_json_s": cold_json["seconds"],
            "cold_start_columnar_s": cold_store["seconds"],
            "cold_start_speedup": speedup,
            "rss_delta_json_kb": cold_json["rss_after_kb"]
            - cold_json["rss_before_kb"],
            "rss_delta_columnar_kb": cold_store["rss_after_kb"]
            - cold_store["rss_before_kb"],
            "hwm_delta_json_kb": cold_json["hwm_after_kb"]
            - cold_json["hwm_before_kb"],
            "hwm_delta_columnar_kb": cold_store["hwm_after_kb"]
            - cold_store["hwm_before_kb"],
            "json_bytes": json_path.stat().st_size,
            "store_bytes": store_bytes,
        },
    )
