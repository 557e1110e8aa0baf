"""Steadiness study: repeat each workload over seeds, raw and normalised.

    python3 perfbench/study.py --runs 10 [--workloads search-novel build] \
        [--out perfbench/STEADINESS.json]

For every end-to-end metric it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, of the figure the
benchmark reports and of the raw wall-clock figure beside it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("search-novel", "sweep-pool", "serve-query", "build")


def one_run(workload: str, seed: int, seconds: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = next(
        json.loads(line.split(" ", 1)[1])
        for line in proc.stderr.splitlines() if line.startswith("perfbench-detail ")
    )
    return {"result": result, "detail": detail, "elapsed_s": time.perf_counter() - t0}


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def study(workload: str, runs: int, seconds: int, first_seed: int) -> dict:
    rows = []
    for seed in range(first_seed, first_seed + runs):
        run = one_run(workload, seed, seconds)
        rows.append(run)
        reported = {k: v["value"] for k, v in run["result"]["metrics"].items()}
        print(workload, seed, run["result"]["correct"],
              {k: round(v, 4) for k, v in reported.items()}, flush=True)
    reported = {
        name: summary([r["result"]["metrics"][name]["value"] for r in rows])
        for name in rows[0]["result"]["metrics"]
    }
    raw = {
        name.split(".", 1)[1]: summary([r["detail"]["wall"][name] for r in rows])
        for name in rows[0]["detail"]["wall"]
    }
    return {
        "runs": runs, "seconds": seconds, "seeds": [first_seed, first_seed + runs - 1],
        "all_correct": all(r["result"]["correct"] for r in rows),
        "elapsed_s": summary([r["elapsed_s"] for r in rows]),
        "reported": reported, "raw": raw,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    out = {w: study(w, args.runs, seconds, args.first_seed) for w in args.workloads}
    for workload, res in out.items():
        print(f"{workload:13s} run wall-clock median {res['elapsed_s']['median']:.1f} s")
        for name, s in res["reported"].items():
            print(f"{workload:13s} {name:16s} median {s['median']:10.4f} spread {s['spread']:.4f}")
        for name, s in res["raw"].items():
            print(f"{workload:13s} raw {name:12s} median {s['median']:10.4f} spread {s['spread']:.4f}")
    if args.out:
        args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
