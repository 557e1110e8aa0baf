"""The repository benchmark.

    python3 perfbench/run.py --workload search-novel --seed 1 --seconds 10 --trace 0

Workloads (see perfbench/README.md for why each exists):

- ``search-novel``: ``query_batch`` on regularized-evolution generations of
  64 archs, 58 never seen in the process (the encode-miss path).
- ``sweep-pool``: ``query_batch`` on 512-arch slices of a warmed 1,024-arch
  pool (the batch-predict path).
- ``serve-query``: ``python -m repro.cli serve`` under an open then a
  closed loop of single ``/query`` requests.
- ``build``: ``AccelNASBench.build`` of 400 archs plus ``pack_benchmark``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A detail line with raw and normalised figures goes to
standard error.  Exits non-zero, printing no result, when the checkout has
no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("search-novel", "sweep-pool", "serve-query", "build")
# Set-up is timed from a fresh interpreter this many times per run; the
# median is reported.
SETUP_SAMPLES = {"search-novel": 9, "sweep-pool": 3, "serve-query": 7, "build": 9}
# Each build run times at least this many builds, even past --seconds.
MIN_BUILDS = 2
WORKER_TIMEOUT_S = 170.0
# Query and build workers, and this process while it waits on them, share
# one CPU, so reference samples time the CPU the work ran on.
CPU = min(os.sched_getaffinity(0))
# A build is paused this often for a reference sample on its CPU.
SLICE_S = 0.5
STORE_TIMEOUT_S = 800.0
# The traced phase's per-layer self times must equal the untraced figure
# plus the measured tracing overhead, within this many percentage points
# of drift between the two phases.
RECONCILE_TOL_PCT = 10.0


# ----------------------------------------------------------------- workers


class Worker:
    """A worker process with a line protocol on its stdin and stdout."""

    def __init__(self, role: str, args, setup_only: bool = False) -> None:
        cmd = [
            sys.executable, str(common.ROOT / "perfbench" / "worker.py"), role,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if role == "query":
            cmd += ["--workload", args.workload]
        if setup_only:
            cmd.append("--setup-only")
        self.proc = subprocess.Popen(
            cmd, cwd=common.ROOT, env=common.child_env(), bufsize=0,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        os.sched_setaffinity(self.proc.pid, {CPU})
        self._buf = b""

    def line(self, timeout: float | None = None) -> str | None:
        """The next stdout line, or None once ``timeout`` seconds pass."""
        fd = self.proc.stdout.fileno()
        end = None if timeout is None else time.perf_counter() + timeout
        while b"\n" not in self._buf:
            wait = WORKER_TIMEOUT_S if end is None else max(0.0, end - time.perf_counter())
            if not select.select([fd], [], [], wait)[0]:
                if end is None:
                    raise RuntimeError("worker stopped answering")
                return None
            chunk = os.read(fd, 65536)
            if not chunk:
                raise RuntimeError(f"worker exited with {self.proc.wait()}")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line.decode()

    def expect(self, tag: str) -> str:
        while True:
            line = self.line()
            if line.startswith(tag):
                return line[len(tag):].strip()

    def send(self, command: str) -> None:
        self.proc.stdin.write(command.encode() + b"\n")

    def close(self, kill: bool = False) -> None:
        """Wait for the worker to finish (or kill it); check its exit."""
        if kill and self.proc.poll() is None:
            self.proc.kill()
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=WORKER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if not stream.closed:
                stream.close()
        if self.proc.returncode != 0 and not kill:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")


def setup_samples(role: str, args) -> tuple[list[float], list[float], Worker]:
    """Spawn-to-READY times, raw and normalised; the last worker stays up.

    Each sample sits between two spawn-reference samples on the same CPU.
    """
    ref = common.Reference("spawn")
    raw, norm = [], []
    n = SETUP_SAMPLES[args.workload]
    before = ref.sample()
    for i in range(n):
        t0 = time.perf_counter()
        worker = Worker(role, args, setup_only=i < n - 1)
        try:
            worker.expect("READY")
            raw.append(time.perf_counter() - t0)
            after = ref.sample()
        except BaseException:
            worker.close(kill=True)
            raise
        norm.append(raw[-1] * ref.scale(before, after))
        before = after
        if i < n - 1:
            worker.close()
    return raw, norm, worker


def ensure_store() -> dict:
    """The query workloads' store, built by the code under test.

    It is built once per checkout, and again whenever ``src/repro`` no
    longer matches the code that built it.
    """
    source = common.source_digest()
    if _store_source() != source:
        proc = subprocess.run(
            [sys.executable, str(common.ROOT / "perfbench" / "worker.py"), "store"],
            cwd=common.ROOT, env=common.child_env(), stdout=subprocess.PIPE,
            text=True, timeout=STORE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"store build exited with {proc.returncode}")
    if _store_source() != source:
        raise RuntimeError("the store does not match src/repro")
    return json.loads(common.STORE_INFO.read_text())


def _store_source() -> str | None:
    if not common.STORE_INFO.is_file():
        return None
    return json.loads(common.STORE_INFO.read_text()).get("source")


# ----------------------------------------------------------------- figures


def pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


def tail_metrics(values_ms) -> dict:
    p90, p99, n = common.tail(values_ms)
    return {"tail.p90_ms": p90, "tail.p99_ms": p99, "tail.samples": n}


def reconcile(untraced_norm: float, traced_norm: float, spans_per_op: float,
              span_cost_s: float, untraced_raw: float) -> tuple[dict, bool]:
    overhead = pct(spans_per_op * span_cost_s, untraced_raw)
    gap = pct(traced_norm - untraced_norm, untraced_norm)
    return (
        {"trace.overhead_pct": overhead, "trace.reconcile_pct": gap},
        abs(gap - overhead) <= RECONCILE_TOL_PCT,
    )


def sliced_build(worker: Worker, command: str, ref) -> dict:
    """One build, paused every ``SLICE_S`` for a reference sample.

    The worker and this process share one CPU, so each reference sample
    times the CPU the build is running on at that moment; each slice is
    scaled by the samples at its ends.
    """
    pid = worker.proc.pid
    before = ref.sample()
    worker.send(command)
    worker.expect("BUILD-START")
    raw = norm = 0.0
    start = time.perf_counter()
    while True:
        line = worker.line(timeout=SLICE_S)
        if line is None:
            os.kill(pid, signal.SIGSTOP)
            os.waitpid(pid, os.WUNTRACED)
        elif not line.startswith("BUILD-DONE"):
            continue
        length = time.perf_counter() - start
        after = ref.sample()
        raw += length
        norm += length * ref.scale(before, after)
        before = after
        if line is not None:
            break
        os.kill(pid, signal.SIGCONT)
        start = time.perf_counter()
    built = json.loads(worker.expect("BUILT"))
    built.update(raw=raw, norm=norm)
    return built


def run_worker(role: str, args) -> tuple[list[float], list[float], dict]:
    """Set-up samples, then the timed work of the last worker."""
    os.sched_setaffinity(0, {CPU})
    setups, setups_norm, worker = setup_samples(role, args)
    try:
        worker.send("start")
        if role == "build":
            build_ref = common.Reference("py+mem")
            builds = []
            end = time.perf_counter() + args.seconds
            while len(builds) < MIN_BUILDS or time.perf_counter() < end:
                builds.append(sliced_build(worker, "go", build_ref))
            traced = sliced_build(worker, "trace", build_ref) if args.trace else None
            worker.send("stop")
            res = json.loads(worker.expect("RESULT"))
            res.update(builds=builds, traced=traced, refs=build_ref.samples)
        else:
            res = json.loads(worker.expect("RESULT"))
    except BaseException:
        worker.close(kill=True)
        raise
    worker.close()
    return setups, setups_norm, res


def query_workload(args, store_info: dict) -> dict:
    setups, setups_norm, res = run_worker("query", args)
    calls = [c for c in res["calls"] if not c["traced"]]
    tc = [c for c in res["calls"] if c["traced"]]
    norm = [c["wall"] * c["scale"] for c in calls]
    raw = [c["wall"] for c in calls]
    archs = sum(c["n"] for c in calls)
    ok = sum(c["ok"] for c in calls)
    out = {
        "attempted": len(calls), "ok": ok,
        "correct": ok == len(calls),
        "e2e": {
            "setup_s": common.median(setups_norm),
            "archs_per_s": archs / sum(norm),
            "p50_ms": 1e3 * common.median(norm),
            "rss_mb": res["rss_mb"],
            "ok_frac": ok / len(calls),
            "kendall_tau_min": min(store_info["kendall"].values()),
        },
        "wall": {
            "wall.setup_s": common.median(setups),
            "wall.archs_per_s": archs / sum(raw),
            "wall.p50_ms": 1e3 * common.median(raw),
        },
        "layers": tail_metrics([1e3 * v for v in norm]),
    }
    out["layers"][f"calib.ref_{'py' if args.workload == 'search-novel' else 'np'}_us"] = (
        1e6 * common.median(res["refs"])
    )
    if not args.trace:
        return out

    t = res["traced"]
    incl, n_calls, self_s = t["incl"], t["calls_n"], t["self"]
    all_calls = calls + tc
    misses = sum(c["misses"] for c in all_calls)
    miss_calls = [c for c in tc if c["misses"]]
    hit_calls = [c for c in tc if not c["misses"]]
    rows = t["rows"]
    predict_incl = sum(incl.get(f"surrogates.predict.{k}", 0.0) for k in rows)
    layers = out["layers"]
    layers.update(
        {
            "searchspace.encode.us_per_miss": 1e6 * sum(c["encode"] for c in miss_calls)
            / max(1, sum(c["misses"] for c in miss_calls)),
            "searchspace.encode.us_per_hit": 1e6 * sum(c["encode"] for c in hit_calls)
            / max(1, sum(c["hits"] for c in hit_calls)),
            "searchspace.encode.miss_frac": misses
            / max(1, sum(c["misses"] + c["hits"] for c in all_calls)),
            "searchspace.build_model.us": 1e6 * incl.get("searchspace.build_model", 0.0)
            / max(1, n_calls.get("searchspace.build_model", 0)),
            "nn.count_graph.us": 1e6 * incl.get("nn.count_graph", 0.0)
            / max(1, n_calls.get("nn.count_graph", 0)),
            "surrogates.predict.rows_per_call": sum(rows.values())
            / max(1, sum(n_calls.get(f"surrogates.predict.{k}", 0) for k in rows)),
            "core.query_batch.self_us_per_arch": 1e6 * self_s["core.query_batch"]
            / sum(c["n"] for c in tc),
            "core.store.load_ms": 1e3 * t["setup"]["core.store.load"],
            "core.store.load_model_ms": 1e3 * t["setup"]["core.store.load_model"]
            / t["models_loaded"],
            "trace.spans": t["spans"],
            "trace.attributed_pct": pct(sum(self_s.values()), incl["core.query_batch"]),
            "trace.hot_layer_pct": pct(
                incl["searchspace.encode"] if args.workload == "search-novel" else predict_incl,
                incl["core.query_batch"],
            ),
        }
    )
    for key, n in rows.items():
        layers[f"surrogates.predict.us_per_row.{key}"] = (
            1e6 * incl[f"surrogates.predict.{key}"] / n
        )
    figures, reconciled = reconcile(
        common.median(norm), common.median([c["wall"] * c["scale"] for c in tc]),
        t["spans"] / len(tc), t["span_cost_s"], common.median(raw),
    )
    layers.update(figures)
    out["attempted"] += len(tc)
    out["ok"] += sum(c["ok"] for c in tc)
    out["correct"] = out["correct"] and reconciled and all(c["ok"] for c in tc)
    return out


def build_workload(args) -> dict:
    setups, setups_norm, res = run_worker("build", args)
    builds = res["builds"]
    norm = [b["norm"] for b in builds]
    raw = [b["raw"] for b in builds]
    n = common.BUILD_NUM_ARCHS
    ok = sum(b["ok"] for b in builds)
    out = {
        "attempted": len(builds), "ok": ok, "correct": ok == len(builds),
        "e2e": {
            "setup_s": common.median(setups_norm),
            "archs_per_s": n * len(norm) / sum(norm),
            "p50_ms": 1e3 * common.median(norm),
            "rss_mb": res["rss_mb"],
            "ok_frac": ok / len(builds),
            "kendall_tau_min": min(b["tau"] for b in builds),
        },
        "wall": {
            "wall.setup_s": common.median(setups),
            "wall.archs_per_s": n * len(raw) / sum(raw),
            "wall.p50_ms": 1e3 * common.median(raw),
        },
        "layers": {**tail_metrics([1e3 * v for v in norm]),
                   "calib.ref_py_mem_us": 1e6 * common.median(res["refs"])},
    }
    if not args.trace:
        return out
    t = res["traced"]
    incl, self_s = t["incl"], t["self"]
    layers = out["layers"]
    fit = 0.0
    for target in ["accuracy"] + [f"{d}.{m}" for d, m in common.TARGETS]:
        layers[f"surrogates.fit_s.{target}"] = incl.get(f"surrogates.fit_s.{target}", 0.0)
        layers[f"core.dataset.collect_s.{target}"] = incl.get(f"core.dataset.collect_s.{target}", 0.0)
        fit += layers[f"surrogates.fit_s.{target}"]
    layers.update(
        {
            "core.store.pack_s": incl.get("core.store.pack", 0.0),
            "trace.spans": t["spans"],
            "trace.attributed_pct": pct(sum(self_s.values()), t["wall"]),
            "trace.hot_layer_pct": pct(fit, t["wall"]),
        }
    )
    figures, reconciled = reconcile(
        common.median(norm), t["norm"], t["spans"], t["span_cost_s"], common.median(raw),
    )
    layers.update(figures)
    out["attempted"] += 1
    out["ok"] += t["ok"]
    out["correct"] = out["correct"] and reconciled and t["ok"]
    return out


def serve_figures(phase: dict) -> dict:
    load = phase["load"]
    answered, closed_wall = load["closed"]
    lat_ms = [1e3 * v for v in load["latencies"]]
    s0, s1 = load["statz"]

    def delta(*path):
        a, b = s0, s1
        for key in path:
            a, b = a[key], b[key]
        return b - a

    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    late = sorted(load["lateness"])
    return {
        "attempted": phase["attempted"], "ok": phase["ok"],
        "correct": phase["ok"] == phase["attempted"],
        "e2e": {
            "setup_s": common.median(phase["setups_norm"]),
            "archs_per_s": answered / closed_wall,
            "p50_ms": common.median(lat_ms),
            "rss_mb": phase["rss_mb"],
            "ok_frac": phase["ok"] / phase["attempted"],
        },
        "wall": {
            "wall.setup_s": common.median(phase["setups"]),
            "wall.archs_per_s": answered / closed_wall,
            "wall.p50_ms": common.median(lat_ms),
        },
        "layers": {
            **tail_metrics(lat_ms),
            "serve.coalescer.mean_batch": delta("coalescer", "items_total")
            / max(1, delta("coalescer", "flush_total")),
            "serve.cache.hit_frac": hits / max(1, hits + misses),
            "serve.shed": delta("admission", "shed_total"),
            "serve.deadline_expired": delta("admission", "expired_total")
            + delta("coalescer", "expired_total"),
            "serve.breaker_trips": sum(
                s1["breakers"][k]["trips"] - s0["breakers"][k]["trips"] for k in s1["breakers"]
            ),
            "loadgen.late_p95_ms": 1e3 * late[int(0.95 * (len(late) - 1))],
            "loadgen.sent": phase["attempted"],
            "loadgen.failed": phase["attempted"] - phase["ok"],
        },
    }


def serve_workload(args, store_info: dict) -> dict:
    import serve_load
    from inputs import ArchStream

    stream = ArchStream(args.seed, 6)
    seconds = args.seconds / 2 if args.trace else args.seconds
    phase = serve_load.run_phase(stream, seconds, SETUP_SAMPLES["serve-query"])
    out = serve_figures(phase)
    out["e2e"]["kendall_tau_min"] = min(store_info["kendall"].values())
    if not args.trace:
        return out

    spans_out = common.WORK / "serve-spans.json"
    spans_out.unlink(missing_ok=True)
    traced = serve_load.run_phase(stream, seconds, 1, spans_out=spans_out)
    t = json.loads(spans_out.read_text())
    spans_out.unlink()
    incl, n_calls, batches = t["incl"], t["calls_n"], t["batches"]
    requests = n_calls.get("serve.render", 0)

    def mean_us(name):
        return 1e6 * incl.get(name, 0.0) / max(1, n_calls.get(name, 0))

    coalesced = n_calls.get("serve.coalescer.query", 0)
    coalescer_wait = (incl.get("serve.coalescer.query", 0.0) - batches["weighted_s"]) / max(1, coalesced)
    layers = out["layers"]
    layers.update(
        {
            "serve.http.read_us": mean_us("serve.http.read"),
            "serve.admission.wait_us": mean_us("serve.admission.wait"),
            "serve.coalescer.wait_us": 1e6 * coalescer_wait,
            "serve.render_us": mean_us("serve.render"),
            "obs.observe_us_per_request": 1e6 * incl.get("obs.observe", 0.0) / max(1, requests),
            "core.query_batch.self_us_per_arch": 1e6 * incl.get("core.query_batch", 0.0)
            / max(1, batches["archs"]),
            "trace.spans": t["spans"],
        }
    )
    attributed = sum(
        incl.get(k, 0.0)
        for k in ("serve.http.read", "serve.admission.wait", "serve.coalescer.query",
                  "serve.cache.get", "serve.render", "obs.observe")
    )
    untraced_mean = sum(phase["load"]["latencies"]) / len(phase["load"]["latencies"])
    traced_figures = serve_figures(traced)
    layers["trace.hot_layer_pct"] = pct(incl.get("serve.coalescer.query", 0.0), attributed)
    layers["trace.attributed_pct"] = pct(attributed / max(1, requests), untraced_mean)
    layers["trace.overhead_pct"] = pct(
        t["spans"] * t["span_cost_s"] / max(1, requests), untraced_mean
    )
    layers["trace.reconcile_pct"] = pct(
        traced_figures["e2e"]["p50_ms"] - out["e2e"]["p50_ms"], out["e2e"]["p50_ms"]
    )
    out["attempted"] += traced_figures["attempted"]
    out["ok"] += traced_figures["ok"]
    out["correct"] = out["correct"] and traced_figures["correct"]
    return out


# ----------------------------------------------------------------- output


def declared(kind: str) -> list[dict]:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return spec[kind]


def render(out: dict, trace: int) -> dict:
    kind = "per_layer" if trace else "end_to_end"
    values = {**out["layers"], **out["wall"]} if trace else out["e2e"]
    names = {m["name"] for m in declared(kind)}
    unknown = set(values) - names
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    if trace:
        for ref_kind in ("py", "np", "py+mem"):
            name = f"calib.ref_{ref_kind.replace('+', '_')}_us"
            if name not in values:
                ref = common.Reference(ref_kind)
                values[name] = 1e6 * common.median([ref.sample() for _ in range(5)])
    return {
        "correct": bool(out["correct"]),
        "attempted": int(out["attempted"]),
        "failed": int(out["attempted"] - out["ok"]),
        "metrics": {
            m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in declared(kind)
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.import_program()
    except common.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    common.WORK.mkdir(exist_ok=True)
    if args.workload == "build":
        out = build_workload(args)
    else:
        store_info = ensure_store()
        if args.workload == "serve-query":
            out = serve_workload(args, store_info)
        else:
            out = query_workload(args, store_info)
    detail = {k: out[k] for k in ("e2e", "wall")}
    print("perfbench-detail " + json.dumps({"workload": args.workload, **detail}), file=sys.stderr)
    print(json.dumps(render(out, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
