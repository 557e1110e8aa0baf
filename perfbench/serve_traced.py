"""``python -m repro.cli serve`` with spans around the serving layers.

    python3 perfbench/serve_traced.py SPANS_OUT serve --bench STORE --port 0

Wraps the public entry points each request passes through, runs the CLI
unchanged, and after the server drains writes the per-layer totals to
``SPANS_OUT`` as JSON.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.import_program()

import repro.cli  # noqa: E402
import repro.serve.server as server_mod  # noqa: E402
from repro.core.benchmark import AccelNASBench  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.obs.slo import SLOTracker  # noqa: E402
from repro.obs.window import WindowedQuantiles  # noqa: E402
from repro.serve.admission import AdmissionGate  # noqa: E402
from repro.serve.cache import ResponseCache  # noqa: E402
from repro.serve.coalescer import Coalescer  # noqa: E402
from repro.serve.http import Response  # noqa: E402
from spans import Tracer  # noqa: E402


class _FirstLineReader:
    """Stream proxy noting when a request's first line has arrived.

    ``read_request`` starts by awaiting the next request line, which on a
    keep-alive connection is idle time; read time is counted from then.
    """

    def __init__(self, reader) -> None:
        self._reader = reader
        self.first: float | None = None

    async def readline(self) -> bytes:
        line = await self._reader.readline()
        if self.first is None:
            self.first = time.perf_counter()
        return line

    async def readexactly(self, n: int) -> bytes:
        return await self._reader.readexactly(n)


def install(tracer: Tracer) -> dict:
    batches = {"archs": 0, "weighted_s": 0.0}

    def read_wrapper(original):
        async def traced_read(reader, *args, **kwargs):
            proxy = _FirstLineReader(reader)
            request = await original(proxy, *args, **kwargs)
            if request is not None and proxy.first is not None:
                tracer.record("serve.http.read", time.perf_counter() - proxy.first)
            return request

        return traced_read

    def note_batch(args, result, seconds):
        batches["archs"] += len(args[1])
        batches["weighted_s"] += len(args[1]) * seconds

    tracer.patch(server_mod, "read_request", read_wrapper)
    tracer.patch(AdmissionGate, "acquire", lambda f: tracer.wrap_async("serve.admission.wait", f))
    tracer.patch(Coalescer, "query", lambda f: tracer.wrap_async("serve.coalescer.query", f))
    tracer.patch(
        AccelNASBench, "query_batch", lambda f: tracer.wrap("core.query_batch", f, note_batch)
    )
    tracer.patch(ResponseCache, "get", lambda f: tracer.wrap("serve.cache.get", f))
    tracer.patch(Response, "render", lambda f: tracer.wrap("serve.render", f))
    for owner, attr in (
        (WindowedQuantiles, "observe"),
        (SLOTracker, "record"),
        (MetricsRegistry, "observe_window"),
    ):
        tracer.patch(owner, attr, lambda f: tracer.wrap("obs.observe", f))
    return batches


def main() -> int:
    spans_out = Path(sys.argv[1])
    tracer = Tracer()
    batches = install(tracer)
    try:
        return repro.cli.main(sys.argv[2:])
    finally:
        spans_out.write_text(
            json.dumps(
                {
                    "calls_n": dict(tracer.calls), "incl": dict(tracer.incl),
                    "spans": tracer.spans, "batches": batches,
                    "span_cost_s": tracer.span_cost_s(),
                }
            )
        )


if __name__ == "__main__":
    sys.exit(main())
