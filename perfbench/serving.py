"""``serve-http``: the ``repro serve`` process under a closed loop of
two ``ServeClient`` callers.

The server runs as users start it — ``python -m repro serve
--checkpoint-dir D --port 0`` with every serving knob at its default
(single-process engine, ``max_batch=32``, ``max_wait_ms=5``). Each of two
caller threads sends one 12x12x32 window tensor per request and waits
for the reply before sending the next. The tensors are the windows of a
seeded chip, encoded in set-up. Set-up (start the server, wait for
``/healthz``, score one request) is repeated and its median reported.

Output check: every response must equal the offline
``predict_proba_tensors`` of the same tensor within ``PROB_TOL``; a
non-2xx response or transport error fails the request and counts as a
missing (infinitely late) latency sample.

The traced run splits its time in three: the same HTTP loop untraced,
then traced (one span per request), then the in-process
``InferenceEngine`` at the CLI's ``EngineConfig`` under the same two
callers. ``serve.wire_ms`` is the client median minus the engine median.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

from harness import (
    ROOT,
    BenchError,
    Run,
    Tracer,
    median,
    percentile,
    proc_cpu_seconds,
    proc_peak_rss_mb,
    program_env,
    span_durations,
    timed_repeats,
)
from build import checkpoint_path

#: Offline vs served probability tolerance (batch composition may change
#: the last bits of a GEMM).
PROB_TOL = 1e-9
CALLERS = 2
WARMUP_REQUESTS = 10
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0
_LISTENING = re.compile(r"listening on (http://\S+)")


class Server:
    """One ``repro serve`` subprocess; stdout is drained for its life."""

    def __init__(self, registry_dir: Path):
        self.lines: List[str] = []
        self._ready = threading.Event()
        self.url: Optional[str] = None
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--checkpoint-dir",
             str(registry_dir), "--port", "0"],
            cwd=ROOT, env=program_env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.process.stdout:
            self.lines.append(line.rstrip("\n"))
            match = _LISTENING.search(line)
            if match and self.url is None:
                self.url = match.group(1)
                self._ready.set()
        self._ready.set()  # process exited: stop any waiter

    def wait_ready(self, client_factory: Callable) -> None:
        self._ready.wait(START_TIMEOUT_S)
        if self.url is None:
            self.close()
            raise BenchError(
                "repro serve did not start:\n" + "\n".join(self.lines[-20:])
            )
        client_factory(self.url).health()

    @property
    def pid(self) -> int:
        return self.process.pid

    def close(self) -> None:
        """SIGTERM, then kill if it lingers. (Not SIGINT: a benchmark
        started in the background passes SIGINT on as ignored.)"""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(STOP_TIMEOUT_S)
        self._reader.join(STOP_TIMEOUT_S)


def _request_pool(sizes: dict, seed: int, detector) -> np.ndarray:
    """Window tensors of a seeded chip: what a scan would send."""
    from repro.data.fullchip import FullChipSpec, make_layout
    from repro.features.sliding import SlidingFeatureExtractor
    from repro.geometry.layout import iter_clip_windows

    tiles = sizes["serve_pool_tiles"]
    layout = make_layout(
        FullChipSpec(tiles_x=tiles, tiles_y=tiles, seed=seed * 1000 + 500)
    )
    windows = list(iter_clip_windows(layout.region, 1200, 600))
    sliding = SlidingFeatureExtractor(detector.extractor.config, clip_nm=1200)
    return sliding.extract_windows(layout, windows)


class _Loop:
    """Closed loop: each caller waits for its reply before sending again."""

    def __init__(self, pool: np.ndarray, expected: np.ndarray, seed: int):
        self.pool = pool
        self.expected = expected
        self.seed = seed
        self.latencies: List[float] = []  # seconds; inf = failed request
        self.errors: List[str] = []
        self._lock = threading.Lock()

    def drive(self, send: Callable, seconds: float,
              tracer: Optional[Tracer] = None, layer: str = "") -> float:
        """Run ``CALLERS`` threads calling ``send(tensor)`` for ``seconds``;
        with a tracer, each call is an ``op`` span around a ``layer`` span."""
        deadline = time.perf_counter() + seconds

        def caller(index: int) -> None:
            rng = np.random.default_rng((self.seed, index))
            while time.perf_counter() < deadline:
                pick = int(rng.integers(len(self.pool)))
                started = time.perf_counter()
                try:
                    if tracer is None:
                        rows = send(self.pool[pick])
                    else:
                        with tracer.span("op", op=tracer.next_op()), \
                                tracer.span(layer):
                            rows = send(self.pool[pick])
                    elapsed = time.perf_counter() - started
                    error = _mismatch(rows, self.expected[pick])
                except Exception as exc:  # any failure is a failed request
                    elapsed, error = float("inf"), f"{type(exc).__name__}: {exc}"
                with self._lock:
                    self.latencies.append(
                        elapsed if error is None else float("inf")
                    )
                    if error is not None:
                        self.errors.append(error)

        threads = [threading.Thread(target=caller, args=(i,))
                   for i in range(CALLERS)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - started


def _mismatch(rows, expected) -> Optional[str]:
    rows = np.asarray(rows)
    if rows.shape != (1, 2):
        return f"response shape {rows.shape}"
    worst = float(np.abs(rows[0] - expected).max())
    return None if worst <= PROB_TOL else f"max |dp|={worst:.3g}"


def _record_checks(run: Run, name: str, loop: _Loop) -> None:
    for latency in loop.latencies:
        run.op_outcome(latency != float("inf"))
    run.check(name, not loop.errors,
              f"{len(loop.errors)} bad responses, first: "
              f"{loop.errors[0] if loop.errors else ''}")


def run_serve(run: Run, sizes: dict, model_dir: Path) -> Tracer:
    from repro.core.detector import HotspotDetector
    from repro.serve import ServeClient

    detector = HotspotDetector.load_checkpoint(checkpoint_path(model_dir))
    pool = _request_pool(sizes, run.seed, detector)
    expected = detector.predict_proba_tensors(pool)
    registry_dir = model_dir / "registry"

    def set_up() -> Server:
        server = Server(registry_dir)
        try:
            server.wait_ready(ServeClient)
            ServeClient(server.url).predict_tensors(pool[0])
        except BaseException:
            server.close()
            raise
        return server

    repeats = 1 if run.trace else sizes["serve_setups"]
    setup_s, server = timed_repeats(repeats, set_up)
    tracer = Tracer()
    clients = threading.local()

    def http_send(tensor):
        if not hasattr(clients, "client"):
            clients.client = ServeClient(server.url)
        return clients.client.predict_tensors(tensor)

    try:
        for i in range(WARMUP_REQUESTS):
            http_send(pool[i % len(pool)])

        if not run.trace:
            loop = _Loop(pool, expected, run.seed)
            wall = loop.drive(http_send, run.seconds)
            peak_rss = proc_peak_rss_mb(server.pid)
        else:
            third = run.seconds / 3.0
            cpu_before = proc_cpu_seconds(server.pid)
            plain = _Loop(pool, expected, run.seed)
            plain.drive(http_send, third)
            loop = _Loop(pool, expected, run.seed + 1)
            wall = loop.drive(http_send, third, tracer, "serve.client")
            cpu_s = proc_cpu_seconds(server.pid) - cpu_before
            served = len(plain.latencies) + len(loop.latencies)
            stats = ServeClient(server.url).metrics()
    finally:
        server.close()

    if not run.trace:
        _record_checks(run, "http_vs_offline", loop)
        ok = [x for x in loop.latencies if x != float("inf")]
        run.metric("throughput_per_s", len(ok) / wall, "1/s")
        run.metric("latency_p50_ms", 1000.0 * median(loop.latencies), "ms")
        run.metric("peak_rss_mb", peak_rss, "MB")
        run.metric("ok_frac", 1.0 - run.failed / run.attempted, "fraction")
        run.metric("setup_s", setup_s, "s")
        p99 = percentile(loop.latencies, 99)
        print(f"[serve-http] {len(loop.latencies)} requests in {wall:.1f}s, "
              f"p99 {1000 * p99:.2f} ms")
        return tracer

    _record_checks(run, "http_vs_offline", plain)
    _record_checks(run, "http_vs_offline", loop)
    engine_loop = _engine_phase(registry_dir, pool, expected, run, tracer)
    _record_checks(run, "engine_vs_offline", engine_loop)

    client_ms = [1000 * d for d in span_durations(tracer.spans,
                                                  "serve.client")]
    engine_ms = [1000 * d for d in span_durations(tracer.spans,
                                                  "serve.engine")]
    run.sampled("serve.client_ms", client_ms, "ms")
    run.sampled("serve.engine_ms", engine_ms, "ms")
    run.metric("serve.wire_ms", median(client_ms) - median(engine_ms), "ms")
    run.metric("trace.attributed_frac",
               median(engine_ms) / median(client_ms), "fraction")
    run.metric("trace.overhead_frac",
               median(loop.latencies) / median(plain.latencies) - 1.0,
               "fraction")
    bodies = [
        len(json.dumps({"tensors": pool[i:i + 1].tolist()}).encode("utf-8"))
        for i in range(len(pool))
    ]
    run.sampled("serve.body_bytes", bodies, "bytes")
    single = []
    for i in range(30):
        started = time.perf_counter()
        detector.predict_proba_tensors(pool[i % len(pool)][None])
        single.append(1000 * (time.perf_counter() - started))
    run.sampled("nn.infer_single_ms", single, "ms")
    wait = stats["metrics"]["histograms"]["serve.queue_wait.seconds"]
    run.metric("serve.queue_wait_ms", 1000.0 * wait["mean"], "ms")
    run.metric("serve.batch_size_mean", stats["serve"]["mean_batch_size"],
               "count")
    run.metric("serve.server_cpu_ms_per_request", 1000.0 * cpu_s / served,
               "ms")
    print(f"[serve-http] traced {len(loop.latencies)} requests in {wall:.1f}s")
    return tracer


def _engine_phase(registry_dir: Path, pool, expected, run: Run,
                  tracer: Tracer) -> _Loop:
    """The CLI's engine in-process, same two callers, no HTTP."""
    from repro.obs.slo import default_serve_objectives
    from repro.serve import EngineConfig, InferenceEngine, ModelRegistry

    registry = ModelRegistry(registry_dir)
    registry.activate(None)
    engine = InferenceEngine(registry, EngineConfig(),
                             slo=default_serve_objectives())
    try:
        engine.predict(pool[0][None])
        loop = _Loop(pool, expected, run.seed + 2)

        loop.drive(lambda tensor: engine.predict(tensor[None]),
                   run.seconds / 3.0, tracer, "serve.engine")
    finally:
        engine.close(drain=True)
    return loop
