"""``serve``: the ``repro-server`` CLI under two closed-loop clients.

The server runs in its own process on port 0 with a fresh cache and a
quota wide enough never to throttle (the default ``20:40`` would
throttle at the rate this mix reaches).  Two client threads each loop
on ``ReproClient.run_job`` — submit, follow the SSE stream, download
the artifact — over seeded inline-MiniC specs at the server's default
verify level.  ``verify: full`` stays out: its reference differential
would make the workload measure the oracle.

Each spec is submitted once by each of one or two of four tenants.  The
first submission builds; a second is a cross-tenant cache hit, so the
client's per-tenant idempotency dedup never fires.  Hits are looked up
behind the same 2-slot job queue as builds, so head-of-line blocking
shows in the hit latency.  About a third of jobs are hits: with one to
four tenants per spec (about 60% hits) the median job falls between
the hit and the build latencies and moves 20% from seed to seed.  This
is the only workload through ``server``, ``service`` and ``client``.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import ROOT, STAGE_LAYERS, Deadline, HostSpeed, Measurement, percentile

TENANTS = ("alpha", "beta", "gamma", "delta")
TENANTS_PER_SPEC = (1, 1, 2, 2)
ENCODINGS = ("nibble", "baseline", "onebyte")
SPEC_SCALE = 0.1
CLIENT_THREADS = 2
# Specs whose served artifact is re-derived in process after the run.
CHECK_SAMPLE = 6
SERVER_TIMEOUT = 60.0
# A set-up is one server start plus a warm-up job, about half a second
# that varies 0.35-0.66 s with process start-up on a shared host; the
# median of seven is steadier than the default three.
SETUP_REPEATS = 7


class OutputMismatch(Exception):
    """An output check failed: the op produced a wrong result."""


class Plan:
    """The seeded submission sequence: (spec index, tenant, spec).

    Personalities, encodings and tenant counts are drawn from shuffled
    blocks, so every stretch of the sequence has the same mix.  A
    spec's later submissions come 1-24 positions after its first.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(f"serve:{seed}")
        self._position = 0
        self._pending: list[tuple[int, int, int, str]] = []
        self._blocks: dict[str, list] = {}
        self.specs: list[dict] = []
        self._lock = threading.Lock()

    def _draw(self, name: str, values) -> object:
        block = self._blocks.get(name)
        if not block:
            block = list(values)
            self._rng.shuffle(block)
            self._blocks[name] = block
        return block.pop()

    def _new_spec(self) -> tuple[int, str]:
        from repro.workloads import BENCHMARK_NAMES

        from common import program_source

        index = len(self.specs)
        personality = self._draw("personality", BENCHMARK_NAMES)
        encoding = self._draw("encoding", ENCODINGS)
        tenants = self._rng.sample(TENANTS, self._draw("tenants", TENANTS_PER_SPEC))
        gen = self._rng.randrange(1 << 30)
        self.specs.append({
            "source": program_source(personality, SPEC_SCALE, gen),
            "encoding": encoding,
            "name": f"s{index}-{personality}",
        })
        for order, tenant in enumerate(tenants[1:]):
            due = self._position + self._rng.randint(1, 24)
            heapq.heappush(self._pending, (due, index, order, tenant))
        return index, tenants[0]

    def next(self) -> tuple[int, str, dict]:
        with self._lock:
            if self._pending and self._pending[0][0] <= self._position:
                _, index, _, tenant = heapq.heappop(self._pending)
            else:
                index, tenant = self._new_spec()
            self._position += 1
            return index, tenant, self.specs[index]


class Server:
    """One ``repro-server`` process with its own cache directory."""

    def __init__(self, work: Path) -> None:
        work.mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self._log = open(work / "server.log", "wb")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.tools.server_cli",
                "--port", "0", "--cache-dir", str(work / "cache"),
                "--concurrency", "2", "--quota", "100000:100000",
            ],
            stdout=subprocess.PIPE, stderr=self._log, env=env, cwd=work,
        )
        self.peak_rss_mb = 0.0
        self.address = None
        # A server that never announces itself is killed, so the
        # readline below cannot block forever.
        watchdog = threading.Timer(SERVER_TIMEOUT, self.process.kill)
        watchdog.start()
        try:
            for raw in iter(self.process.stdout.readline, b""):
                line = raw.decode()
                if "listening on http://" in line:
                    host, _, port = line.split("http://", 1)[1].split()[0].rpartition(":")
                    self.address = (host, int(port))
                    break
        finally:
            watchdog.cancel()
        if self.address is None:
            self.stop()
            raise RuntimeError(f"repro-server did not start; see {work / 'server.log'}")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then reap with the child's rusage."""
        if self.process.returncode is not None:
            return
        # send_signal polls first, so a server that already died is
        # reaped there (without its rusage) and not signalled.
        self.process.send_signal(signal.SIGTERM)
        killer = threading.Timer(SERVER_TIMEOUT, self.process.kill)
        killer.start()
        try:
            self.process.stdout.read()
            if self.process.returncode is None:
                _, status, usage = os.wait4(self.process.pid, 0)
                self.process.returncode = os.waitstatus_to_exitcode(status)
                self.peak_rss_mb = usage.ru_maxrss / 1024.0
        finally:
            killer.cancel()
            self.process.stdout.close()
            self._log.close()


class State:
    def __init__(self, seed: int, work: Path, server: Server | None) -> None:
        self.seed = seed
        self.work = work
        self.server = server
        self.sessions = 0


def _warmup_spec(seed: int) -> dict:
    from common import program_source

    gen = random.Random(f"serve-warm:{seed}").randrange(1 << 30)
    return {"source": program_source("li", SPEC_SCALE, gen), "encoding": "nibble",
            "name": "warmup"}


def start_session(state: State) -> None:
    """A fresh server plus one warm-up build, so lazy imports in the
    server are not timed."""
    from repro.client import ReproClient

    state.sessions += 1
    state.server = Server(state.work / f"server{state.sessions}")
    outcome = ReproClient(state.server.address, tenant="warmup").run_job(
        _warmup_spec(state.seed)
    )
    if outcome.outcome != "completed":
        state.server.stop()
        raise RuntimeError(f"warm-up job {outcome.outcome}: {outcome.error}")


def setup(seed: int, work: Path) -> State:
    state = State(seed, work, None)
    start_session(state)
    return state


def teardown(state: State) -> None:
    if state.server is not None:
        state.server.stop()
        state.server = None


def _traced_client(client, tracer, record: dict) -> None:
    """Wrap the client's three calls in benchmark spans (instance
    attributes shadow the methods ``run_job`` calls); the SSE span of
    the latest op lands in ``record``."""
    submit, wait, artifact = client.submit, client.wait, client.artifact

    def traced_submit(spec):
        with tracer.call("submit", "client"):
            return submit(spec)

    def traced_wait(job_id):
        with tracer.call("sse", "client") as span:
            terminal, events = wait(job_id)
        record["sse"] = span
        return terminal, events

    def traced_artifact(job_id):
        with tracer.call("artifact", "client"):
            return artifact(job_id)

    client.submit, client.wait, client.artifact = traced_submit, traced_wait, traced_artifact


def _attribute_server_time(tracer, sse, terminal: dict, events: list[dict]) -> None:
    """Split the client's 202 -> terminal interval with what the server
    reported: the job's wall time (``service``, holding the program's
    stage spans) and the rest (``server``: queueing, HTTP, SSE)."""
    wall_ns = int(terminal["data"]["wall_seconds"] * 1e9)
    job_start = max(sse.start_ns, sse.end_ns - wall_ns)
    job = tracer.synthetic("job", "service", sse, job_start, sse.end_ns)
    cursor = job_start
    for event in events:
        if event["kind"] != "stage":
            continue
        name = event["data"]["name"]
        if name in STAGE_LAYERS:
            duration = event["data"]["duration_us"] * 1000
            tracer.synthetic(name, STAGE_LAYERS[name], job, cursor, cursor + duration)
            cursor += duration
    tracer.synthetic("queue_wait", "server", sse, sse.start_ns, job_start)


def _client_loop(state, plan, tracer, deadline, results, lock) -> None:
    from repro.client import ReproClient

    clients = {}
    record: dict = {}
    while not deadline.reached():
        index, tenant, spec = plan.next()
        client = clients.get(tenant)
        if client is None:
            client = clients[tenant] = ReproClient(state.server.address, tenant=tenant)
            if tracer.enabled:
                _traced_client(client, tracer, record)
        record.clear()
        with lock:
            op_id = len(results)
            results.append(None)
        start = time.perf_counter()
        with tracer.op(op_id, spec=index, tenant=tenant):
            outcome = client.run_job(spec)
        span = (start, time.perf_counter())
        terminal = outcome.events[-1] if outcome.events else None
        if tracer.enabled and "sse" in record and terminal and terminal["kind"] == "completed":
            _attribute_server_time(tracer, record["sse"], terminal, outcome.events)
        results[op_id] = (index, tenant, outcome, span)


def check_artifact(spec: dict, blob: bytes) -> None:
    """The served artifact must equal an in-process build of the spec."""
    from repro import CompressionJob

    _, image = CompressionJob(
        source=spec["source"], encoding=spec["encoding"], name=spec["name"]
    ).run()
    if image.to_bytes() != blob:
        raise OutputMismatch(f"{spec['name']}: served artifact differs from in-process build")


def measure(state: State, seconds: float, tracer) -> Measurement:
    if state.server is None:
        start_session(state)
    plan = Plan(state.seed)
    results: list = []
    lock = threading.Lock()
    speed = HostSpeed()
    speed.sample()
    stop_sampler = threading.Event()
    sampler = threading.Thread(target=speed.sample_until, args=(stop_sampler,), name="host-speed")
    deadline = Deadline(speed, seconds)
    sampler.start()
    threads = [
        threading.Thread(
            target=_client_loop, args=(state, plan, tracer, deadline, results, lock),
            name=f"client-{i}",
        )
        for i in range(CLIENT_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=3 * seconds + 4 * SERVER_TIMEOUT)
    intervals = [(deadline.start, time.perf_counter())]
    stop_sampler.set()
    sampler.join()
    speed.sample()
    teardown_server = state.server
    state.server = None
    teardown_server.stop()
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a client thread did not finish")

    ops, errors = [], []
    hits, misses, walls_hit, walls_miss = [], [], [], []
    digests: dict[int, set] = {}
    meta_by_spec: dict[int, dict] = {}
    blobs: dict[int, bytes] = {}
    throttles = retries = 0
    for index, tenant, outcome, span in results:
        throttles += outcome.throttles
        retries += outcome.retries
        if outcome.outcome != "completed":
            errors.append(f"s{index}/{tenant}: {outcome.outcome}: {outcome.error}")
            continue
        ops.append(span)
        data = outcome.events[-1]["data"]
        (hits if data["cache_hit"] else misses).append(span)
        (walls_hit if data["cache_hit"] else walls_miss).append(data["wall_seconds"])
        digests.setdefault(index, set()).add(hashlib.sha256(outcome.data).hexdigest())
        meta_by_spec[index] = data["meta"]
        blobs[index] = outcome.data
    for index, seen in sorted(digests.items()):
        if len(seen) != 1:
            errors.append(f"s{index}: tenants received {len(seen)} different artifacts")
    sample = random.Random(f"serve:{state.seed}:check").sample(
        sorted(blobs), min(CHECK_SAMPLE, len(blobs))
    )
    for index in sample:
        try:
            check_artifact(plan.specs[index], blobs[index])
        except Exception as exc:  # noqa: BLE001 — a failed check is a failed op
            errors.append(f"s{index}: {type(exc).__name__}: {exc}")
    ratios = [
        meta["compressed_bytes"] / meta["original_bytes"]
        for _, meta in sorted(meta_by_spec.items())
    ]
    notes = {
        "errors": errors,
        "hits": hits,
        "misses": misses,
        "walls_hit": walls_hit,
        "walls_miss": walls_miss,
        "distinct_keys": len(digests),
        "throttles": throttles,
        "retries": retries,
        "checked": len(sample),
        "peak_rss_mb": teardown_server.peak_rss_mb,
    }
    return Measurement(ops, intervals, len(results), len(errors), ratios, speed, notes)


def layer_metrics(tracer, measurement: Measurement) -> dict[str, float]:
    """Per-layer numbers this workload produces (service, server,
    client, and the compiler/linker/core stages the server ran)."""
    notes = measurement.notes
    completed = len(notes["hits"]) + len(notes["misses"])

    def p50_ms(name: str) -> float:
        values = [r.seconds for r in tracer.spans if r.name == name]
        return percentile(values, 50) * 1000 if values else 0.0

    return {
        "compiler.compile_s": tracer.total("compile"),
        "linker.link_s": tracer.total("link"),
        "core.dict_build_s": tracer.total("dict_build"),
        "core.tokenize_s": tracer.total("tokenize"),
        "core.branch_patch_s": tracer.total("branch_patch"),
        "core.serialize_s": tracer.total("serialize"),
        "core.jump_tables_s": tracer.total("jump_tables"),
        "service.job_wall_hit_ms": (
            percentile(notes["walls_hit"], 50) * 1000 if notes["walls_hit"] else 0.0
        ),
        "service.job_wall_miss_ms": (
            percentile(notes["walls_miss"], 50) * 1000 if notes["walls_miss"] else 0.0
        ),
        "service.cache_hit_frac": len(notes["hits"]) / completed if completed else 0.0,
        "service.duplicate_builds": len(notes["misses"]) - notes["distinct_keys"],
        "server.queue_wait_ms": p50_ms("queue_wait"),
        "client.submit_ms": p50_ms("submit"),
        "client.sse_ms": p50_ms("sse"),
        "client.artifact_ms": p50_ms("artifact"),
    }
