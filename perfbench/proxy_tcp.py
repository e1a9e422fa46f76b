"""Workload ``proxy-tcp``: the live proxy over loopback TCP.

``ProxyService.serve_tcp`` runs inside the benchmark process; two
client connections drive it in a closed loop with ``proxy.protocol``
frames and no chaos injection.

- **Set-up** synthesizes the scaled Table 2 corpus into a
  ``ProxyServer`` (dominated by corpus calibration) and starts the
  server.
- **Cold pass**: every object once per scheme on a clean 11 Mb/s link
  (pure-Python compression and verification inside the event loop),
  timed in short slices between host-speed probe points.
- **Priming** (untimed): every object once per scheme on the slowest
  rung, clean and lossy, so every representation any warm request
  could build exists before the warm pass; afterwards each request's
  cost class is fixed by its object, scheme and link.
- **Warm pass**: a seeded stream of requests in four classes (cached
  hit, re-sniff of an object with no cached representation, lossy
  size-floor re-derivation, passthrough of a small object), repeated
  in whole passes until the run's time is up, each pass timed in
  slices like the cold pass.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from common import RunResult, end_to_end, measure_setup, percentile, recording

#: Table 2 corpus scale (the smallest at which every file calibrates).
CORPUS_SCALE = 0.02

#: Schemes requested (the pure-Python engines).
SCHEMES = ("gzip", "compress")

#: Corpus syntheses timed for the set-up median.
SETUP_REPEATS = 3

#: Requests per timed slice of the cold pass (about 1 s) and of a warm
#: pass (about 0.3 s).
COLD_SLICE = 8
WARM_SLICE = 100

#: Concurrent client connections (the box has 2 cores).
CLIENTS = 2

#: Requests in one warm pass, by class.  Chosen so the median lands
#: inside the fast classes and p99 inside the re-sniff class, each far
#: from a class border (see README).
WARM_MIX = {"cached": 890, "small": 150, "lossy": 100, "resniff": 60}

#: Declared loss rates of lossy requests.
LOSSY_RATES = (0.01, 0.03, 0.06)

#: Clean-link size floor of the paper (bytes).
SIZE_FLOOR = 3900

#: Interval of the loop-lag ticker (traced runs), seconds.
TICK_S = 0.002

#: A tick later than this counts as a stall: the loop was held by one
#: long step (a re-sniff, a floor bisection), not by ordinary turns.
STALL_S = 0.010


@dataclass
class Request:
    name: str
    scheme: str
    link_mbps: float
    loss_rate: float
    kind: str = ""


@dataclass
class Response:
    request: Request
    ok: bool
    mechanism: str
    digest: bytes
    length: int
    latency_s: float


class Client:
    """One closed-loop connection; shares its work list with the others."""

    def __init__(self, host: str, port: int, keep: Dict[bytes, bytes]):
        self.host, self.port = host, port
        self.keep = keep
        self.reader = self.writer = None

    async def connect(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()

    async def drive(self, work: List[Request], cursor: List[int],
                    out: List[Response]) -> None:
        from repro.proxy import protocol

        while cursor[0] < len(work):
            req = work[cursor[0]]
            cursor[0] += 1
            frame = protocol.encode_frame(protocol.request_frame(
                req.name, codec=req.scheme, link_mbps=req.link_mbps,
                loss_rate=req.loss_rate, request_id=cursor[0],
            ))
            t0 = time.perf_counter()
            self.writer.write(frame)
            await self.writer.drain()
            reply = await protocol.read_frame(self.reader)
            latency = time.perf_counter() - t0
            ok = reply is not None and reply.kind == protocol.OK
            payload = reply.payload if ok else b""
            digest = hashlib.sha256(payload).digest()
            if ok and digest not in self.keep:
                self.keep[digest] = payload
            out.append(Response(
                request=req, ok=ok,
                mechanism=str(reply.header.get("mechanism")) if ok else "",
                digest=digest, length=len(payload), latency_s=latency,
            ))


async def run_pass(clients: List[Client], work: List[Request]) -> Tuple[float, List[Response]]:
    """Drive ``work`` through every client; returns (wall s, responses)."""
    out: List[Response] = []
    cursor = [0]
    t0 = time.perf_counter()
    await asyncio.gather(*(c.drive(work, cursor, out) for c in clients))
    return time.perf_counter() - t0, out


def build_store():
    """The scaled Table 2 corpus in a fresh ProxyServer, plus digests."""
    from repro.proxy.server import ProxyServer
    from repro.workload.corpus import Corpus

    store = ProxyServer()
    objects: Dict[str, Tuple[int, bytes]] = {}
    for gf in Corpus(scale=CORPUS_SCALE).files():
        store.put(gf.name, gf.data)
        objects[gf.name] = (len(gf.data), hashlib.sha256(gf.data).digest())
    return store, objects


def cold_requests(names: List[str], rng: random.Random) -> List[Request]:
    work = [Request(n, s, 11.0, 0.0, "cold") for n in names for s in SCHEMES]
    rng.shuffle(work)
    return work


def prime_requests(names: List[str]) -> List[Request]:
    slowest = 1.0
    return [
        Request(n, s, slowest, loss, "prime")
        for loss in (0.0, max(LOSSY_RATES)) for n in names for s in SCHEMES
    ]


def classify(objects: Dict[str, Tuple[int, bytes]],
             served: List[Response]) -> Dict[str, List[Tuple[str, str]]]:
    """Each (object, scheme) pair's warm class, from the responses so far.

    A pair ever served compressed holds a cached representation.
    """
    cached = {(r.request.name, r.request.scheme) for r in served
              if r.ok and r.mechanism == "compress"}
    classes: Dict[str, List[Tuple[str, str]]] = {
        "cached": [], "small": [], "lossy": [], "resniff": [],
    }
    for name in sorted(objects):
        size = objects[name][0]
        for scheme in SCHEMES:
            pair = (name, scheme)
            if pair in cached:
                classes["lossy"].append(pair)
            if size < SIZE_FLOOR:
                classes["small"].append(pair)
            elif pair in cached:
                classes["cached"].append(pair)
            else:
                classes["resniff"].append(pair)
    return classes


def warm_requests(classes, rng: random.Random) -> List[Request]:
    """One warm pass: the class mix, members balanced, order seeded."""
    from repro.network.wlan import LADDER_MBPS

    work: List[Request] = []
    for kind, count in WARM_MIX.items():
        members = list(classes[kind])
        rng.shuffle(members)
        for i in range(count):
            name, scheme = members[i % len(members)]
            loss = rng.choice(LOSSY_RATES) if kind == "lossy" else 0.0
            work.append(Request(name, scheme, rng.choice(LADDER_MBPS), loss,
                                kind))
    rng.shuffle(work)
    return work


async def _ticker(lags: List[float], stop: asyncio.Event, clock) -> None:
    """Record how late each tick wakes; ticks that span a probe point
    (which holds the loop between slices) are dropped."""
    while not stop.is_set():
        points = len(clock.points)
        t0 = time.perf_counter()
        await asyncio.sleep(TICK_S)
        if len(clock.points) == points:
            lags.append(time.perf_counter() - t0 - TICK_S)


class Serving:
    """One ProxyService on a loopback port, with its client connections."""

    def __init__(self, store) -> None:
        self.store = store
        self.responses: List[Response] = []

    async def open(self, keep: Dict[bytes, bytes]) -> "Serving":
        from repro.proxy.service import ProxyService

        self.service = ProxyService(store=self.store)
        server = await self.service.serve_tcp("127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        self.clients = [Client("127.0.0.1", port, keep)
                        for _ in range(CLIENTS)]
        for client in self.clients:
            await client.connect()
        return self

    async def run(self, work: List[Request]) -> Tuple[float, List[Response]]:
        dt, out = await run_pass(self.clients, work)
        self.responses.extend(out)
        return dt, out

    async def run_sliced(self, work: List[Request], size: int, clock
                         ) -> Tuple[float, List[Response], List[float]]:
        """Drive ``work`` in timed slices of ``size`` requests.

        Returns the scaled seconds of all slices, the responses, and
        each response's scaled latency.  The clients are idle between
        slices, so the probe points there hold nothing up.
        """
        total = 0.0
        out: List[Response] = []
        latencies: List[float] = []
        clock.mark()
        for i in range(0, len(work), size):
            dt, part = await self.run(work[i:i + size])
            scaled = clock.scale(dt)
            total += scaled
            out.extend(part)
            latencies.extend(r.latency_s * scaled / dt for r in part)
        return total, out, latencies

    async def close(self) -> Dict[str, int]:
        """Close the clients, drain the service; the drain facts."""
        for client in self.clients:
            await client.close()
        await self.service.drain()
        return {
            "outstanding": self.service.partials.outstanding(),
            "service_ok": self.service.stats.ok,
            "client_ok": sum(1 for r in self.responses if r.ok),
        }


async def _session(seed: int, seconds: float, clock, tracer, started: float):
    from repro.proxy.service import ProxyService  # noqa: F401  (timed import)

    imported = time.perf_counter()
    with recording(tracer):  # corpus synthesis is a traced layer
        (store, objects), setup_s, setup_raw = measure_setup(
            clock, build_store, clock.scale(imported - started),
            repeats=SETUP_REPEATS,
        )
    keep: Dict[bytes, bytes] = {}
    clock.mark()
    t0 = time.perf_counter()
    serving = await Serving(store).open(keep)
    setup_s += clock.scale(time.perf_counter() - t0)

    rng = random.Random(f"proxy-tcp:{seed}")
    names = sorted(objects)
    layers: Dict[str, float] = {}
    corpus_ms = None
    if tracer is not None:
        corpus = tracer.span("corpus.generate")
        layers["corpus.setup_pct"] = 100.0 * corpus.seconds / setup_raw
        corpus_ms = corpus.seconds / corpus.calls * 1e3
        # Every other span describes the timed passes only.
        tracer.spans.clear()
    timed_before = clock.raw_s
    with recording(tracer):
        cold_s, cold, _ = await serving.run_sliced(
            cold_requests(names, rng), COLD_SLICE, clock
        )
    _, primed = await serving.run(prime_requests(names))
    classes = classify(objects, serving.responses)

    warm: List[Response] = []
    warm_latencies: List[float] = []
    warm_s = 0.0
    passes = 0
    lags: List[float] = []
    cache = serving.store.cache
    cache_before = (cache.hits, cache.misses)
    compress_before = _compress_calls(tracer)
    warm_before = clock.raw_s
    stop = asyncio.Event()
    if tracer is not None:
        ticker = asyncio.ensure_future(_ticker(lags, stop, clock))
    deadline = time.perf_counter() + seconds
    with recording(tracer):
        while passes == 0 or time.perf_counter() < deadline:
            dt, out, latencies = await serving.run_sliced(
                warm_requests(classes, rng), WARM_SLICE, clock
            )
            warm_s += dt
            warm.extend(out)
            warm_latencies.extend(latencies)
            passes += 1
    if tracer is not None:
        stop.set()
        await ticker
        hits = cache.hits - cache_before[0]
        lookups = hits + cache.misses - cache_before[1]
        layers["proxy.cache_hit_ratio"] = hits / lookups if lookups else 0.0
        layers["proxy.loop_stall_pct"] = 100.0 * sum(
            lag for lag in lags if lag > STALL_S
        ) / (clock.raw_s - warm_before)
        layers["codec.warm_compress_calls"] = float(
            _compress_calls(tracer) - compress_before
        )
    timed_raw = clock.raw_s - timed_before
    drained = [await serving.close()]
    return {
        "setup_s": setup_s, "objects": objects, "classes": classes,
        "cold": cold, "cold_s": cold_s, "warm": warm, "warm_s": warm_s,
        "warm_latencies": warm_latencies, "passes": passes,
        "responses": cold + primed + warm, "keep": keep,
        "drained": drained, "layers": layers, "timed_raw": timed_raw,
        "lags": lags, "corpus_ms": corpus_ms,
    }


def _compress_calls(tracer) -> int:
    if tracer is None:
        return 0
    return sum(span.calls for name, span in tracer.spans.items()
               if name.startswith("codec.compress."))


def run(seed: int, seconds: float, clock, tracer=None,
        started: float = 0.0) -> RunResult:
    out = asyncio.run(_session(seed, seconds, clock, tracer, started))
    cold, warm = out["cold"], out["warm"]
    timed = cold + warm
    failed = sum(1 for r in timed if not r.ok)
    misses = check(out["objects"], out["responses"], out["keep"],
                   out["drained"])
    metrics = end_to_end(out["setup_s"], len(cold), out["cold_s"], len(warm),
                         out["warm_s"], out["warm_latencies"])
    latencies = [x * 1e3 for x in out["warm_latencies"]]
    p99 = percentile(latencies, 0.99)
    notes = {
        "objects": len(out["objects"]),
        "cold_requests": len(cold),
        "warm_passes": out["passes"],
        "warm_samples": len(warm),
        "warm_p99_ms": round(p99, 3),
        "warm_samples_beyond_p99": sum(1 for x in latencies if x > p99),
        "class_members": {k: len(v) for k, v in out["classes"].items()},
        "class_mean_median_ms": class_means(warm, latencies),
        "warm_deciles_ms": [
            round(percentile(latencies, q / 10), 3) for q in range(1, 10)
        ],
        "class_share": {
            k: round(v / sum(WARM_MIX.values()), 4)
            for k, v in WARM_MIX.items()
        },
    }
    if out["corpus_ms"] is not None:
        notes["corpus_generate_ms_per_file"] = round(out["corpus_ms"], 3)
    if out["lags"]:
        notes["loop_lag_p99_ms"] = round(percentile(out["lags"], 0.99) * 1e3,
                                         3)
    return RunResult(len(timed), failed, metrics, misses, out["timed_raw"],
                     out["layers"], notes)


def class_means(warm: List[Response],
                latencies_ms: List[float]) -> Dict[str, List[float]]:
    """Per warm class: [mean ms, median ms] of scaled client latency."""
    groups: Dict[str, List[float]] = {}
    for r, ms in zip(warm, latencies_ms):
        groups.setdefault(r.request.kind, []).append(ms)
    return {
        k: [round(sum(v) / len(v), 3), round(percentile(v, 0.5), 3)]
        for k, v in sorted(groups.items())
    }


# -- output checks ------------------------------------------------------------


def check(objects: Dict[str, Tuple[int, bytes]], responses: List[Response],
          keep: Dict[bytes, bytes],
          drained: List[Dict[str, int]]) -> List[str]:
    """Every proxy-tcp output check; returns the misses."""
    from repro.compression.base import get_codec

    misses: List[str] = []
    decoded: Dict[Tuple[bytes, str], Optional[bytes]] = {}
    for r in responses:
        req = r.request
        if not r.ok:
            misses.append(f"request for {req.name} ({req.scheme}) not served")
            continue
        size, sha = objects[req.name]
        if r.mechanism == "raw":
            if r.digest != sha or r.length != size:
                misses.append(f"raw payload of {req.name} differs from it")
            continue
        if r.mechanism != "compress":
            misses.append(f"{req.name}: unknown mechanism {r.mechanism!r}")
            continue
        if req.loss_rate == 0 and size < SIZE_FLOOR:
            misses.append(
                f"{req.name} ({size} B) served compressed on a clean link"
            )
        if r.length >= size:
            misses.append(
                f"{req.name}: compressed payload {r.length} B not smaller "
                f"than the object's {size} B"
            )
        key = (r.digest, req.scheme)
        if key not in decoded:
            try:
                plain = get_codec(req.scheme).decompress_bytes(keep[r.digest])
            except Exception as exc:  # any decode failure is a miss
                plain = None
                misses.append(f"{req.name}: payload does not decode ({exc})")
            decoded[key] = plain
        plain = decoded[key]
        if plain is not None and hashlib.sha256(plain).digest() != sha:
            misses.append(f"{req.name}: decoded payload differs from it")
    for facts in drained:
        if facts["outstanding"] != 0:
            misses.append(
                f"{facts['outstanding']} partial outputs outstanding "
                f"after drain"
            )
        if facts["service_ok"] != facts["client_ok"]:
            misses.append(
                f"service counted {facts['service_ok']} ok responses, "
                f"clients read {facts['client_ok']}"
            )
    return misses
