"""The per-layer boundaries the traced run times, and the metrics read
off them.

Every boundary is a public function or method of one layer, wrapped at
the name its caller uses (see :class:`common.Tracer`).  Every traced
run reports every metric in :data:`PER_LAYER`, whichever workload it
is.  Time is reported as each layer's share of the timed passes' wall
time, so a layer a workload leaves idle reads a true 0%, not a time;
the per-call figures (microseconds per cell, milliseconds per session,
KiB/s per codec) go to the ``#`` line as ``layer_detail``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from common import Tracer

#: Share metrics: name -> the span names whose time it sums.
SHARES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("campaign.expand_pct", ("campaign.expand",)),
    ("campaign.execute_pct", ("cell.",)),
    ("campaign.store_pct", ("campaign.store_append",)),
    ("campaign.cache_pct", ("campaign.cache_put", "campaign.cache_lookup")),
    ("batch.partition_pct", ("batch.partition",)),
    ("batch.evaluate_pct", ("batch.evaluate",)),
    ("session.analytic_pct", ("session.analytic",)),
    ("session.des_pct", ("session.des",)),
    ("ledger.audit_pct", ("ledger.audit",)),
    ("fleet.synthesize_pct", ("fleet.synthesize",)),
    ("fleet.evaluate_pct", ("fleet.evaluate",)),
    ("thresholds.size_floor_pct", ("thresholds.size_floor",)),
    ("codec.compress_pct", ("codec.compress.",)),
    ("codec.decompress_pct", ("codec.decompress.",)),
    ("proxy.decide_pct", ("proxy.decide",)),
    ("proxy.handle_pct", ("proxy.handle",)),
)

#: Every per-layer metric: (name, unit, better), in report order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    *((name, "%", "lower") for name, _ in SHARES),
    ("proxy.loop_stall_pct", "%", "lower"),
    ("corpus.setup_pct", "%", "lower"),
    ("batch.declined_cells", "count", "lower"),
    ("thresholds.size_floor_calls", "count", "lower"),
    ("codec.calls", "count", "lower"),
    ("codec.warm_compress_calls", "count", "lower"),
    ("campaign.cache_hit_ratio", "ratio", "higher"),
    ("proxy.cache_hit_ratio", "ratio", "higher"),
    ("host.probe_ms", "ms", "lower"),
)

#: Metrics a workload sets itself; each reads 0 where that workload
#: does not set it.
WORKLOAD_SET = (
    "proxy.loop_stall_pct", "corpus.setup_pct", "batch.declined_cells",
    "codec.warm_compress_calls", "campaign.cache_hit_ratio",
    "proxy.cache_hit_ratio",
)


def _cell_kind(params, *args, **kwargs) -> str:
    kind = params.get("kind", "simulate")
    if kind == "simulate":
        kind = f"simulate-{params.get('engine', 'analytic')}"
    return f"cell.{kind}"


def _codec_span(direction: str):
    def namer(codec, *args, **kwargs) -> str:
        return f"codec.{direction}.{codec.name}"
    return namer


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from repro.campaign import runner
    from repro.campaign.cache import ResultCache
    from repro.campaign.spec import CampaignSpec
    from repro.campaign.store import ResultStore
    from repro.compression.base import available_codecs, get_codec
    from repro.core import thresholds
    from repro.fleet import aggregate, population
    from repro.observability.ledger import EnergyLedger
    from repro.proxy.service import ProxyService
    from repro.simulator import batch
    from repro.simulator.analytic import AnalyticSession
    from repro.simulator.des import DesSession
    from repro.workload.corpus import Corpus

    wrap = tracer.wrap
    # campaign
    wrap(CampaignSpec, "expand", "campaign.expand",
         units=lambda cells, *a, **k: len(cells))
    wrap(runner, "execute_cell", _cell_kind)
    wrap(ResultStore, "append", "campaign.store_append")
    wrap(ResultCache, "store", "campaign.cache_put")
    wrap(ResultCache, "lookup", "campaign.cache_lookup")
    # simulator: batch planner and evaluator, both session engines
    wrap(batch, "partition_cells", "batch.partition",
         units=lambda out, cells, *a, **k: len(cells))
    wrap(batch, "evaluate_cells", "batch.evaluate",
         units=lambda out, cells, *a, **k: len(cells))
    for engine, cls in (("analytic", AnalyticSession), ("des", DesSession)):
        for method in ("raw", "precompressed"):
            wrap(cls, method, f"session.{engine}")
    # observability
    wrap(EnergyLedger, "audit", "ledger.audit")
    # fleet
    wrap(population, "synthesize", "fleet.synthesize")
    wrap(aggregate, "evaluate_population", "fleet.evaluate",
         units=lambda summary, *a, **k: float(summary.cohorts))
    # core
    wrap(thresholds, "size_threshold_bytes", "thresholds.size_floor")
    # workload
    wrap(Corpus, "generate", "corpus.generate")
    # compression: every registered codec class, keyed by codec name
    seen = set()
    for codec_name in available_codecs():
        cls = type(get_codec(codec_name))
        if cls in seen:
            continue
        seen.add(cls)
        for method, direction, nbytes in (
            ("compress_bytes", "compress", lambda out, c, data: len(data)),
            ("decompress_bytes", "decompress",
             lambda out, c, payload: len(out)),
        ):
            if method in cls.__dict__:
                wrap(cls, method, _codec_span(direction), units=nbytes)
    # proxy
    wrap(ProxyService, "decide", "proxy.decide")
    wrap(ProxyService, "handle_request", "proxy.handle")


def _seconds(tracer: Tracer, prefixes: Tuple[str, ...]) -> float:
    """Seconds recorded under spans named by (or starting with) a prefix."""
    return sum(
        span.seconds for name, span in tracer.spans.items()
        if any(name == p or (p.endswith(".") and name.startswith(p))
               for p in prefixes)
    )


def metrics(tracer: Tracer, timed_s: float,
            extra: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric, read off the tracer plus ``extra``.

    ``timed_s`` is the raw wall time of the timed passes; ``extra``
    carries what the workload measured itself and the host probe.
    """
    values: Dict[str, float] = dict.fromkeys(WORKLOAD_SET, 0.0)
    for name, prefixes in SHARES:
        values[name] = 100.0 * _seconds(tracer, prefixes) / timed_s
    values["thresholds.size_floor_calls"] = float(
        tracer.calls("thresholds.size_floor")
    )
    values["codec.calls"] = float(sum(
        span.calls for name, span in tracer.spans.items()
        if name.startswith("codec.")
    ))
    values.update(extra)
    missing = [name for name, _, _ in PER_LAYER if name not in values]
    if missing:
        raise KeyError(f"per-layer metrics never set: {missing}")
    return {name: (float(values[name]), unit) for name, unit, _ in PER_LAYER}


def detail(tracer: Tracer) -> Dict[str, float]:
    """Per-call figures of every boundary that ran, for the ``#`` line."""
    t = tracer
    out: Dict[str, float] = {
        "campaign.expand_us_per_cell": t.us_per_unit("campaign.expand"),
        "campaign.store_append_us": t.mean_ms("campaign.store_append") * 1e3,
        "campaign.cache_put_us": t.mean_ms("campaign.cache_put") * 1e3,
        "campaign.cache_lookup_us": t.mean_ms("campaign.cache_lookup") * 1e3,
        "batch.partition_us_per_cell": t.us_per_unit("batch.partition"),
        "batch.evaluate_us_per_cell": t.us_per_unit("batch.evaluate"),
        "session.analytic_ms": t.mean_ms("session.analytic"),
        "session.des_ms": t.mean_ms("session.des"),
        "ledger.audit_us": t.mean_ms("ledger.audit") * 1e3,
        "fleet.synthesize_ms": t.mean_ms("fleet.synthesize"),
        "fleet.evaluate_us_per_cohort": t.us_per_unit("fleet.evaluate"),
        "thresholds.size_floor_ms": t.mean_ms("thresholds.size_floor"),
        "proxy.decide_ms": t.mean_ms("proxy.decide"),
        "proxy.handle_ms": t.mean_ms("proxy.handle"),
    }
    for name in t.spans:
        if name.startswith("cell."):
            out[f"campaign.cell_ms.{name[5:]}"] = t.mean_ms(name)
        elif name.startswith("codec."):
            _, direction, scheme = name.split(".", 2)
            out[f"codec.{direction}_kb_s.{scheme}"] = t.kb_per_s(name)
    return {k: float(f"{v:.4g}") for k, v in sorted(out.items()) if v}
