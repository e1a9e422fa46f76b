"""Workload ``threshold-plane``: an Equation 6 grid through the batch engine.

Every cell is a batch-eligible ``threshold`` cell, run in memory by
``campaign.runner.run_campaign`` with one job and no store or cache,
which is the path the sweep benches use.  Spec expansion, the batch
planner and the batch evaluator do nearly all the work; no codec,
session, store or proxy code runs.

One round draws a plane the process has not seen (every anchor
jittered afresh from the seed and the round number) and runs it one
802.11b rung at a time: each rung's campaign runs cold, then at once
again (warm).  The batch engine groups cells by rung anyway, so the
split leaves its work unchanged and keeps each timed slice short.
"""

from __future__ import annotations

import math
import random
import time
from typing import Any, Dict, List, Tuple

from common import (
    RunResult, end_to_end, measure_setup, median, recording, repeat_until,
)

#: Schemes whose decompression cost model the grid sweeps (no codec runs).
SCHEMES = ("gzip", "compress")

#: File-size anchors (MB), four each side of the paper's 0.128 MB block.
SIZE_ANCHORS_MB = (0.006, 0.02, 0.06, 0.11, 0.25, 0.9, 3.0, 8.0)

#: Lossy packet-loss anchors (a clean 0.0 is always added first).
LOSS_ANCHORS = (0.01, 0.04, 0.08)

#: Residual-BER anchors (a clean 0.0 is always added first).
BER_ANCHORS = (5e-8, 4e-7)

#: Compression-factor anchors for the break-even BER cells.
FACTOR_ANCHORS = (2.0, 4.0, 8.0)

#: Relative jitter the seed applies to every anchor.
JITTER = 0.05

#: Cells drawn for the scalar-oracle and bracket checks.
ORACLE_SAMPLE = 36

#: Relative step of the bracket test around a factor or BER threshold.
BRACKET_EPS = 1e-6

#: Step (bytes) of the bracket test around a size floor, which is the
#: continuous threshold rounded to a whole byte.
FLOOR_BRACKET_BYTES = 1.0


def _jitter(rng: random.Random, value: float) -> float:
    return float(f"{value * (1.0 + rng.uniform(-JITTER, JITTER)):.6g}")


def axes(seed: int, plane: int = 0) -> Dict[str, List[float]]:
    """The seeded grid axes: every anchor jittered, clean values kept."""
    rng = random.Random(f"threshold-plane:{seed}:{plane}")
    return {
        "size_mb": [_jitter(rng, s) for s in SIZE_ANCHORS_MB],
        "loss_rate": [0.0] + [_jitter(rng, x) for x in LOSS_ANCHORS],
        "corrupt_rate": [0.0] + [_jitter(rng, x) for x in BER_ANCHORS],
        "factor": [_jitter(rng, f) for f in FACTOR_ANCHORS],
    }


def build_cells(seed: int, plane: int = 0) -> List[Dict[str, Any]]:
    """Every cell of one plane (list-mode spec entries)."""
    from repro.network.wlan import LADDER_MBPS

    ax = axes(seed, plane)
    cells: List[Dict[str, Any]] = []
    for size in ax["size_mb"]:
        for codec in SCHEMES:
            for link in LADDER_MBPS:
                for loss in ax["loss_rate"]:
                    for ber in ax["corrupt_rate"]:
                        cells.append({
                            "quantity": "factor", "size_mb": size,
                            "codec": codec, "link_mbps": link,
                            "loss_rate": loss, "corrupt_rate": ber,
                        })
                for factor in ax["factor"]:
                    cells.append({
                        "quantity": "break_even_ber", "size_mb": size,
                        "codec": codec, "link_mbps": link, "factor": factor,
                    })
        cells.append({"quantity": "factor", "size_mb": size,
                      "literal": True})
    for codec in SCHEMES:
        for link in LADDER_MBPS:
            for loss in ax["loss_rate"]:
                for ber in ax["corrupt_rate"]:
                    cells.append({
                        "quantity": "size_floor", "codec": codec,
                        "link_mbps": link, "loss_rate": loss,
                        "corrupt_rate": ber,
                    })
    cells.append({"quantity": "size_floor", "literal": True})
    return cells


def build_specs(seed: int, plane: int = 0) -> list:
    """One campaign spec per rung; the literal cells ride with the first."""
    from repro.campaign.spec import CampaignSpec
    from repro.network.wlan import LADDER_MBPS

    by_rung: Dict[float, List[Dict[str, Any]]] = {r: [] for r in LADDER_MBPS}
    for cell in build_cells(seed, plane):
        by_rung[cell.get("link_mbps", LADDER_MBPS[0])].append(cell)
    return [
        CampaignSpec(
            name=f"threshold-plane-{rung:g}", mode="list",
            base={"kind": "threshold"}, cells=cells, seed=seed,
        )
        for rung, cells in by_rung.items()
    ]


def run(seed: int, seconds: float, clock, tracer=None,
        started: float = 0.0) -> RunResult:
    from repro.campaign.runner import run_campaign
    from repro.simulator import batch  # noqa: F401  (an import set-up pays)

    imported = time.perf_counter()
    first_specs, setup_s, _ = measure_setup(
        clock, lambda: build_specs(seed), clock.scale(imported - started)
    )
    planes: List[List[Dict[str, Any]]] = []
    #: Per rung: the scaled time of each round's cold and warm run.
    cold_times: List[List[float]] = [[] for _ in first_specs]
    warm_times: List[List[float]] = [[] for _ in first_specs]
    counts = {"cold": 0, "warm": 0, "failed": 0, "batch": 0}
    misses: List[str] = []

    def timed(spec):
        t0 = time.perf_counter()
        result = run_campaign(spec, jobs=1)
        return result, clock.scale(time.perf_counter() - t0)

    def one_round() -> None:
        specs = first_specs if not planes else build_specs(seed, len(planes))
        clock.mark()
        records: List[Dict[str, Any]] = []
        for rung, spec in enumerate(specs):
            cold, dt = timed(spec)
            cold_times[rung].append(dt)
            warm, dt = timed(spec)
            warm_times[rung].append(dt)
            counts["cold"] += cold.summary.total
            counts["warm"] += warm.summary.total
            counts["failed"] += cold.summary.failed + warm.summary.failed
            if not planes:
                counts["batch"] += cold.summary.batch_cells
            if warm.records != cold.records:
                misses.append(f"{spec.name}: the warm run's records differ "
                              f"from the cold run's")
            records.extend(cold.records)
        planes.append(records)

    setup_raw = clock.raw_s
    with recording(tracer):
        repeat_until(seconds, one_round)
    timed_raw = clock.raw_s - setup_raw
    for i, records in enumerate(planes):
        misses.extend(check(records, sample_seed=seed, oracle=(i == 0)))
    cells = len(planes[0])
    # Every round's plane has the same shape, so each rung's median run
    # stands for it, which a passing stall cannot move; a warm operation
    # is the whole plane again, rung by rung.
    cold_s = sum(median(t) for t in cold_times)
    warm_s = sum(median(t) for t in warm_times)
    warm_planes = [sum(t) for t in zip(*warm_times)]
    metrics = end_to_end(setup_s, cells, cold_s, cells, warm_s, [warm_s])
    notes = {
        "cells_per_plane": cells,
        "rounds": len(planes),
        "batch_cells": counts["batch"],
        "warm_plane_s": [round(dt, 4) for dt in warm_planes],
    }
    layers = {"batch.declined_cells": float(cells - counts["batch"])}
    return RunResult(counts["cold"] + counts["warm"], counts["failed"],
                     metrics, misses, timed_raw, layers, notes)


# -- output checks ------------------------------------------------------------


def literal_factor(size_mb: float) -> float:
    """The paper's closed-form Equation 6 factor threshold."""
    from repro import units

    if size_mb > units.BLOCK_SIZE_MB:
        num, term = 1.13, 0.00157
    else:
        num, term = 1.30, 0.00372
    margin = 1.0 - term / size_mb
    if margin <= 0.0:
        return math.inf
    return max(1.0, num / margin)


def _value(record: Dict[str, Any]) -> float:
    metrics = record["metrics"]
    (value,) = metrics.values()
    if isinstance(value, str):
        return float(value)
    return value


def _scalar(params: Dict[str, Any]):
    """The scalar path's value and a bracket predicate for one cell."""
    from repro import units
    from repro.core import thresholds
    from repro.network.arq import ArqConfig

    literal = bool(params.get("literal", False))
    model = None if literal else thresholds.model_at_rate(params["link_mbps"])
    codec = params.get("codec", "gzip")
    loss = float(params.get("loss_rate", 0.0))
    ber = float(params.get("corrupt_rate", 0.0))
    arq = ArqConfig() if loss > 0 else None
    quantity = params["quantity"]
    if quantity == "factor":
        raw = float(params["size_mb"]) * units.BYTES_PER_MB
        value = thresholds.factor_threshold(
            raw, model, codec=codec, loss_rate=loss, arq=arq,
            corrupt_rate=ber,
        )

        def pays(x: float) -> bool:
            return thresholds.compression_worthwhile(
                raw, x, model, codec=codec, loss_rate=loss, arq=arq,
                corrupt_rate=ber,
            )
        return value, pays
    if quantity == "size_floor":
        value = thresholds.size_threshold_bytes(
            model, codec=codec, loss_rate=loss, arq=arq, corrupt_rate=ber,
        )

        def pays(x: float) -> bool:
            if model is None and loss == 0 and ber == 0:
                return thresholds.paper_condition(
                    x, thresholds.SIZE_BISECT_HUGE_FACTOR
                )
            return thresholds.compression_worthwhile(
                x, thresholds.SIZE_BISECT_HUGE_FACTOR, model, codec=codec,
                loss_rate=loss, arq=arq, corrupt_rate=ber,
            )
        return value, pays
    raw = float(params["size_mb"]) * units.BYTES_PER_MB
    factor = float(params["factor"])
    value = thresholds.break_even_corrupt_rate(raw, factor, model, codec=codec)

    def pays(x: float) -> bool:
        return thresholds.compression_worthwhile(
            raw, factor, model, codec=codec, corrupt_rate=x,
        )
    return value, pays


def _bracket_miss(params: Dict[str, Any], value: float, pays) -> str:
    """Empty when ``value`` separates paying from not paying."""
    from repro.core import thresholds

    quantity = params["quantity"]
    label = f"{quantity} cell {params}"
    if quantity == "break_even_ber":
        if value == 0.0:
            return "" if not pays(0.0) else f"{label}: pays on a clean link"
        if math.isinf(value):
            hi = thresholds.BREAK_EVEN_MAX_RATE
            return "" if pays(hi) else f"{label}: inf but fails at max rate"
        below, above = value * (1 - BRACKET_EPS), value * (1 + BRACKET_EPS)
        if pays(below) and not pays(above):
            return ""
        return f"{label}: BER {value!r} does not bracket the verdict"
    if math.isinf(value):
        hi = thresholds.FACTOR_BISECT_HI
        return "" if not pays(hi) else f"{label}: inf but pays at {hi:g}"
    if value == 1.0:
        return "" if pays(1.0) else f"{label}: 1 but does not pay at 1"
    if quantity == "factor":
        above, below = value * (1 + BRACKET_EPS), value * (1 - BRACKET_EPS)
    else:
        above, below = value + FLOOR_BRACKET_BYTES, value - FLOOR_BRACKET_BYTES
    if pays(above) and not pays(below):
        return ""
    return f"{label}: threshold {value!r} does not bracket the verdict"


def _monotone_misses(records: List[Dict[str, Any]]) -> List[str]:
    """Grid-neighbour property checks on the model (non-literal) cells."""
    factor: Dict[Tuple, float] = {}
    floor: Dict[Tuple, float] = {}
    for rec in records:
        p = rec["params"]
        if p.get("literal"):
            continue
        if p["quantity"] == "factor":
            key = (p["size_mb"], p["codec"], p["link_mbps"],
                   p["loss_rate"], p["corrupt_rate"])
            factor[key] = _value(rec)
        elif p["quantity"] == "size_floor":
            key = (p["codec"], p["link_mbps"], p["loss_rate"],
                   p["corrupt_rate"])
            floor[key] = _value(rec)
    misses: List[str] = []
    losses = sorted({k[3] for k in factor} | {k[2] for k in floor})
    bers = sorted({k[4] for k in factor})

    def neighbour(table, key, pos, axis):
        """The value one step up ``axis`` at position ``pos`` of ``key``."""
        i = axis.index(key[pos]) + 1
        if i >= len(axis):
            return None
        return table.get(key[:pos] + (axis[i],) + key[pos + 1:])

    for key, value in factor.items():
        nxt = neighbour(factor, key, 3, losses)
        if nxt is not None and nxt > value:
            misses.append(f"factor rises with loss at {key}")
        nxt = neighbour(factor, key, 4, bers)
        if nxt is not None and nxt < value:
            misses.append(f"factor falls with BER at {key}")
    for key, value in floor.items():
        nxt = neighbour(floor, key, 2, losses)
        if nxt is not None and not nxt < value:
            misses.append(f"size floor does not shrink with loss at {key}")
        at_11 = floor.get((key[0], 11.0) + key[2:])
        if key[1] == 2.0 and at_11 is not None and not value < at_11:
            misses.append(f"size floor at 2 Mb/s not below 11 at {key}")
    return misses


def check(records: List[Dict[str, Any]], sample_seed: int = 0,
          oracle: bool = True) -> List[str]:
    """Every threshold-plane output check on one plane; the misses.

    ``oracle`` adds the seeded scalar-oracle and bracket sample.
    """
    from repro import units

    misses: List[str] = []
    for rec in records:
        if rec["status"] != "ok":
            misses.append(f"cell {rec['cell_id']} failed: {rec.get('error')}")
    if misses:
        return misses
    # 1. Literal cells equal the paper's closed form.
    for rec in records:
        p = rec["params"]
        if not p.get("literal"):
            continue
        value = _value(rec)
        if p["quantity"] == "size_floor":
            if value != units.THRESHOLD_FILE_SIZE_BYTES:
                misses.append(f"literal size floor {value!r} != 3900")
            continue
        expected = literal_factor(float(p["size_mb"]))
        if math.isinf(expected) != math.isinf(value) or (
            not math.isinf(expected)
            and abs(value - expected) > 1e-12 * expected
        ):
            misses.append(
                f"literal factor at {p['size_mb']} MB: {value!r} != "
                f"closed form {expected!r}"
            )
    # 2. Grid-neighbour monotonicity.
    misses.extend(_monotone_misses(records))
    if not oracle:
        return misses
    # 3 + 4. A seeded sample against the scalar oracle: bit-equal values
    # and a bracketing verdict.
    rng = random.Random(f"threshold-plane-oracle:{sample_seed}")
    sample = rng.sample(records, min(ORACLE_SAMPLE, len(records)))
    for rec in sample:
        p = rec["params"]
        value, pays = _scalar(p)
        got = _value(rec)
        if not (got == value or (math.isnan(got) and math.isnan(value))):
            misses.append(
                f"cell {rec['cell_id']}: batch {got!r} != scalar {value!r}"
            )
            continue
        miss = _bracket_miss(p, value, pays)
        if miss:
            misses.append(miss)
    return misses
