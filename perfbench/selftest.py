#!/usr/bin/env python3
"""Self-tests for the benchmark's output checks.

Each check first passes on genuine program output made from small
inputs, then must reject one planted error:

- a threshold nudged by 1e-6 relative (literal, model, break-even BER
  and size-floor cells, one at a time);
- one flipped payload byte (a compressed and a raw response);
- a ledger record missing a tag;
- a rerun record with one changed digit.

Run from the repository root: ``python3 perfbench/selftest.py``.  Exit
status 0 means every planted error was caught.
"""

from __future__ import annotations

import asyncio
import copy
import hashlib
import pathlib
import random
import re
import shutil
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import proxy_tcp  # noqa: E402
import session_sweep  # noqa: E402
import threshold_plane  # noqa: E402

FAILURES = []


def expect(label: str, misses, caught: bool) -> None:
    """Record whether ``misses`` is empty/non-empty as expected."""
    ok = bool(misses) == caught
    verdict = "ok  " if ok else "FAIL"
    what = "rejected" if misses else "passed"
    print(f"{verdict} {label}: {what}"
          + (f" ({misses[0][:90]})" if misses else ""))
    if not ok:
        FAILURES.append(label)


def nudge(record, factor: float = 1.0 + 1e-6):
    bad = copy.deepcopy(record)
    (key, value), = bad["metrics"].items()
    bad["metrics"][key] = float(value) * factor
    return bad


def threshold_checks() -> None:
    from repro.campaign.runner import run_campaign
    from repro.campaign.spec import CampaignSpec

    cells = threshold_plane.build_cells(3)
    rng = random.Random(3)
    picked = [c for c in cells if c.get("literal")]
    for quantity in ("factor", "size_floor", "break_even_ber"):
        pool = [c for c in cells
                if c["quantity"] == quantity and not c.get("literal")]
        picked += rng.sample(pool, 4)
    spec = CampaignSpec(name="selftest", mode="list",
                        base={"kind": "threshold"}, cells=picked)
    records = run_campaign(spec).records
    expect("threshold-plane genuine output", threshold_plane.check(records),
           caught=False)

    def plant(pred, label):
        i = next(i for i, r in enumerate(records) if pred(r["params"]))
        bad = list(records)
        bad[i] = nudge(records[i])
        expect(f"threshold-plane {label} nudged 1e-6",
               threshold_plane.check(bad), caught=True)

    plant(lambda p: p.get("literal") and p["quantity"] == "factor"
          and p["size_mb"] > 0.01, "literal factor")
    plant(lambda p: not p.get("literal") and p["quantity"] == "factor"
          and p["loss_rate"] > 0, "model factor")
    plant(lambda p: p["quantity"] == "break_even_ber", "break-even BER")
    plant(lambda p: p["quantity"] == "size_floor"
          and not p.get("literal"), "size floor")


def session_checks() -> None:
    from repro.campaign.cache import ResultCache
    from repro.campaign.runner import CampaignRunner
    from repro.campaign.spec import CampaignSpec
    from repro.campaign.store import ResultStore

    smallest = min(session_sweep.build_cells(3),
                   key=lambda c: c.get("size_mb", 1e9))["size_mb"]
    cells = [c for c in session_sweep.build_cells(3)
             if c.get("size_mb") == smallest]
    spec = CampaignSpec(name="selftest", mode="list", cells=cells)
    root = HERE.parent / session_sweep.WORK_DIR
    root.mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix="selftest-", dir=root))
    try:
        cache = ResultCache(work / "cache")
        cold = CampaignRunner(spec, store=ResultStore(work / "cold"),
                              cache=cache).run()
        warm = CampaignRunner(spec, store=ResultStore(work / "warm"),
                              cache=cache).run()
        cold_bytes = (work / "cold" / "results.jsonl").read_bytes()
        warm_bytes = (work / "warm" / "results.jsonl").read_bytes()
    finally:
        shutil.rmtree(work)
        try:
            root.rmdir()
        except OSError:
            pass
    records = cold.records
    expect("session-sweep genuine output", session_sweep.check(records),
           caught=False)
    expect("session-sweep genuine rerun",
           session_sweep.check_rerun(warm.summary, cold_bytes, warm_bytes),
           caught=False)

    i = next(i for i, r in enumerate(records)
             if r["params"].get("condition") == "loss")
    bad = copy.deepcopy(records)
    tag = max((k for k in bad[i]["metrics"] if k.startswith("energy_by_tag.")),
              key=lambda k: bad[i]["metrics"][k])
    del bad[i]["metrics"][tag]
    expect(f"session-sweep record missing {tag}",
           session_sweep.check(bad), caught=True)

    lines = warm_bytes.split(b"\n")
    j = next(j for j, line in enumerate(lines) if b'"energy_j":' in line)
    line = lines[j].decode()
    m = re.search(r'"energy_j":\d+\.(\d)', line)
    digit = m.group(1)
    changed = line[:m.start(1)] + str((int(digit) + 1) % 10) + line[m.end(1):]
    lines[j] = changed.encode()
    expect("session-sweep rerun record with one changed digit",
           session_sweep.check_rerun(warm.summary, cold_bytes,
                                     b"\n".join(lines)),
           caught=True)


async def _proxy_session():
    from repro.proxy.server import ProxyServer
    from repro.workload import generators

    store = ProxyServer()
    objects = {}
    blobs = {
        "text.log": generators.blended(
            generators.FileType.LOG, 24000, 7, 0.5),
        "note.mail": generators.blended(
            generators.FileType.MAIL, 2000, 7, 0.5),
        "noise.bin": random.Random(7).randbytes(9000),
    }
    for name, data in blobs.items():
        store.put(name, data)
        objects[name] = (len(data), hashlib.sha256(data).digest())
    keep = {}
    serving = await proxy_tcp.Serving(store).open(keep)
    work = [proxy_tcp.Request(n, s, 11.0, loss)
            for n in blobs for s in proxy_tcp.SCHEMES for loss in (0.0, 0.05)]
    _, responses = await serving.run(work)
    drained = [await serving.close()]
    return objects, responses, keep, drained


def proxy_checks() -> None:
    objects, responses, keep, drained = asyncio.run(_proxy_session())
    expect("proxy-tcp genuine output",
           proxy_tcp.check(objects, responses, keep, drained), caught=False)

    compressed = next(r for r in responses if r.mechanism == "compress")
    bad_keep = dict(keep)
    payload = bytearray(keep[compressed.digest])
    payload[len(payload) // 2] ^= 0x01
    bad_keep[compressed.digest] = bytes(payload)
    expect("proxy-tcp compressed payload with one flipped byte",
           proxy_tcp.check(objects, responses, bad_keep, drained),
           caught=True)

    raw = next(r for r in responses if r.mechanism == "raw")
    payload = bytearray(keep[raw.digest])
    payload[0] ^= 0x80
    bad = [copy.copy(r) for r in responses]
    k = responses.index(raw)
    bad[k].digest = hashlib.sha256(bytes(payload)).digest()
    expect("proxy-tcp raw payload with one flipped byte",
           proxy_tcp.check(objects, bad, keep, drained), caught=True)


def main() -> int:
    threshold_checks()
    session_checks()
    proxy_checks()
    if FAILURES:
        print(f"{len(FAILURES)} self-test(s) failed: {FAILURES}")
        return 1
    print("every planted error was caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
