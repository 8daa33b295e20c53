"""Output checks: which cells count as failed, and the ledger's
cross-checks against the program's own counters.

Every check returns a list of reasons; an empty list means it held.
"""

from __future__ import annotations

import hashlib
import json
import os

from workloads import (
    DEFAULT_SEED,
    ROOT_CAUSE_COUNTERS,
    Workload,
    is_vswapper,
)

FINGERPRINTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "fingerprints.json")


def fingerprint(record: dict) -> str:
    """Digest of everything simulated about one cell: its result
    (status, runtime, counters, phase marks) and its machine's own
    counters.  Host timings are not part of it."""
    result = record["result"]
    doc = {
        "status": result.status,
        "runtime": result.runtime,
        "counters": result.counters,
        "phases": [p.to_dict() for p in result.phases],
        "machines": record["machines"],
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def load_fingerprints() -> dict:
    """workload -> cell id -> fingerprint, recorded at DEFAULT_SEED."""
    with open(FINGERPRINTS) as handle:
        return json.load(handle)


def sim_runtimes(records: list[dict]) -> tuple[float, float]:
    """(non-VSwapper, VSwapper) simulated seconds summed over cells."""
    base = vswap = 0.0
    for record in records:
        runtime = record["result"].runtime or 0.0
        if is_vswapper(record["spec"].config):
            vswap += runtime
        else:
            base += runtime
    return base, vswap


def check_pass(workload: Workload, records: list[dict],
               recorded: dict | None) -> dict[str, list[str]]:
    """Cell id -> failure reasons for one pass (one seed)."""
    reasons = {r["spec"].cell_id: [] for r in records}
    for record in records:
        if record["result"].status != "ok":
            reasons[record["spec"].cell_id].append(
                f"status {record['result'].status}")
    if workload.claim_speedup:
        base, vswap = sim_runtimes(records)
        if not (vswap > 0 and base / vswap > 1):
            for cell_reasons in reasons.values():
                cell_reasons.append(
                    f"sim speedup {base} / {vswap} is not above 1")
    if workload.backends_agree:
        by_id = {r["spec"].cell_id: r for r in records}
        for cell_id, record in by_id.items():
            backend, _, config = cell_id.partition("/")
            if backend != "tiered":
                continue
            other = by_id[f"zram/{config}"]
            for name in ROOT_CAUSE_COUNTERS:
                mine = record["result"].counters.get(name, 0)
                theirs = other["result"].counters.get(name, 0)
                if mine != theirs:
                    for cid in (cell_id, f"zram/{config}"):
                        reasons[cid].append(
                            f"{name}: tiered {mine} != zram {theirs}")
    if recorded is not None and records[0]["spec"].seed == DEFAULT_SEED:
        for record in records:
            cell_id = record["spec"].cell_id
            want = recorded.get(cell_id)
            got = fingerprint(record)
            if want != got:
                reasons[cell_id].append(
                    f"fingerprint {got} != recorded {want}")
    return reasons


def check_identical(untraced: list[dict],
                    traced: list[dict]) -> dict[str, list[str]]:
    """A traced cell fails unless its simulated outputs equal the
    untraced run of the same spec, bit for bit."""
    plain = {_cell_key(r): fingerprint(r) for r in untraced}
    reasons = {}
    for record in traced:
        key = _cell_key(record)
        got = fingerprint(record)
        reasons[key] = ([] if plain.get(key) == got else
                        [f"traced fingerprint {got} != untraced "
                         f"{plain.get(key)}"])
    return reasons


def _cell_key(record: dict) -> str:
    return f"{record['spec'].cell_id}@{record['spec'].seed}"


def cross_check(record: dict) -> list[str]:
    """The ledger's entry counts against the program's own counters
    for one traced cell."""
    problems = []
    entries = record["entries"]
    where = _cell_key(record)
    if entries["guest.execute"] != record["driver_ops"]:
        problems.append(
            f"{where}: {entries['guest.execute']} GuestKernel.execute "
            f"calls != {record['driver_ops']} operations consumed")
    if entries["guest.execute"] != record["ops"]:
        problems.append(
            f"{where}: ledger saw {entries['guest.execute']} executes, "
            f"the op counter {record['ops']}")
    for machine in record["machines"]:
        stats = machine["swapback"]
        if stats["class"] == "CompressedBackend":
            # zram counts one store per page and skips load holes.
            stores_ok = stats["stores"] == entries["swapback.store_pages"]
            loads_ok = stats["loads"] <= entries["swapback.load_pages"]
        else:
            stores_ok = stats["stores"] == entries["swapback.store"]
            loads_ok = stats["loads"] == entries["swapback.load"]
        if not stores_ok:
            problems.append(
                f"{where}: {stats['class']}.stats.stores {stats['stores']}"
                f" != wrapped store calls {entries['swapback.store']} "
                f"({entries['swapback.store_pages']} pages)")
        if not loads_ok:
            problems.append(
                f"{where}: {stats['class']}.stats.loads {stats['loads']} "
                f"!= wrapped load calls {entries['swapback.load']} "
                f"({entries['swapback.load_pages']} pages)")
    return problems
