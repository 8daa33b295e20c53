#!/usr/bin/env python3
"""The repository's benchmark: host cost and reproduced result of three
fixed workloads, plus a traced per-layer ledger.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sysbench-reread --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` cycles untraced passes over ``SEEDS_PER_RUN`` consecutive
seeds for ``--seconds`` (at least one pass per seed) and reports the
end-to-end metrics.  ``--trace 1`` runs one untraced and one traced pass at
``--seed`` and reports the per-layer metrics.  Cells run through
``repro.exec.executor.run_sweep`` with a ``SerialExecutor`` and a fresh
``ResultStore``, as ``repro run --results-dir`` does.  The last stdout
line is the result; the line before it is the full report (stamp,
per-cell fingerprints and check outcomes, every metric).  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import (  # noqa: E402
    SEEDS_PER_RUN,
    WORKLOADS,
    setup,
    use_checkout_sources,
)

#: Set-up probes per run (setup_s is their median).
SETUP_PROBES = 15

#: Scratch space inside the checkout (stores, probe stores).
TMP_ROOT = ".perfbench_tmp"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# stamp
# ----------------------------------------------------------------------

def stamp(root: str) -> dict:
    """What a result was measured on.  ``compare.py`` refuses to compare
    results whose ``env`` differs; ``commit``/``source_sha256`` name the
    code measured."""
    import platform
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    src = pathlib.Path(root, "src", "repro")
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    nproc = (len(os.sched_getaffinity(0))
             if hasattr(os, "sched_getaffinity") else os.cpu_count())
    return {
        "env": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": nproc,
        },
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# ----------------------------------------------------------------------
# set-up time
# ----------------------------------------------------------------------

def measure_setup(args, tmp: str) -> list[float]:
    """Seconds from starting a fresh interpreter until it is ready to
    run the first cell, once per probe."""
    probe = os.path.join(HERE, "probe.py")
    times = []
    for index in range(SETUP_PROBES):
        store_dir = os.path.join(tmp, f"probe-{index}")
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, probe, args.workload, str(args.seed),
             store_dir],
            stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"error: set-up probe failed (exit {code})")
        times.append(elapsed)
    return times


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------

def run_passes(workload, sweeps, store, counter, *, ledger=None,
               seconds: float = 0.0):
    """Cycle passes over ``sweeps`` (one per seed) until every sweep ran
    once and ``seconds`` have passed.

    With a ``ledger`` the passes are traced.  Returns one dict per pass;
    each cell record gains ``instr``/``cpu``/``wall``: its slot from its
    own start to the next cell's start (or the pass end), so slots add
    up to the pass.
    """
    from ledger import CellHooks, _Patches
    from repro.exec.executor import SerialExecutor, run_sweep

    hooks = CellHooks(counter)
    patches = _Patches()
    hooks.install(patches, ledger)
    if ledger is not None:
        ledger.install(patches, sweeps[0].experiment_id)
    passes = []
    started = time.perf_counter()
    try:
        while (len(passes) < len(sweeps)
               or time.perf_counter() - started < seconds):
            sweep = sweeps[len(passes) % len(sweeps)]
            first = len(hooks.records)
            error = None
            if ledger is not None:
                ledger.start()
            instr0 = counter.read()
            cpu0, wall0 = time.process_time(), time.perf_counter()
            try:
                run_sweep(sweep, executor=SerialExecutor(), store=store)
            except Exception as exc:  # a raising pass fails its cells
                error = f"{type(exc).__name__}: {exc}"
            cpu1, wall1 = time.process_time(), time.perf_counter()
            instr1 = counter.read()
            if ledger is not None:
                ledger.stop()
            records = hooks.records[first:]
            ends = [(r["instr_start"], r["cpu_start"], r["wall_start"])
                    for r in records[1:]] + [(instr1, cpu1, wall1)]
            for record, (instr_end, cpu_end, wall_end) in zip(records, ends):
                record["instr"] = instr_end - record["instr_start"]
                record["cpu"] = cpu_end - record["cpu_start"]
                record["wall"] = wall_end - record["wall_start"]
            passes.append({"sweep": sweep, "records": records,
                           "instr": instr1 - instr0, "cpu": cpu1 - cpu0,
                           "wall": wall1 - wall0, "error": error})
    finally:
        patches.undo()
    return passes


def judge(workload, passes, recorded) -> dict:
    """cell@seed#pass -> failure reasons for every cell of every pass.

    Besides the checks of :func:`checks.check_pass`, a repeat of a seed
    must reproduce that seed's first pass bit for bit.
    """
    from checks import check_identical, check_pass
    verdict = {}
    first_of_seed = {}
    for index, p in enumerate(passes):
        seed = p["sweep"].cells[0].seed
        if p["error"] is not None:
            for spec in p["sweep"].cells:
                verdict[f"{spec.cell_id}@{seed}#{index}"] = [p["error"]]
            continue
        reasons = check_pass(workload, p["records"], recorded)
        if seed in first_of_seed:
            for key, why in check_identical(
                    first_of_seed[seed], p["records"]).items():
                reasons[key.rsplit("@", 1)[0]].extend(why)
        else:
            first_of_seed[seed] = p["records"]
        for cell_id, why in reasons.items():
            verdict[f"{cell_id}@{seed}#{index}"] = why
    return verdict


def _records(passes):
    return [r for p in passes for r in p["records"]]


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def _best_per_cell(passes, field: str) -> float:
    """One pass's host cost: each (cell, seed)'s best repeat, summed
    over cells and averaged over seeds."""
    best: dict = {}
    for p in passes:
        if p["error"] is None:
            for r in p["records"]:
                key = (r["spec"].cell_id, r["spec"].seed)
                best[key] = min(best.get(key, r[field]), r[field])
    seeds = {seed for _cell, seed in best}
    return sum(best.values()) / len(seeds)


def end_to_end(passes, cycle: int, setup_times, verdict) -> dict:
    from checks import sim_runtimes
    first = passes[:cycle]
    ginstr = _best_per_cell(passes, "instr") / 1e9
    ops = sum(r["ops"] for r in _records(first)) / len(first)
    sims = [sim_runtimes(p["records"]) for p in first]
    base = sum(b for b, _v in sims) / len(sims)
    vswap = sum(v for _b, v in sims) / len(sims)
    failed = sum(1 for reasons in verdict.values() if reasons)
    return {
        "cpu_ginstr": (ginstr, "Ginstr"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024, "MiB"),
        "guest_ops_per_ginstr": (ops / ginstr, "1/Ginstr"),
        "ok_frac": ((len(verdict) - failed) / len(verdict), "fraction"),
        "sim_runtime_s.vswap": (vswap, "sim_s"),
        "sim_runtime_s.base": (base, "sim_s"),
        "sim_speedup": (base / vswap if vswap else 0.0, "ratio"),
    }


#: Per-layer count -> the program's per-VM counter it sums.
VM_COUNTERS = {
    "guest.context_faults": "guest_context_faults",
    "guest.swap_faults": "guest_swap_faults",
    "guest.evictions": "guest_evictions",
    "guest.double_paging": "double_paging",
    "host.context_faults": "host_context_faults",
    "host.stale_reads": "stale_reads",
    "host.false_reads": "false_reads",
    "host.code_faults": "hypervisor_code_faults",
    "host.evictions": "host_evictions",
    "host.silent_swap_writes": "silent_swap_writes",
    "host.swap_sectors_written": "swap_sectors_written",
    "host.swap_sectors_read": "swap_sectors_read",
    "mem.pages_scanned": "pages_scanned",
    "core.mapper_discards": "mapper_discards",
    "core.cow_breaks": "mapper_cow_breaks",
    "core.invalidations": "mapper_invalidations",
    "core.preventer_emulated": "preventer_emulated_writes",
    "core.preventer_merges": "preventer_merges",
    "balloon.inflated_pages": "balloon_inflated_pages",
    "balloon.deflated_pages": "balloon_deflated_pages",
}

#: Per-layer count -> (machine snapshot part, field).
MACHINE_COUNTERS = {
    "disk.requests": ("disk", "requests"),
    "disk.seeks": ("disk", "seeks"),
    "disk.busy_sim_s": ("disk", "busy_time"),
    "swapback.pages_stored": ("swapback", "pages_stored"),
    "swapback.pages_loaded": ("swapback", "pages_loaded"),
    "swapback.promotes": ("swapback", "promotes"),
    "swapback.demotes": ("swapback", "demotes"),
}


def per_layer(ledger, traced_passes, untraced_passes) -> dict:
    from ledger import LAYER_NAMES
    machines = [m for r in _records(traced_passes) for m in r["machines"]]
    metrics = {}
    for layer in LAYER_NAMES:
        if layer != "other":
            metrics[f"{layer}.calls"] = (ledger.calls(layer), "count")
        metrics[f"{layer}.self_s"] = (ledger.self_ns[layer] / 1e9, "s")
    for name, counter in VM_COUNTERS.items():
        metrics[name] = (sum(m["counters"].get(counter, 0)
                             for m in machines), "count")
    for name, (part, field) in MACHINE_COUNTERS.items():
        metrics[name] = (sum(m[part][field] for m in machines),
                         "sim_s" if field == "busy_time" else "count")
    evictions = metrics["host.evictions"][0]
    scanned = metrics["mem.pages_scanned"][0]
    traced_cpu = ledger.window_ns / 1e9
    untraced_cpu = sum(p["cpu"] for p in untraced_passes)
    metrics.update({
        "sim.events": (sum(m["events"] for m in machines), "count"),
        "mem.evict_per_scan": (evictions / scanned if scanned else 0.0,
                               "ratio"),
        "core.discard_share": (metrics["core.mapper_discards"][0] / evictions
                               if evictions else 0.0, "ratio"),
        "exec.records_written": (ledger.entries[("exec", "store_cell")],
                                 "count"),
        "trace.cpu_s": (traced_cpu, "s"),
        "trace.overhead_frac": (traced_cpu / untraced_cpu - 1, "ratio"),
        "pass.cpu_s": (untraced_cpu, "s"),
        "pass.wall_s": (sum(p["wall"] for p in untraced_passes), "s"),
        "pass.ginstr": (sum(p["instr"] for p in untraced_passes) / 1e9,
                        "Ginstr"),
    })
    return metrics


def ledger_problems(ledger, traced_passes) -> list[str]:
    """Cross-checks and the self-time sum; empty when all hold."""
    from checks import cross_check
    problems = []
    for record in _records(traced_passes):
        problems.extend(cross_check(record))
    accounted = sum(ledger.self_ns.values())
    if accounted != ledger.window_ns:
        problems.append(f"layer self times sum to {accounted} ns, the "
                        f"traced window is {ledger.window_ns} ns")
    return problems


def declared_metrics(root: str, trace: int) -> list[str]:
    """Metric names BENCHMARK.json declares for this mode, in order."""
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    use_checkout_sources(root)
    from checks import check_identical, fingerprint, load_fingerprints
    from ledger import Ledger
    from pmu import InstructionCounter
    from repro.exec.store import ResultStore

    workload = WORKLOADS[args.workload]
    try:
        counter = InstructionCounter()
    except OSError as error:
        raise SystemExit(f"error: cannot count instructions: {error}")
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
    problems = []
    try:
        setup_times = [] if args.trace else measure_setup(args, tmp)
        sweeps, store = setup(workload, args.seed,
                              os.path.join(tmp, "store"),
                              seeds=1 if args.trace else SEEDS_PER_RUN)
        recorded = load_fingerprints().get(workload.name)
        untraced = run_passes(workload, sweeps, store, counter,
                              seconds=0 if args.trace else args.seconds)
        verdict = judge(workload, untraced, recorded)
        all_records = _records(untraced)
        if args.trace:
            ledger = Ledger()
            traced = run_passes(
                workload, sweeps,
                ResultStore(os.path.join(tmp, "traced-store")), counter,
                ledger=ledger)
            traced_verdict = judge(workload, traced, recorded)
            for key, reasons in check_identical(
                    all_records, _records(traced)).items():
                traced_verdict[f"{key}#0"].extend(reasons)
            verdict.update({f"traced:{k}": v
                            for k, v in traced_verdict.items()})
            problems = ledger_problems(ledger, traced)
            metrics = per_layer(ledger, traced, untraced)
            all_records += _records(traced)
        else:
            metrics = end_to_end(untraced, len(sweeps), setup_times,
                                 verdict)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass

    declared = declared_metrics(root, args.trace)
    if set(declared) != set(metrics):
        raise SystemExit(f"error: metrics {sorted(metrics)} do not match "
                         f"BENCHMARK.json {sorted(declared)}")
    failed = sum(1 for reasons in verdict.values() if reasons)
    for key, reasons in sorted(verdict.items()):
        for reason in reasons:
            print(f"FAILED {key}: {reason}", file=sys.stderr)
    for problem in problems:
        print(f"CHECK {problem}", file=sys.stderr)
    report = {
        "stamp": stamp(root),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(untraced),
        "cells": [{"cell": r["spec"].cell_id, "seed": r["spec"].seed,
                   "status": r["result"].status,
                   "runtime": r["result"].runtime, "ops": r["ops"],
                   "instr": r.get("instr"), "cpu": r.get("cpu"),
                   "wall": r.get("wall"),
                   "fingerprint": fingerprint(r)} for r in all_records],
        "setup_times": setup_times,
        "pass_instr": [p["instr"] for p in untraced],
        "pass_cpu": [p["cpu"] for p in untraced],
        "pass_wall": [p["wall"] for p in untraced],
        "ledger_problems": problems,
        "metrics": {k: v for k, (v, _u) in metrics.items()},
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(verdict),
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0],
                           "unit": metrics[name][1]} for name in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
