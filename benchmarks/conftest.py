"""Benchmark-suite helpers.

Every benchmark regenerates one of the paper's tables or figures,
prints it, and writes it under ``benchmarks/results/`` so the full
regenerated evaluation is inspectable after a run:

    pytest benchmarks/ --benchmark-only

``REPRO_BENCH_SCALE`` (default 8) divides all sizes; scale 1 is the
paper-sized (slow) run.

Benchmarks run against a shared :class:`~repro.exec.store.ResultStore`
under ``benchmarks/results/store/``: every cell and figure persists as
JSON, and the per-cell wall timings printed after each figure are read
*back from the store*, not re-measured -- the same numbers a later
``--resume`` run would trust.

Each figure additionally writes a machine-readable
``BENCH_<figure_id>.json`` next to its prose ``.txt``: sweep stats
plus the store's per-cell wall seconds, so CI can archive and diff
benchmark timings without parsing prose.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

import pytest

from repro.exec.store import ResultStore

#: Size divisor for benchmark runs.
BENCH_SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "8"))

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def bench_scale() -> int:
    """The scale divisor benchmarks run at."""
    return BENCH_SCALE


@pytest.fixture(scope="session")
def bench_store() -> ResultStore:
    """The shared result store benchmark runs persist into."""
    return ResultStore(RESULTS_DIR / "store")


def _timing_note(figure_result, store: ResultStore) -> str:
    """Per-cell wall timings, read back from the persisted records."""
    stats = figure_result.stats
    if stats is None:
        return ""
    timings = store.figure_cell_timings(figure_result.figure_id)
    if not timings:
        return ""
    slowest = sorted(timings.items(), key=lambda kv: -kv[1])[:5]
    cells = ", ".join(f"{cell}={wall:.2f}s" for cell, wall in slowest)
    return (f"[{stats.experiment_id}: cells={stats.cells} "
            f"executed={stats.executed} cached={stats.cached}; "
            f"slowest cells (from store): {cells}]")


def _timings_payload(figure_result, store: ResultStore) -> dict:
    """Machine-readable form of one figure's benchmark outcome."""
    stats = figure_result.stats
    payload: dict = {
        "figure_id": figure_result.figure_id,
        "scale": BENCH_SCALE,
        "stats": None,
        "cell_wall_seconds": {},
        # Wall times are only comparable across runs on the same
        # interpreter and hardware; stamp both so CI perf gates can
        # refuse apples-to-oranges comparisons.
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }
    if stats is not None:
        payload["stats"] = {
            "experiment_id": stats.experiment_id,
            "cells": stats.cells,
            "executed": stats.executed,
            "cached": stats.cached,
            "wall_seconds": stats.wall_seconds,
            "cached_wall_seconds": stats.cached_wall_seconds,
        }
        payload["cell_wall_seconds"] = dict(sorted(
            store.figure_cell_timings(figure_result.figure_id).items()))
    return payload


@pytest.fixture(scope="session")
def record_result(bench_store):
    """Persist and print a regenerated figure (plus store timings).

    Writes the prose table to ``<figure_id>.txt`` and the per-cell
    wall times (read back from the result store) to
    ``BENCH_<figure_id>.json``.
    """
    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(figure_result, note: str = "") -> None:
        text = figure_result.rendered
        if note:
            text = f"{text}\n{note}"
        timing = _timing_note(figure_result, bench_store)
        if timing:
            text = f"{text}\n{timing}"
        (RESULTS_DIR / f"{figure_result.figure_id}.txt").write_text(
            text + "\n")
        (RESULTS_DIR / f"BENCH_{figure_result.figure_id}.json").write_text(
            json.dumps(_timings_payload(figure_result, bench_store),
                       indent=2, sort_keys=True) + "\n")
        print()
        print(text)

    return _record


def run_once(benchmark, func):
    """Run a regeneration exactly once under the benchmark timer."""
    return benchmark.pedantic(func, rounds=1, iterations=1)
