"""The benchmark's workloads: fixed cell lists from the program's own
sweep builders, re-seeded per pass.

A *pass* is one ``run_sweep`` over a workload's cells at one seed.  An
untraced run owns the :data:`SEEDS_PER_RUN` consecutive seeds starting
at ``--seed`` and cycles passes over them until ``--seconds`` have
passed, and at least once over each.  Simulated metrics come from the
first cycle, so they repeat exactly for the same ``--seed``; host
timings take each cell's best repeat, because on a shared host noise
only ever adds time to deterministic work.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from dataclasses import dataclass
from typing import Callable

#: Scale every workload runs at (the scale ``repro run all`` uses).
SCALE = 8

#: Seed whose per-cell fingerprints are recorded in fingerprints.json.
DEFAULT_SEED = 1

#: Consecutive seeds one untraced run cycles over.
SEEDS_PER_RUN = 3

#: Counters that must agree between the zram and tiered rows of one
#: configuration (the swap traffic is backend-independent).
ROOT_CAUSE_COUNTERS = (
    "stale_reads",
    "silent_swap_writes",
    "host_context_faults",
    "guest_context_faults",
    "swap_sectors_read",
    "swap_sectors_written",
)


def use_checkout_sources(root: str = ".") -> None:
    """Import ``repro`` from ``<root>/src`` and nowhere else.

    Raises SystemExit when the checkout holds no sources, so the
    benchmark fails instead of measuring some other installed copy.
    """
    src = os.path.abspath(os.path.join(root, "src"))
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"error: no repro sources under {src}")
    sys.path.insert(0, src)
    import repro
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: repro imported from {repro.__file__}, "
                         f"not from {src}")


def _sysbench_cells():
    from repro.experiments.fig09 import build_fig09_sweep
    return build_fig09_sweep(scale=SCALE).cells


def _swaptier_cells():
    from repro.experiments.swaptier import build_swaptier_sweep
    return build_swaptier_sweep(
        scale=SCALE, backends=("zram", "tiered")).cells


def _mapreduce_cells():
    from repro.experiments.dynamic import build_fig14_sweep
    from repro.experiments.runner import ConfigName
    return build_fig14_sweep(
        scale=SCALE, guest_counts=(8,),
        config_names=(ConfigName.BALLOON_BASELINE,
                      ConfigName.BALLOON_VSWAPPER)).cells


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a fixed cell list and the output checks
    that apply to it."""

    name: str
    cells: Callable[[], tuple]
    #: Check that the non-VSwapper cells take longer than the
    #: VSwapper ones (the paper's claim).
    claim_speedup: bool
    #: Check that zram and tiered rows agree on ROOT_CAUSE_COUNTERS.
    backends_agree: bool


WORKLOADS = {
    w.name: w for w in (
        Workload("sysbench-reread", _sysbench_cells,
                 claim_speedup=True, backends_agree=False),
        Workload("swap-tiers", _swaptier_cells,
                 claim_speedup=False, backends_agree=True),
        Workload("mapreduce-phased", _mapreduce_cells,
                 claim_speedup=True, backends_agree=False),
    )
}


def is_vswapper(config: str) -> bool:
    """Whether a cell's configuration runs VSwapper."""
    return "vswap" in config


def pass_sweep(workload: Workload, seed: int):
    """The workload's cells as one Sweep, every spec at ``seed``."""
    from repro.exec.spec import Sweep
    cells = tuple(dataclasses.replace(cell, seed=seed)
                  for cell in workload.cells())
    return Sweep(cells[0].experiment_id, cells)


def setup(workload: Workload, seed: int, store_dir: str,
          seeds: int = SEEDS_PER_RUN):
    """Everything a run does before its first cell starts: import the
    program, declare one sweep per seed, and open a fresh store."""
    from repro.exec.executor import SerialExecutor, run_sweep  # noqa: F401
    from repro.exec.store import ResultStore
    import repro.experiments.registry  # noqa: F401  (execute_cell needs it)
    sweeps = [pass_sweep(workload, seed + k) for k in range(seeds)]
    return sweeps, ResultStore(store_dir)
