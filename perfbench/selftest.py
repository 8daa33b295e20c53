"""Self-test of the benchmark's checks and ledger:
``python3 perfbench/selftest.py`` from the root of a checkout.

Shows that every output check turns a perturbed result into a failed
cell, that the ledger's cross-checks catch a miscount, and that layer
self times add up to the traced window.
"""

import copy
import math
import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import (  # noqa: E402
    DEFAULT_SEED,
    WORKLOADS,
    setup,
    use_checkout_sources,
)

use_checkout_sources()

from checks import (  # noqa: E402
    check_identical,
    check_pass,
    cross_check,
    fingerprint,
    load_fingerprints,
)
from ledger import Ledger  # noqa: E402
from repro.exec.spec import CellSpec  # noqa: E402
from repro.experiments.runner import ConfigName, RunResult  # noqa: E402

MACHINE = {"counters": {"host_evictions": 5}, "events": 7,
           "disk": {"requests": 3}, "swapback": {
               "class": "DiskSwapBackend", "stores": 2, "loads": 1}}


def record(cell_id, config, runtime, *, seed=3, counters=None,
           status_crashed=False):
    spec = CellSpec(experiment_id="x", cell_id=cell_id, scale=8,
                    config=config, seed=seed)
    result = RunResult(ConfigName(config), runtime, status_crashed,
                       dict(counters or {}))
    return {"spec": spec, "result": result, "ops": 4,
            "machines": [copy.deepcopy(MACHINE)]}


def failed(reasons):
    return sorted(cell for cell, why in reasons.items() if why)


class OutputChecks(unittest.TestCase):
    sysbench = WORKLOADS["sysbench-reread"]
    tiers = WORKLOADS["swap-tiers"]

    def sysbench_pass(self, seed=3):
        return [record("baseline", "baseline", 30.0, seed=seed),
                record("vswapper", "vswapper", 4.0, seed=seed),
                record("balloon+base", "balloon+base", 4.0, seed=seed)]

    def test_clean_pass_passes(self):
        self.assertEqual(failed(check_pass(
            self.sysbench, self.sysbench_pass(), None)), [])

    def test_crashed_cell_fails(self):
        records = self.sysbench_pass()
        records[1]["result"].crashed = True
        self.assertIn("vswapper", failed(check_pass(
            self.sysbench, records, None)))

    def test_lost_speedup_fails_every_cell(self):
        records = self.sysbench_pass()
        records[1]["result"].runtime = 40.0
        self.assertEqual(len(failed(check_pass(
            self.sysbench, records, None))), 3)

    def test_backend_disagreement_fails_both_rows(self):
        records = [
            record(f"{b}/{c}", c, 2.0, counters={"stale_reads": 9})
            for b in ("zram", "tiered") for c in ("baseline", "vswapper")]
        self.assertEqual(failed(check_pass(self.tiers, records, None)), [])
        records[2]["result"].counters["stale_reads"] = 10
        self.assertEqual(failed(check_pass(self.tiers, records, None)),
                         ["tiered/baseline", "zram/baseline"])

    def test_one_ulp_runtime_change_breaks_the_fingerprint(self):
        records = self.sysbench_pass(seed=DEFAULT_SEED)
        recorded = {r["spec"].cell_id: fingerprint(r) for r in records}
        self.assertEqual(failed(check_pass(
            self.sysbench, records, recorded)), [])
        base = records[0]["result"]
        base.runtime = math.nextafter(base.runtime, math.inf)
        self.assertEqual(failed(check_pass(
            self.sysbench, records, recorded)), ["baseline"])

    def test_machine_counter_change_breaks_the_fingerprint(self):
        records = self.sysbench_pass(seed=DEFAULT_SEED)
        recorded = {r["spec"].cell_id: fingerprint(r) for r in records}
        records[2]["machines"][0]["events"] += 1
        self.assertEqual(failed(check_pass(
            self.sysbench, records, recorded)), ["balloon+base"])

    def test_traced_result_must_equal_untraced(self):
        plain = self.sysbench_pass()
        traced = copy.deepcopy(plain)
        self.assertEqual(failed(check_identical(plain, traced)), [])
        traced[1]["machines"][0]["disk"]["requests"] += 1
        self.assertEqual(failed(check_identical(plain, traced)),
                         ["vswapper@3"])


class LedgerChecks(unittest.TestCase):

    def test_cross_check_catches_a_miscount(self):
        rec = record("baseline", "baseline", 1.0)
        rec["driver_ops"] = 4
        rec["entries"] = {"guest.execute": 4, "swapback.store": 2,
                          "swapback.load": 1, "swapback.store_pages": 2,
                          "swapback.load_pages": 1}
        self.assertEqual(cross_check(rec), [])
        rec["entries"]["swapback.store"] = 3
        rec["driver_ops"] = 5
        self.assertEqual(len(cross_check(rec)), 2)

    def test_self_times_add_up_and_nested_calls_enter_once(self):
        ticks = iter(range(0, 1000, 10))
        ledger = Ledger(clock=lambda: next(ticks))

        def inner():
            return "done"
        inner_w = ledger.wrap("disk", "read", inner)

        def outer():
            return inner_w()
        outer_w = ledger.wrap("host", "touch_page", outer)
        same_layer = ledger.wrap("host", "virtio_read", outer_w)
        ledger.start()
        self.assertEqual(same_layer(), "done")
        ledger.stop()
        self.assertEqual(sum(ledger.self_ns.values()), ledger.window_ns)
        self.assertEqual(ledger.calls("host"), 1)
        self.assertEqual(ledger.calls("disk"), 1)


class RealPass(unittest.TestCase):
    """One real sysbench-reread pass at the default seed."""

    def test_recorded_fingerprints_hold_and_a_perturbation_fails(self):
        from pmu import InstructionCounter
        from run import TMP_ROOT, judge, run_passes
        workload = WORKLOADS["sysbench-reread"]
        os.makedirs(TMP_ROOT, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="selftest-", dir=TMP_ROOT)
        try:
            sweeps, store = setup(workload, DEFAULT_SEED,
                                  os.path.join(tmp, "store"), seeds=1)
            passes = run_passes(workload, sweeps, store,
                                InstructionCounter())
        finally:
            shutil.rmtree(tmp)
            os.rmdir(TMP_ROOT)
        recorded = load_fingerprints()[workload.name]
        self.assertEqual(failed(judge(workload, passes, recorded)), [])
        passes[0]["records"][1]["result"].counters["stale_reads"] += 1
        self.assertEqual(failed(judge(workload, passes, recorded)),
                         [f"vswapper@{DEFAULT_SEED}#0"])


if __name__ == "__main__":
    unittest.main()
