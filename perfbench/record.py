"""Record the per-cell fingerprints the benchmark checks at the default
seed: ``python3 perfbench/record.py`` from the root of a checkout.

Run it only when a change is meant to alter simulated results, and
review the diff of fingerprints.json with that change.
"""

import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import (  # noqa: E402
    DEFAULT_SEED,
    WORKLOADS,
    setup,
    use_checkout_sources,
)


def main() -> int:
    use_checkout_sources()
    from checks import FINGERPRINTS, fingerprint
    from pmu import InstructionCounter
    from run import TMP_ROOT, run_passes

    recorded = {}
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="record-", dir=TMP_ROOT)
    try:
        for name, workload in WORKLOADS.items():
            sweeps, store = setup(workload, DEFAULT_SEED,
                                  os.path.join(tmp, name), seeds=1)
            (only,) = run_passes(workload, sweeps, store,
                                 InstructionCounter())
            if only["error"] is not None:
                raise SystemExit(f"error: {name}: {only['error']}")
            recorded[name] = {r["spec"].cell_id: fingerprint(r)
                              for r in only["records"]}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass
    with open(FINGERPRINTS, "w") as handle:
        json.dump(recorded, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
