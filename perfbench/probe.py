"""Set-up probe: ``python3 perfbench/probe.py WORKLOAD SEED DIR``.

Does exactly the set-up a benchmark run does before its first cell --
import the program, declare the first sweep, open a fresh store in DIR --
then prints ``ready``.  ``run.py`` times it from process start.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import WORKLOADS, setup, use_checkout_sources  # noqa: E402

if __name__ == "__main__":
    name, seed, store_dir = sys.argv[1:4]
    use_checkout_sources()
    setup(WORKLOADS[name], int(seed), store_dir)
    print("ready", flush=True)
