"""Compare two sets of benchmark runs:
``python3 perfbench/compare.py BASE.txt HEAD.txt``.

Each file holds the standard output of one or more ``run.py`` runs,
concatenated.  Refuses (exit 2) when the runs were not measured alike:
a different environment stamp (Python version or implementation,
platform, nproc) or a different ``--seconds``.  Otherwise prints, per
workload and metric, each side's median and quartiles over its runs
and whether HEAD's median is worse than BASE's by more than the bound
in BENCHMARK.json.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def reports(path: str) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line)["report"] for line in handle
                if line.startswith('{"report"')]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv) -> int:
    base, head = reports(argv[1]), reports(argv[2])
    if not base or not head:
        print("error: no run reports found", file=sys.stderr)
        return 2
    runs = base + head
    envs = {json.dumps(r["stamp"]["env"], sort_keys=True) for r in runs}
    lengths = {(r["seconds"], r["trace"]) for r in runs}
    if len(envs) > 1 or len(lengths) > 1:
        print("error: refusing to compare runs measured differently:\n  "
              + "\n  ".join(sorted(envs | {str(x) for x in lengths})),
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for workload in sorted({r["workload"] for r in runs}):
        print(f"== {workload}")
        sides = [[r for r in side if r["workload"] == workload]
                 for side in (base, head)]
        names = sorted(set.intersection(
            *(set(r["metrics"]) for side in sides for r in side)))
        for name in names:
            b = quartiles([r["metrics"][name] for r in sides[0]])
            h = quartiles([r["metrics"][name] for r in sides[1]])
            verdict = ""
            info = bounds.get(name, {})
            if "bound" in info and b[1]:
                change = (h[1] - b[1]) / abs(b[1])
                worse = change if info["better"] == "lower" else -change
                verdict = ("REGRESSED" if worse > info["bound"]
                           else f"{change:+.1%}")
            print(f"  {name:28s} base {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]"
                  f"  head {h[1]:.6g} [{h[0]:.6g}, {h[2]:.6g}]  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
