#!/usr/bin/env python3
"""Compares two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE.txt... -- NEW.txt...

Each file holds the stdout of one or more `perfbench/run.py` runs. For each
workload and metric it prints both sides' medians and quartiles, and marks
a metric REGRESSED when the new median is worse than the base median by
more than the metric's bound in BENCHMARK.json. Runs during which the
hypervisor stole more than run.py's STEAL_LIMIT_PCT of the host's CPU time
(the env line's steal_pct) are set aside as a whole and counted; repeat
them to fill their place. Refuses (exit 2) to compare results from
different build types, compilers or core counts. Exits 1 when any metric
regressed.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import STEAL_LIMIT_PCT

ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    """{(workload, trace): {metric: [values]}}, the set of build keys, and
    the number of runs set aside for steal above STEAL_LIMIT_PCT."""
    runs, builds, aside = defaultdict(lambda: defaultdict(list)), set(), 0
    for path in paths:
        env = None
        for line in Path(path).read_text().splitlines():
            if line.startswith('{"env"'):
                env = json.loads(line)["env"]
            elif line.startswith('{"correct"') and env is not None:
                res = json.loads(line)
                builds.add((env["build_type"], env["compiler"], env["nproc"]))
                if env["steal_pct"] > STEAL_LIMIT_PCT:
                    aside += 1
                else:
                    key = (env["workload"], env["trace"])
                    for name, m in res["metrics"].items():
                        runs[key][name].append(m["value"])
                env = None
    return runs, builds, aside


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def main(argv):
    if "--" not in argv:
        sys.exit(__doc__)
    cut = argv.index("--")
    base, base_builds, base_aside = load(argv[:cut])
    new, new_builds, new_aside = load(argv[cut + 1:])
    if len(base_builds | new_builds) != 1:
        print(f"refusing to compare different builds: base "
              f"{sorted(base_builds)}, new {sorted(new_builds)}",
              file=sys.stderr)
        return 2
    print(f"runs set aside for host steal above {STEAL_LIMIT_PCT}%: "
          f"base {base_aside}, new {new_aside}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    regressed = False
    for key in sorted(set(base) & set(new)):
        print(f"{key[0]} (trace {key[1]})")
        for name in sorted(set(base[key]) & set(new[key])):
            b, n = quartiles(base[key][name]), quartiles(new[key][name])
            m = meta.get(name, {})
            verdict = ""
            if "bound" in m and b[1]:
                worse = (n[1] - b[1]) / b[1]
                if m["better"] == "higher":
                    worse = -worse
                if worse > m["bound"]:
                    verdict, regressed = "REGRESSED", True
            print(f"  {name:32} base {b[1]:12.4f} [{b[0]:.4f}, {b[2]:.4f}]"
                  f"  new {n[1]:12.4f} [{n[0]:.4f}, {n[2]:.4f}]"
                  f"  n={len(base[key][name])}/{len(new[key][name])} {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
