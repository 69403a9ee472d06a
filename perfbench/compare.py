#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the result-<workload>-<seed>-<trace>.json files that
run.py writes next to the build (.bench_build/perfbench by default); copy
them aside between the two commits. For every workload and metric it
prints each side's median and quartile spread and the change as a share
of the base median. An end-to-end metric that got worse by more than its
BENCHMARK.json bound is marked REGRESSED, or unresolved when the base's
own spread is wider than the bound. Any pair of results whose kernel tier
or build type differ is flagged, since their numbers are not comparable.
Run from the repository root.
"""

import glob
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


def load(directory):
    results = []
    for path in sorted(glob.glob(os.path.join(directory, "result-*.json"))):
        with open(path) as f:
            results.append(json.load(f))
    return results


def flag_mismatches(base, new):
    """Print every base/new pair whose kernel tier or build type differ."""
    flagged = 0
    for a in base:
        for b in new:
            for key in ("kernel_tier", "build_type"):
                if a["meta"][key] != b["meta"][key]:
                    flagged += 1
                    print("FLAG %s %s seed %s vs %s seed %s: %s %s != %s"
                          % (a["meta"]["workload"], key,
                             a["meta"]["seed"], b["meta"]["workload"],
                             b["meta"]["seed"], key, a["meta"][key],
                             b["meta"][key]))
    return flagged


def values(results, workload, trace, metric):
    return [r["metrics"][metric]["value"] for r in results
            if r["meta"]["workload"] == workload
            and r["meta"]["trace"] == trace and metric in r["metrics"]]


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    flagged = flag_mismatches(base, new)
    for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for workload in (w["name"] for w in spec["workloads"]):
            for m in metrics:
                a = values(base, workload, trace, m["name"])
                b = values(new, workload, trace, m["name"])
                if not a or not b:
                    continue
                ma, mb = statistics.median(a), statistics.median(b)
                sign = 1.0 if m["better"] == "lower" else -1.0
                worse = sign * (mb - ma) / ma if ma else 0.0
                spread = stats.quartile_spread(a) if len(a) >= 2 else 0.0
                verdict = ""
                if "bound" in m:
                    if spread > m["bound"]:
                        verdict = "unresolved"
                    elif worse > m["bound"]:
                        verdict = "REGRESSED"
                print("%-12s %-28s base %12.6g (n=%d, spread %.3f)  "
                      "new %12.6g (n=%d)  worse by %+7.2f%%  %s"
                      % (workload, m["name"], ma, len(a), spread, mb, len(b),
                         worse * 100.0, verdict))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
