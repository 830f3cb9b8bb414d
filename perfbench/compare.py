"""Summarize one result set, or compare two, under the benchmark's bounds.

  python3 perfbench/compare.py SET              # medians and quartiles
  python3 perfbench/compare.py PARENT CHANGE    # verdict per metric

A result set is a directory of ``<workload>-s<seed>-t0.json`` files as
written by run.py. For each end-to-end metric on each workload the
verdict is:

- unresolved: either side's quartile spread, as a share of its median,
  is wider than the metric's bound, unless every run of the change reads
  better than every run of the parent (then better or unchanged, by the
  rule below);
- better: the change's median beats the parent's by more than the
  distance between the parent's quartiles, and the change wins at least
  nine tenths of the seed-paired runs (ties count for neither side);
- worse: the change's median is worse than the parent's by more than
  the bound, as a share of the parent's median;
- unchanged: anything else.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from summary import quartiles, spread

WIN_SHARE = 0.9


def load_set(directory: str | Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> untraced result, from one result directory."""
    out: dict[str, dict[int, dict]] = {}
    for path in sorted(Path(directory).glob("*-t0.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        out.setdefault(data["workload"], {})[data["seed"]] = data
    return out


def _values(runs: dict[int, dict], name: str) -> dict[int, float]:
    return {
        seed: r["metrics"][name]["value"]
        for seed, r in runs.items()
        if name in r.get("metrics", {})
    }


def summarize(results: dict[str, dict[int, dict]], spec: dict) -> str:
    lines = [
        f"{'workload':<9} {'metric':<14} {'unit':<9} {'median':>12} {'q1':>12} "
        f"{'q3':>12} {'spread':>7} {'runs':>5} {'samples':>8}"
    ]
    for workload, runs in sorted(results.items()):
        for metric in spec["end_to_end"]:
            values = list(_values(runs, metric["name"]).values())
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            counts = [_sample_count(r, metric["name"]) for r in runs.values()]
            lines.append(
                f"{workload:<9} {metric['name']:<14} {metric['unit']:<9} {median:>12.6g} "
                f"{q1:>12.6g} {q3:>12.6g} {spread(values):>7.1%} {len(values):>5} "
                f"{statistics.median(counts):>8g}"
            )
    failed = sum(r["failed"] for runs in results.values() for r in runs.values())
    attempted = sum(r["attempted"] for runs in results.values() for r in runs.values())
    lines.append(f"failed_frac {failed / max(1, attempted):.6g} ({failed} of {attempted} operations)")
    return "\n".join(lines) + "\n"


def _sample_count(result: dict, metric: str) -> int:
    """Samples behind one run's value of a metric."""
    samples = result.get("samples", {})
    if metric.startswith("probe"):
        return samples.get("probe_ms", 1)
    if metric.startswith("round"):
        return samples.get("round_ms", 1)
    if metric in ("enroll_s", "rank1_acc"):
        return samples.get(metric, 1)
    if metric == "setup_s":
        return result.get("config", {}).get("shards", 1)
    return 1


def verdict(parent: dict[int, float], change: dict[int, float], better: str, bound: float) -> str:
    """Verdict for one metric on one workload; see the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    old, new = list(parent.values()), list(change.values())
    old_median = statistics.median(old)
    gain = sign * (statistics.median(new) - old_median)
    q1, _, q3 = quartiles(old)
    seeds = sorted(set(parent) & set(change))
    wins = sum(sign * (change[s] - parent[s]) > 0 for s in seeds)
    clear_gain = gain > q3 - q1 and bool(seeds) and wins >= WIN_SHARE * len(seeds)
    if spread(old) > bound or spread(new) > bound:
        if min(sign * v for v in new) > max(sign * v for v in old):
            return "better" if clear_gain else "unchanged"
        return "unresolved"
    if clear_gain:
        return "better"
    if -gain > bound * abs(old_median):
        return "worse"
    return "unchanged"


def compare(parent: dict, change: dict, spec: dict) -> str:
    lines = [
        f"{'workload':<9} {'metric':<14} {'parent median [q1, q3] n':<36} "
        f"{'change median [q1, q3] n':<36} {'delta':>8}  verdict (bound)"
    ]
    for workload in sorted(set(parent) & set(change)):
        for metric in spec["end_to_end"]:
            old = _values(parent[workload], metric["name"])
            new = _values(change[workload], metric["name"])
            if not old or not new:
                continue
            cells = []
            for values in (old, new):
                q1, median, q3 = quartiles(list(values.values()))
                cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}] {len(values)}")
            old_median = statistics.median(old.values())
            delta = (statistics.median(new.values()) - old_median) / abs(old_median) if old_median else 0.0
            lines.append(
                f"{workload:<9} {metric['name']:<14} {cells[0]:<36} {cells[1]:<36} "
                f"{delta:>+8.1%}  {verdict(old, new, metric['better'], metric['bound'])} "
                f"({metric['bound']:.0%})"
            )
    return "\n".join(lines) + "\n"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    sets = [load_set(d) for d in argv]
    if any(not s for s in sets):
        print("compare: a result set holds no *-t0.json results", file=sys.stderr)
        return 2
    print(summarize(sets[0], spec) if len(sets) == 1 else compare(sets[0], sets[1], spec), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
