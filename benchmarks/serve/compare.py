"""Compare two sets of served-request benchmark results.

Usage::

    python3 benchmarks/serve/compare.py --base OLD.json ... --new NEW.json ...

Each file is a ``--out`` file of ``run.py`` (one result, or a list of
results for a run of every workload).  For every (workload, metric) the
table gives each side's median and quartiles and a verdict under the
bounds in ``BENCHMARK.json``:

* ``regressed``  - the new median is worse than the base median by more
  than the metric's bound;
* ``improved``   - the new median is better by more than the base's
  quartile spread and the new side wins at least 9 of 10 run pairs
  (paired by seed where both sides ran it);
* ``unresolved`` - either side's quartile spread, as a share of its
  median, is wider than the bound, unless every new run beats every
  base run;
* ``ok``         - none of the above.

Per-layer metrics have no bound; they are listed with ``-``.  The exit
code is 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WIN_SHARE = 0.9


def load(paths: list[Path]) -> dict[str, list[dict]]:
    """workload -> results, from run.py ``--out`` files."""
    by_workload: dict[str, list[dict]] = {}
    for path in paths:
        data = json.loads(path.read_text())
        for result in data if isinstance(data, list) else [data]:
            by_workload.setdefault(result["workload"], []).append(result)
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def pairs(base: list[dict], new: list[dict], metric: str) -> list[tuple[float, float]]:
    new_by_seed = {r["seed"]: r for r in new}
    matched = [(b, new_by_seed[b["seed"]]) for b in base if b["seed"] in new_by_seed]
    if not matched:
        matched = list(zip(base, new))
    return [(b["metrics"][metric]["value"], n["metrics"][metric]["value"])
            for b, n in matched]


def verdict(spec: dict | None, base: list[dict], new: list[dict], metric: str) -> str:
    if spec is None or "bound" not in spec:
        return "-"
    lower = spec["better"] == "lower"
    b = [r["metrics"][metric]["value"] for r in base]
    n = [r["metrics"][metric]["value"] for r in new]

    def better(x: float, y: float) -> bool:
        return x < y if lower else x > y

    b_med, n_med = statistics.median(b), statistics.median(n)
    worse_by = ((n_med - b_med) if lower else (b_med - n_med)) / abs(b_med) if b_med else 0.0
    if all(better(x, y) for x in n for y in b):
        return "improved"
    if max(spread(b), spread(n)) > spec["bound"]:
        return "unresolved"
    if worse_by > spec["bound"]:
        return "regressed"
    paired = pairs(base, new, metric)
    wins = sum(1 for x, y in paired if better(y, x))
    if -worse_by > spread(b) and paired and wins >= WIN_SHARE * len(paired):
        return "improved"
    return "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, nargs="+", required=True)
    parser.add_argument("--new", type=Path, nargs="+", required=True)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(args.base), load(args.new)

    header = (f"{'workload':<17} {'metric':<34} {'base median [q1, q3]':>32}  "
              f"{'new median [q1, q3]':>32}  {'change':>8}  verdict")
    print(header)
    regressed = False
    for workload in sorted(set(base) & set(new)):
        metrics = set(base[workload][0]["metrics"]) & set(new[workload][0]["metrics"])
        for metric in sorted(metrics, key=lambda m: ("bound" not in declared.get(m, {}), m)):
            b = [r["metrics"][metric]["value"] for r in base[workload]]
            n = [r["metrics"][metric]["value"] for r in new[workload]]
            bq, nq = quartiles(b), quartiles(n)
            change = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
            v = verdict(declared.get(metric), base[workload], new[workload], metric)
            regressed |= v == "regressed"
            print(f"{workload:<17} {metric:<34} {fmt(bq):>32}  {fmt(nq):>32}  "
                  f"{change:>+8.1%}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
