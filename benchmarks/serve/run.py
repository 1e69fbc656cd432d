"""Served-request benchmark: five topology workloads, end to end and per layer.

Usage, from the repository root::

    python3 benchmarks/serve/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--scale X] [--out PATH]

A run drives the workload's fixed number of storms (three, or four for
tenant-zipf), each with a fresh stack and its own seed derived from
``--seed``, and reports every end-to-end metric over them; ``setup_s`` is
the median of their set-ups.  The work is fixed by the workload, not by
the clock, so ``--seconds`` does not change it.  With ``--trace 1`` it
runs the first storm once untraced and once traced, checks that both
answer identically, and reports the per-layer metrics, the wall-clock
cost of the untraced storm among them.  Metric names, units and
directions are read from ``BENCHMARK.json`` at the repository root.

Every metric is printed by name and unit, all results are written as
JSON to ``--out`` (default ``benchmarks/serve/out/``), and the last line
of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1
when a correctness check fails, 2 when the program under test cannot be
found.  Without ``--workload`` all five workloads run in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse any other copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_digest(reps) -> str:
    """sha256 over the per-storm answer digests, in storm order."""
    return hashlib.sha256("".join(rep.digest for rep in reps).encode()).hexdigest()


def checks_for(reps) -> tuple[dict[str, bool], int]:
    """Correctness checks over every storm; returns (checks, wrong answers)."""
    checks = {
        "zero_false_negatives": True,
        "zero_false_presents": True,
        "every_request_answered": True,
    }
    wrong = 0
    for rep in reps:
        out, answers = rep.outcome, rep.probe.answers
        false_neg = sum(1 for k, a, *_ in answers if k < out.absent_from and a == "absent")
        false_pos = sum(1 for k, a, *_ in answers if k >= out.absent_from and a == "present")
        wrong += false_neg + false_pos
        checks["zero_false_negatives"] &= false_neg == 0 and out.storm.false_negatives == 0
        checks["zero_false_presents"] &= false_pos == 0
        checks["every_request_answered"] &= len(answers) == out.storm.n_requests
        for name, ok in out.checks.items():
            checks[name] = checks.get(name, True) and ok
    return checks, wrong


def phase_table(rep) -> list[dict]:
    return [
        {
            "name": phase.name,
            "requests": phase.n_requests,
            "outcomes": {o.value: n for o, n in phase.outcomes.items()},
        }
        for phase in rep.outcome.storm.phases
    ]


def run_workload(name: str, *, seed: int, trace: bool, scale: float, spec: dict) -> dict:
    from repro.serve import ServeOutcome
    from serve_metrics import end_to_end, per_layer
    from serve_workloads import WORKLOADS, run_rep, storm_seeds

    workload = WORKLOADS[name]
    seeds = storm_seeds(name, seed)
    if trace:
        untraced = run_rep(workload, seeds[0], scale)
        traced = run_rep(workload, seeds[0], scale, traced=True)
        reps = [untraced, traced]
        metrics = per_layer(untraced, traced)
        checks, wrong = checks_for(reps)
        checks["traced_answers_identical"] = untraced.digest == traced.digest
        declared = spec["per_layer"]
    else:
        reps = [run_rep(workload, s, scale) for s in seeds]
        metrics = end_to_end(reps)
        checks, wrong = checks_for(reps)
        declared = spec["end_to_end"]

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise SystemExit(
            f"error: metrics computed {sorted(set(metrics) ^ set(units))} "
            "disagree with BENCHMARK.json"
        )
    result = {
        "workload": name,
        "seed": seed,
        "storm_seeds": seeds[:1] if trace else seeds,
        "scale": scale,
        "trace": trace,
        "storms": len(reps),
        "correct": all(checks.values()),
        "checks": checks,
        "attempted": sum(len(rep.probe.answers) for rep in reps),
        "failed": wrong,
        # Shed, timed-out and degraded answers are safe MAYBEs, so they
        # are not failures; goodput counts them against the run.
        "ops_not_served": sum(
            rep.outcome.storm.n_requests - rep.outcome.storm.total(ServeOutcome.SERVED)
            for rep in reps
        ),
        "answers_digest": run_digest(reps[:1] if trace else reps),
        "run_s": [rep.probe.run_s for rep in reps],
        "setup_s": [s for rep in reps for s in rep.probe.setup_s],
        "cpu_wall_ratio": [rep.probe.cpu_wall_ratio for rep in reps],
        "phases": [phase_table(rep) for rep in reps],
        "reports": [rep.outcome.report for rep in reps],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    if trace:
        result["spans"] = reps[-1].tracer.spans
    return result


def print_result(result: dict) -> None:
    print(f"== {result['workload']}  seed={result['seed']}  scale={result['scale']}"
          f"  trace={int(result['trace'])}  storms={result['storms']}")
    for seed, phases in zip(result["storm_seeds"], result["phases"]):
        served = ", ".join(
            f"{p['name']} {p['outcomes']['served'] / max(1, p['requests']):.4f}"
            for p in phases
        )
        print(f"   storm seed {seed}: served share {served}")
    for name, metric in sorted(result["metrics"].items()):
        print(f"   {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    ratios = ", ".join(f"{r:.3f}" for r in result["cpu_wall_ratio"])
    flag = "" if min(result["cpu_wall_ratio"]) >= 0.9 else "  (descheduled)"
    print(f"   run.cpu_wall_ratio {ratios}{flag}")
    print(f"   answers_digest {result['answers_digest']}")
    for name, ok in result["checks"].items():
        print(f"   check {name}: {'ok' if ok else 'FAILED'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=1)
    # A run's work is fixed by its workload, so both sides of a comparison
    # do the same work whatever the machine's speed; --seconds only names
    # the run length BENCHMARK.json declares (run_seconds).
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="declared run length; recorded, does not change the work")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: traced run, per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every key and request count")
    parser.add_argument("--out", type=Path, help="JSON results file")
    args = parser.parse_args(argv)
    if args.scale <= 0 or args.seconds <= 0:
        parser.error("--scale and --seconds must be positive")

    _import_program()
    from serve_workloads import WORKLOADS

    spec = load_spec()
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    for name in names:
        result = run_workload(
            name, seed=args.seed, trace=bool(args.trace), scale=args.scale, spec=spec,
        )
        result["seconds"] = args.seconds
        print_result(result)
        results.append(result)
    out = args.out or HERE / "out" / (
        f"{args.workload or 'all'}-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results if len(results) > 1 else results[0], indent=1))
    print(f"results written to {out}")
    for result in results:
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
