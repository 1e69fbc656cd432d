"""R3 — serving cost of an online reshard (docs/robustness.md).

Claims checked:
  * resharding is *online*: a split migrates live under foreground
    traffic with zero false negatives, and completes;
  * it is *background*: p99 served latency during the expansion stays
    within 2x the steady-state p99, and goodput keeps most of its
    steady-state level — migration I/O is admission-gated at LOW
    priority, so it is shed before any foreground request suffers;
  * the double-read window is bounded: owner reads per lookup stay well
    under the worst-case 2.0 because only keys in the moving range
    consult both owners.

Series: identical storms (same seed, same arrivals) over the sharded
stack, once left alone and once with a split planned a quarter of the
way in.  The delta between the two columns *is* the migration tax.
Writes ``benchmarks/bench_r3_reshard.json`` for ``scripts/perf_gate.py``
(warn-only: migration goodput < 70% of steady).  ``REPRO_BENCH_SMALL=1``
shrinks the workload for CI.
"""

from __future__ import annotations

import json
import os

from repro.obs import use_registry
from repro.serve import MigrationStep, ServeOutcome, StormPhase, run_reshard_storm

from _util import print_table

_SMALL = bool(os.environ.get("REPRO_BENCH_SMALL"))
N_KEYS = 500 if _SMALL else 2_000
N_REQUESTS = 500 if _SMALL else 1_500
N_SHARDS = 4
SEED = 424243
STEPS = {step.value for step in MigrationStep}


def snapshot_path() -> str:
    return os.environ.get(
        "REPRO_BENCH_SNAPSHOT_R3",
        os.path.join(os.path.dirname(__file__), "bench_r3_reshard.json"),
    )


def _drive(reshard_at: int):
    """One calm sustained phase — the cleanest isolation of migration cost.

    Both runs carry the same seeded 10% update mix: a store that takes
    no writes never flushes, never compacts, and never needs resharding,
    so a read-only steady baseline would understate its own tail.
    """
    phases = (StormPhase("drive", N_REQUESTS, mean_interarrival=0.002),)
    with use_registry():
        storm, reshard, _coordinator = run_reshard_storm(
            seed=SEED, n_keys=N_KEYS, n_shards=N_SHARDS,
            phases=phases, reshard_at=reshard_at, kind="split",
            write_fraction=0.1,
        )
    phase = storm.phases[0]
    # The report logs the steps the storm's own ticks reached; a
    # migration that outlasts the storm finishes in the drain, unlogged.
    steps = [label for _t, label in reshard.events if label in STEPS]
    return {
        "goodput": storm.goodput(),
        "p99_ms": 1e3 * phase.latency_quantile(0.99),
        "p50_ms": 1e3 * phase.latency_quantile(0.50),
        "shed_rate": phase.rate(ServeOutcome.SHED),
        "false_negatives": storm.false_negatives,
        "completed": reshard.completed,
        "storm_end_step": steps[-1] if steps else "-",
        "keys_moved": reshard.keys_moved,
        "double_read_amplification": reshard.double_read_amplification,
        "pump_sheds": reshard.pump_sheds,
        "final_epoch": reshard.final_epoch,
    }


def test_r3_reshard_tax_is_bounded():
    steady = _drive(reshard_at=0)
    migration = _drive(reshard_at=N_REQUESTS // 4)

    # Safety first, at both operating points.
    assert steady["false_negatives"] == 0
    assert migration["false_negatives"] == 0
    # The split actually ran, moved keys, and cut over.
    assert migration["completed"]
    assert migration["keys_moved"] > 0
    assert migration["final_epoch"] == 1
    # The migration tax is bounded: tail latency within 2x steady (with
    # a 0.1 ms floor so a near-zero steady p99 cannot manufacture a
    # failure), goodput keeps at least half, double reads bounded.
    floor = max(steady["p99_ms"], 0.1)
    assert migration["p99_ms"] <= 2.0 * floor
    assert migration["goodput"] >= 0.5 * steady["goodput"]
    assert 1.0 <= migration["double_read_amplification"] < 2.0

    rows = [
        [label,
         f"{run['goodput']:.3f}",
         f"{run['p50_ms']:.3f}",
         f"{run['p99_ms']:.3f}",
         f"{run['shed_rate']:.3f}",
         run["storm_end_step"],
         run["keys_moved"],
         f"{run['double_read_amplification']:.3f}",
         run["pump_sheds"],
         run["false_negatives"]]
        for label, run in (("steady", steady), ("migration", migration))
    ]
    print_table(
        f"R3: online reshard tax ({N_KEYS} keys, {N_SHARDS} shards, "
        f"{N_REQUESTS} requests, split at {N_REQUESTS // 4}, seed {SEED})",
        ["scenario", "goodput", "p50 (ms)", "p99 (ms)", "shed rate",
         "step at storm end", "keys moved", "dr-amp", "pump sheds", "false negatives"],
        rows,
        note="identical seeds/arrivals; the delta between rows is the "
             "cost of migrating live — dr-amp is owner reads per lookup "
             "(2.0 would be every lookup consulting both owners); a "
             "migration not done at storm end finishes in the drain",
    )

    with open(snapshot_path(), "w") as fh:
        json.dump({"steady": steady, "migration": migration}, fh, indent=2)
        fh.write("\n")
