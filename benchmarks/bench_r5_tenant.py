"""R5 — multi-tenant Bloofi router vs flat fan-out (docs/robustness.md).

Claims checked:
  * the router answers fleet lookups in a small, *shrinking* fraction of
    the flat fan-out's probes: at 100k tenants the probe ratio is gated
    at <= 5% (the flat scan pays one probe per tenant, the descent pays
    the tree path plus false-positive subtrees);
  * the two paths are differentially identical: for every query the
    router's candidate set equals the flat scan's, and a key some tenant
    holds always lists that tenant — zero false negatives at every
    fleet size;
  * the tree stays shallow: height grows logarithmically with the fleet
    (B-tree splits, all leaves at one depth);
  * probe savings are goodput: under the same storm schedule and the
    same per-probe latency, the O(N) flat stack queues itself to death
    while the router keeps serving.

Interior ORs saturate where a node's aggregate key count approaches the
shared leaf geometry's capacity — the known Bloofi caveat — so the
summary leaves are provisioned with headroom (capacity >> keys per
tenant) and the probe bill is dominated by the first *selective* level,
a small slice of the fleet.  The series quantifies exactly that.

Writes ``benchmarks/bench_r5_tenant.json`` (read by
``scripts/perf_gate.py``).  ``REPRO_BENCH_SMALL=1`` shrinks the fleet
for CI; ``REPRO_BENCH_FULL=1`` extends the series to 1M tenants.
"""

from __future__ import annotations

import json
import os
import random

from repro.obs import use_registry
from repro.serve import run_tenant_storm
from repro.serve.tenant import TenantConfig, TenantRouter

from _util import print_table

_SMALL = bool(os.environ.get("REPRO_BENCH_SMALL"))
_FULL = bool(os.environ.get("REPRO_BENCH_FULL"))
SEED = 52525

# Fleet sizes for the probe-count series.  The acceptance point is
# 100k (ratio <= 5%); 10k is the perf-gate point (ratio <= 20%).
SIZES = [500, 2_000] if _SMALL else [1_000, 10_000, 100_000]
if _FULL and not _SMALL:
    SIZES.append(1_000_000)
N_QUERIES = 150 if _SMALL else 400
KEYS_PER_TENANT = 4

# Storm comparison: same schedule, same per-probe latency, two modes.
STORM_TENANTS = 250 if _SMALL else 1_200
STORM_REQUESTS = 240 if _SMALL else 600


def snapshot_path() -> str:
    return os.environ.get(
        "REPRO_BENCH_SNAPSHOT_R5",
        os.path.join(os.path.dirname(__file__), "bench_r5_tenant.json"),
    )


def _fleet_config() -> TenantConfig:
    # Summary-leaf headroom (capacity 32x the per-tenant key count) and
    # modest fanout keep interior ORs selective deep into the fleet —
    # the geometry knob the module docstring explains.
    return TenantConfig(
        n_trees=4, leaf_capacity=32 * KEYS_PER_TENANT, epsilon=0.005,
        seed=SEED, max_fanout=4, reor_interval=1 << 30,
    )


def _build_fleet(n_tenants: int) -> tuple[TenantRouter, dict[int, int]]:
    router = TenantRouter(_fleet_config())
    bases = range(0, n_tenants * KEYS_PER_TENANT, KEYS_PER_TENANT)
    router.add_tenants(
        (tenant, range(base, base + KEYS_PER_TENANT))
        for tenant, base in enumerate(bases)
    )
    # One spot-check key per tenant -> owner.
    return router, {base: tenant for tenant, base in enumerate(bases)}


def _measure(n_tenants: int) -> dict:
    router, truth = _build_fleet(n_tenants)
    rng = random.Random(SEED + n_tenants)
    present_keys = list(truth)
    router_probes = 0
    flat_probes = 0
    false_negatives = 0
    divergences = 0
    for i in range(N_QUERIES):
        if i % 2 == 0:
            key = present_keys[rng.randrange(len(present_keys))]
            owner = truth[key]
        else:
            key = (1 << 40) + rng.randrange(1 << 30)
            owner = None
        tree_look = router.query(key)
        flat_look = router.query_flat(key)
        router_probes += tree_look.probes
        flat_probes += flat_look.probes
        if sorted(tree_look.tenants) != sorted(flat_look.tenants):
            divergences += 1
        if owner is not None and owner not in tree_look.tenants:
            false_negatives += 1
        if owner is not None and owner not in flat_look.tenants:
            false_negatives += 1
    height = max(t.height for t in router.trees.values())
    return {
        "n_tenants": n_tenants,
        "router_probes": router_probes / N_QUERIES,
        "flat_probes": flat_probes / N_QUERIES,
        "ratio": router_probes / flat_probes,
        "height": height,
        "size_mib": router.size_in_bits / 8 / 2**20,
        "divergences": divergences,
        "false_negatives": false_negatives,
    }


def _storm(mode: str) -> dict:
    from repro.serve import StormPhase

    third = STORM_REQUESTS // 3
    phases = (
        StormPhase("calm", third),
        StormPhase("storm", STORM_REQUESTS - 2 * third,
                   transient_read=0.2, slowdown=3.0, spike_prob=0.05),
        StormPhase("recovery", third),
    )
    with use_registry():
        storm, rep, _store = run_tenant_storm(
            seed=SEED, n_tenants=STORM_TENANTS,
            keys_per_tenant=KEYS_PER_TENANT, mode=mode, phases=phases,
        )
    return {
        "goodput": storm.goodput(),
        "p99_ms": 1e3 * storm.phases[0].latency_quantile(0.99),
        "false_negatives": storm.false_negatives,
        "audit_false_negatives": rep.audit_false_negatives,
        "invariant_failures": rep.invariant_failures,
        "mean_probes": rep.mean_probes,
    }


def test_r5_tenant_router_vs_flat():
    series = [_measure(n) for n in SIZES]

    for row in series:
        # Differential identity and the one-sided-error contract hold at
        # every fleet size — probe savings are never paid in answers.
        assert row["divergences"] == 0
        assert row["false_negatives"] == 0
    # The probe bill shrinks *relative to the fleet* as it scales.
    ratios = [row["ratio"] for row in series]
    assert ratios == sorted(ratios, reverse=True)
    # Perf-gate point: <= 20% of flat at >= 10k tenants (CI gate), and
    # the paper-grade acceptance point: <= 5% at 100k.
    for row in series:
        if row["n_tenants"] >= 10_000:
            assert row["ratio"] <= 0.20, row
        if row["n_tenants"] >= 100_000:
            assert row["ratio"] <= 0.05, row
    # The structure is a tree, not a list: height grows like log N.
    for prev, cur in zip(series, series[1:]):
        assert cur["height"] <= prev["height"] + 4

    router_storm = _storm("router")
    flat_storm = _storm("flat")
    for run in (router_storm, flat_storm):
        assert run["false_negatives"] == 0
        assert run["audit_false_negatives"] == 0
        assert run["invariant_failures"] == 0
    # Same storm, same per-probe cost: O(N) fan-out loses goodput to
    # queueing and deadline misses that the router never accrues.
    assert router_storm["goodput"] > flat_storm["goodput"]

    print_table(
        f"R5: Bloofi router vs flat fan-out ({N_QUERIES} queries/size, "
        f"{KEYS_PER_TENANT} keys/tenant, seed {SEED})",
        ["tenants", "router probes", "flat probes", "ratio", "height",
         "MiB", "false neg"],
        [[row["n_tenants"],
          f"{row['router_probes']:.1f}",
          f"{row['flat_probes']:.1f}",
          f"{row['ratio']:.4f}",
          row["height"],
          f"{row['size_mib']:.1f}",
          row["false_negatives"]]
         for row in series],
        note="ratio = router/flat filter probes per lookup; flat pays one "
             "probe per tenant, the router pays the descent plus "
             "false-positive subtrees at the first selective level",
    )
    print_table(
        f"R5: goodput under the same storm ({STORM_TENANTS} tenants, "
        f"{STORM_REQUESTS} requests)",
        ["mode", "goodput", "calm p99 (ms)", "probes/lookup", "false neg"],
        [[mode,
          f"{run['goodput']:.3f}",
          f"{run['p99_ms']:.2f}",
          f"{run['mean_probes']:.1f}",
          run["false_negatives"]]
         for mode, run in (("router", router_storm), ("flat", flat_storm))],
        note="identical seeds, arrivals, faults, and per-probe latency — "
             "the only difference is O(log N) descent vs O(N) fan-out",
    )

    with open(snapshot_path(), "w") as fh:
        json.dump(
            {
                "series": series,
                "goodput": {
                    "n_tenants": STORM_TENANTS,
                    "router": router_storm,
                    "flat": flat_storm,
                },
                "small": _SMALL,
            },
            fh, indent=2,
        )
        fh.write("\n")
