"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
list
    Print the filter taxonomy (the paper's §2 feature matrix).
space --epsilon E [--n N]
    Print the space calculator: bits/key per filter family at the target
    FPR, against the information lower bound (the §2/§2.7 formulas).
monkey --levels n1,n2,... --bits-per-key B
    Print Monkey's optimal per-level FPR allocation vs uniform (§3.1).
stats [--workload B] [--format table|prometheus|json] [--selftest]
    Run a YCSB-style workload against a filtered LSM-tree on a (mildly)
    faulty device and print the telemetry registry: per-level filter FP
    rates, device read/write counters, retry backoff quantiles.
    ``--metrics-out PATH`` additionally writes the JSON snapshot;
    ``--selftest`` audits the registry and exporters (the CI gate).
trace [--n-gets N] [--fault-rate R]
    Record probe traces through ``LSMTree.get`` under fault injection
    and print the most interesting span tree.
serve-sim [--seed S] [--n-requests N] [--fault-rate R] [--budget-ms B]
          [--cache-mb M] [--cache-policy lru|tinylfu] [--negative-cache E]
          [--shards K] [--reshard-at REQ] [--reshard-kind split|merge]
          [--crash-at-step STEP] [--journal-out PATH]
          [--replicas R] [--repl-quorum Q] [--kill-replica-at REQ]
          [--heal-at REQ] [--wipe-replica]
          [--tenants N] [--tenant-zipf S] [--tenant-churn EVERY]
          [--tenant-quota RATE] [--tenant-mode router|flat]
    Run a calm → storm → recovery chaos schedule through the deadline-
    aware serving layer (docs/robustness.md).  Every topology prints the
    per-phase outcome table, goodput and false negatives, then its
    report's fields as ``name: value`` lines, then ``checks: N failed``,
    and exits 1 when a check failed.  The default topology is one tree,
    reported by its breakers and caches: ``--cache-mb`` interposes the
    block-cache tier above the breakers (docs/performance.md);
    ``--negative-cache`` memoizes authoritative ABSENT answers at the
    serving facade.  ``--shards`` serves from a sharded store instead;
    ``--reshard-at`` splits/merges a shard online mid-storm, and
    ``--crash-at-step`` kills the simulated process at a migration step
    and recovers.  ``--journal-out`` writes the report as JSON, with the
    migration journal for a sharded storm (the chaos CI jobs' failure
    artifact).  ``--replicas`` serves from an R-way replicated fleet
    instead (quorum reads, hinted handoff, anti-entropy);
    ``--kill-replica-at``/``--heal-at`` take one replica down and back
    mid-storm, ``--wipe-replica`` destroys its data too, and
    ``--crash-at-step`` also accepts ``handoff.replay``,
    ``handoff.replay:applied``, ``handoff.replay:batch`` and
    ``repair.stream``.  ``--tenants`` serves a multi-tenant fleet behind
    the Flat-Bloofi filter-of-filters index instead (one probe per 512
    tenants per lookup): ``--tenant-zipf`` sets the traffic skew,
    ``--tenant-churn`` deprovisions/provisions one tenant every that
    many requests, ``--tenant-quota`` enables per-tenant token-bucket
    admission at that rate, and ``--tenant-mode flat`` runs the O(N)
    fan-out control.

(For end-to-end demonstrations, run the scripts in ``examples/``.)
"""

from __future__ import annotations

import argparse


def _cmd_list(_args) -> int:
    from repro.core.registry import FEATURE_MATRIX

    header = f"{'filter':20s} {'§':6s} {'kind':13s} features"
    print(header)
    print("-" * len(header))
    for name, f in sorted(FEATURE_MATRIX.items(), key=lambda kv: kv[1].paper_section):
        flags = [
            label
            for label, on in [
                ("inserts", f.inserts), ("deletes", f.deletes),
                ("counting", f.counting), ("expandable", f.expandable),
                ("adaptive", f.adaptive), ("values", f.values),
                ("ranges", f.ranges),
            ]
            if on
        ]
        print(f"{name:20s} {f.paper_section:6s} {f.kind:13s} {', '.join(flags)}")
    return 0


def _cmd_space(args) -> int:
    from repro.core import analysis

    eps = args.epsilon
    rows = [
        ("information lower bound", analysis.information_lower_bound_bits_per_key(eps)),
        ("ribbon", analysis.ribbon_bits_per_key(eps)),
        ("xor+", analysis.xor_plus_bits_per_key(eps)),
        ("xor", analysis.xor_bits_per_key(eps)),
        ("quotient (CQF metadata)", analysis.quotient_bits_per_key(eps)),
        ("cuckoo", analysis.cuckoo_bits_per_key(eps)),
        ("bloom", analysis.bloom_bits_per_key(eps)),
    ]
    print(f"bits per key at epsilon = {eps}:")
    for name, bits in rows:
        total = f"  ({bits * args.n / 8 / 1024:.1f} KiB for n={args.n})" if args.n else ""
        print(f"  {name:26s} {bits:7.3f}{total}")
    return 0


def _cmd_monkey(args) -> int:
    from repro.core.analysis import monkey_allocation, uniform_allocation

    levels = [int(x) for x in args.levels.split(",")]
    budget = args.bits_per_key * sum(levels)
    monkey = monkey_allocation(levels, budget)
    uniform = uniform_allocation(levels, budget)
    print(f"levels: {levels}; total budget {budget:.0f} bits "
          f"({args.bits_per_key} bits/key)")
    print(f"{'level entries':>14s} {'monkey FPR':>12s} {'uniform FPR':>12s}")
    for n, pm, pu in zip(levels, monkey, uniform):
        print(f"{n:>14d} {pm:>12.2e} {pu:>12.2e}")
    print(f"{'sum of FPRs':>14s} {sum(monkey):>12.4f} {sum(uniform):>12.4f}")
    return 0


def _build_workload_tree(args, registry):
    """A filtered LSM-tree on a faulty device, loaded and driven with the
    requested YCSB mix plus a negative-lookup sweep (so realised filter
    FP rates are measurable, not vacuously zero)."""
    from repro.apps.lsm import LSMConfig, LSMTree
    from repro.common.faults import FaultInjector, FaultyBlockDevice
    from repro.workloads.ycsb import run_workload

    injector = FaultInjector(
        seed=args.seed, transient_read={"run": args.fault_rate}
    )
    device = FaultyBlockDevice(injector=injector)
    tree = LSMTree(
        LSMConfig(
            memtable_entries=args.memtable_entries,
            compaction=args.compaction,
            retry_attempts=8,
            seed=args.seed,
        ),
        device=device,
    )
    keys = list(range(args.n_keys))
    for key in keys:
        tree.put(key, key * 7)
    result = run_workload(
        tree, args.workload, args.n_ops, key_space=keys, seed=args.seed
    )
    # Negative sweep: keys far outside the loaded space, so every device
    # read they cause is a realised filter false positive.
    for i in range(args.n_ops // 2):
        tree.get(10_000_000 + i)
    tree.publish_gauges(registry)
    return tree, result


def _add_workload_args(parser) -> None:
    parser.add_argument("--workload", choices=list("ABCDE"), default="B",
                        help="YCSB mix (default B: read-mostly)")
    parser.add_argument("--n-keys", type=int, default=2000)
    parser.add_argument("--n-ops", type=int, default=2000)
    parser.add_argument("--memtable-entries", type=int, default=128)
    parser.add_argument("--compaction", default="leveling",
                        choices=["leveling", "tiering", "lazy-leveling"])
    parser.add_argument("--fault-rate", type=float, default=0.02,
                        help="transient-read probability on run blocks")
    parser.add_argument("--seed", type=int, default=0)


def _cmd_stats(args) -> int:
    from repro import obs

    with obs.use_registry() as registry:
        if args.selftest:
            # Populate the registry with the real instrumented stack first,
            # then audit names, uniqueness, and exporter round-trips.
            args.n_keys, args.n_ops = min(args.n_keys, 600), min(args.n_ops, 300)
            _build_workload_tree(args, registry)
            failures = obs.selftest(registry)
            for failure in failures:
                print(f"selftest FAIL: {failure}")
            print(f"selftest: {len(registry.metrics())} metric families audited, "
                  f"{len(failures)} failure(s)")
            return 1 if failures else 0
        tree, result = _build_workload_tree(args, registry)
        if args.format == "prometheus":
            output = obs.to_prometheus(registry)
        elif args.format == "json":
            output = obs.to_json(registry)
        else:
            ops = " ".join(f"{op}={n}" for op, n in sorted(result.ops.items()))
            output = (
                obs.render_table(
                    registry,
                    title=f"telemetry — YCSB-{args.workload}, {args.n_ops} ops "
                          f"({ops}), {args.n_keys} keys",
                )
                + f"\nsum-of-FPRs (expected): {tree.sum_of_fprs():.4f}"
            )
        print(output)
        if args.metrics_out:
            with open(args.metrics_out, "w") as fh:
                fh.write(obs.to_json(registry))
            print(f"metrics snapshot written to {args.metrics_out}")
    return 0


def _cmd_trace(args) -> int:
    from repro import obs

    recorder = obs.TraceRecorder(capacity=4 * args.n_ops + 16)
    with obs.use_registry() as registry, obs.use_recorder(recorder):
        _build_workload_tree(args, registry)
        if not len(recorder):
            print("no spans recorded")
            return 1
        # The most interesting probe: the widest tree (most spans) —
        # under fault injection that is one with retries in it.
        roots = recorder.roots
        best = max(roots, key=lambda root: len(list(root.walk())))
        n_spans = sum(len(list(root.walk())) for root in roots)
        print(f"recorded {len(roots)} probe trees ({n_spans} spans); deepest:")
        print(obs.render_tree(best))
        retries = recorder.find("retry.attempt")
        print(f"\nspan counts: lsm.get={len(recorder.find('lsm.get'))} "
              f"filter.probe={len(recorder.find('filter.probe'))} "
              f"device.read={len(recorder.find('device.read'))} "
              f"retry.attempt={len(retries)}")
    return 0


def _tree_storm(*, seed, phases, budget, **stack_kwargs):
    """``run_storm`` over ``build_stack``, reported like the other
    topologies: breaker transitions, then each cache that is on."""
    from dataclasses import make_dataclass

    from repro.serve import BreakerState, build_stack, run_storm
    from repro.serve.stack import StormSummary

    served, tree, *_ = build_stack(seed=seed, budget=budget, **stack_kwargs)
    storm = run_storm(served, phases, seed=seed, n_keys=stack_kwargs["n_keys"])
    breakers = served.breaker_device
    fields = {
        "breaker_opens": storm.breaker_opens,
        "breaker_closes": storm.breaker_closes,
        "breakers_not_recovered": len(breakers.open_breakers()),
        "half_open_probe_rounds": breakers.n_transitions(BreakerState.HALF_OPEN),
    }
    cache, neg = getattr(tree.device, "cache", None), served.negative_cache
    if cache is not None:
        fields.update({f"block_cache_{k}": v for k, v in vars(cache.stats).items()},
                      block_cache_reads=cache.stats.requests,
                      block_cache_hit_rate=cache.stats.hit_rate)
    if neg is not None:
        fields.update(negative_cache_hits=neg.hits, negative_cache_misses=neg.misses,
                      negative_cache_epoch_flushes=neg.epoch_flushes)
    # A report with exactly these fields, so it prints like the others.
    return storm, make_dataclass("TreeReport", list(fields), bases=(StormSummary,))(**fields)


def _cmd_serve_sim(args) -> int:
    """One body for every topology: the flags pick a storm function and
    its keyword arguments; the phase table, the report, ``--journal-out``
    and the exit rule are shared."""
    import json

    from repro import obs, serve

    n = args.n_requests
    phases = (
        serve.StormPhase("calm", n // 3),
        serve.StormPhase("storm", n - 2 * (n // 3), transient_read=args.fault_rate,
                         slowdown=4.0, spike_prob=0.05),
        serve.StormPhase("recovery", n // 3),
    )
    if args.shards > 0:
        run, kwargs = serve.run_reshard_storm, dict(
            n_keys=args.n_keys, n_shards=args.shards, reshard_at=args.reshard_at,
            kind=args.reshard_kind, crash_at_step=args.crash_at_step)
    elif args.replicas > 0:
        replication = min(3, args.replicas)
        run, kwargs = serve.run_replica_storm, dict(
            n_keys=args.n_keys, n_nodes=args.replicas, replication=replication,
            read_quorum=args.repl_quorum or replication // 2 + 1,
            kill_at=args.kill_replica_at, heal_at=args.heal_at, wipe=args.wipe_replica,
            crash_at_step=args.crash_at_step, write_fraction=0.05)
    elif args.tenants > 0:
        quota = None
        if args.tenant_quota > 0:
            quota = serve.TenantQuota(rate=args.tenant_quota,
                                      burst=max(1.0, args.tenant_quota / 10))
        run, kwargs = serve.run_tenant_storm, dict(
            n_tenants=args.tenants, mode=args.tenant_mode,
            zipf_skew=args.tenant_zipf, churn_every=args.tenant_churn, quota=quota)
    else:
        run, kwargs = _tree_storm, dict(
            n_keys=args.n_keys, cache_mb=args.cache_mb, cache_policy=args.cache_policy,
            negative_cache_entries=args.negative_cache)
    with obs.use_registry():
        storm, report, *parts = run(seed=args.seed, phases=phases,
                                    budget=args.budget_ms / 1000.0, **kwargs)
        journal = parts[0].journal_records() if args.journal_out and args.shards > 0 else None
    print(f"{run.__name__.lstrip('_')}: {n} requests, "
          + ", ".join(f"{key}={value!r}" for key, value in kwargs.items())
          + f", budget {args.budget_ms:g} ms, fault rate {args.fault_rate}, seed {args.seed}")
    header = (f"{'phase':10s} {'requests':>8s} "
              + "".join(f"{o.value:>10s}" for o in serve.ServeOutcome) + f" {'p99 (ms)':>9s}")
    print(header)
    print("-" * len(header))
    for p in storm.phases:
        print(f"{p.name:10s} {p.n_requests:8d} "
              + "".join(f"{p.outcomes[o]:10d}" for o in serve.ServeOutcome)
              + f" {1e3 * p.latency_quantile(0.99):9.2f}")
    print(f"\ngoodput (served/total): {storm.goodput():.3f}")
    print(f"false negatives: {storm.false_negatives} (must be 0)")
    doc = report.as_dict()
    for key, value in doc.items():
        if key == "events":
            print("events:")
            for t, label in value:
                print(f"  t={1e3 * t:9.2f} ms  {label}")
        else:
            print(f"{key}: {value:.4f}" if isinstance(value, float) else f"{key}: {value}")
    if args.journal_out:
        with open(args.journal_out, "w") as fh:
            json.dump({"report": doc, "seed": args.seed, "crash_at_step": args.crash_at_step,
                       **({"journal": journal} if journal is not None else {})},
                      fh, indent=2, sort_keys=True)
        print(f"storm report written to {args.journal_out}")
    failures = storm.failures() + report.failures()
    for failure in failures:
        print(f"FAILED: {failure}")
    print(f"checks: {len(failures)} failed")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print the filter taxonomy")

    p_space = sub.add_parser("space", help="space calculator")
    p_space.add_argument("--epsilon", type=float, default=0.01)
    p_space.add_argument("--n", type=int, default=0, help="optional key count")

    p_monkey = sub.add_parser("monkey", help="Monkey FPR allocation")
    p_monkey.add_argument("--levels", type=str, default="100,1000,10000,100000")
    p_monkey.add_argument("--bits-per-key", type=float, default=8.0)

    p_stats = sub.add_parser("stats", help="run a workload, print telemetry")
    _add_workload_args(p_stats)
    p_stats.add_argument("--format", choices=["table", "prometheus", "json"],
                         default="table")
    p_stats.add_argument("--metrics-out", type=str, default=None,
                         help="also write the JSON snapshot to this path")
    p_stats.add_argument("--selftest", action="store_true",
                         help="audit registry + exporters and exit (CI gate)")

    p_trace = sub.add_parser("trace", help="record and print a probe trace")
    _add_workload_args(p_trace)

    p_serve = sub.add_parser(
        "serve-sim", help="chaos storm through the deadline-aware serving layer"
    )
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--n-requests", type=int, default=900)
    p_serve.add_argument("--n-keys", type=int, default=2000)
    p_serve.add_argument("--fault-rate", type=float, default=0.6,
                         help="transient-read probability during the storm phase")
    p_serve.add_argument("--budget-ms", type=float, default=50.0,
                         help="per-request deadline budget in simulated ms")
    p_serve.add_argument("--cache-mb", type=float, default=0.0,
                         help="block-cache size in simulated MiB "
                              "(0 disables the cache tier)")
    p_serve.add_argument("--cache-policy", choices=["lru", "tinylfu"],
                         default="lru",
                         help="block-cache eviction/admission policy")
    p_serve.add_argument("--negative-cache", type=int, default=0,
                         help="entries in the served negative-lookup cache "
                              "(0 disables it)")
    p_serve.add_argument("--shards", type=int, default=0,
                         help="serve from a sharded store with this many "
                              "shards (0 = the classic single-tree stack)")
    p_serve.add_argument("--reshard-at", type=int, default=0,
                         help="plan an online migration at this request "
                              "number (0 disables; requires --shards)")
    p_serve.add_argument("--reshard-kind", choices=["split", "merge"],
                         default="split",
                         help="split the hottest shard or merge the last "
                              "shard away")
    p_serve.add_argument("--crash-at-step", type=str, default=None,
                         help="arm a one-shot simulated crash at this "
                              "migration step (e.g. backfill, cutover, "
                              "retire; see repro.serve.reshard)")
    p_serve.add_argument("--journal-out", type=str, default=None,
                         help="write the migration journal + report as "
                              "JSON to this path (CI failure artifact)")
    p_serve.add_argument("--replicas", type=int, default=0,
                         help="serve from an R-way replicated fleet with "
                              "this many nodes (0 = the classic stack; "
                              "mutually exclusive with --shards)")
    p_serve.add_argument("--repl-quorum", type=int, default=0,
                         help="read quorum for ABSENT answers "
                              "(0 = majority of the replication factor)")
    p_serve.add_argument("--kill-replica-at", type=int, default=0,
                         help="kill one replica at this request number "
                              "(0 disables; requires --replicas)")
    p_serve.add_argument("--heal-at", type=int, default=0,
                         help="heal the killed replica at this request "
                              "number (0 = never during the storm)")
    p_serve.add_argument("--tenants", type=int, default=0,
                         help="serve a multi-tenant fleet behind the Flat-Bloofi "
                              "router (0 = the classic single-tree stack; "
                              "mutually exclusive with --shards/--replicas)")
    p_serve.add_argument("--tenant-zipf", type=float, default=1.1,
                         help="Zipf skew of per-tenant traffic "
                              "(0 = uniform; requires --tenants)")
    p_serve.add_argument("--tenant-churn", type=int, default=0,
                         help="deprovision+provision one tenant every N "
                              "requests mid-storm (0 disables; requires "
                              "--tenants)")
    p_serve.add_argument("--tenant-quota", type=float, default=0.0,
                         help="per-tenant token-bucket admission rate in "
                              "requests/s (0 disables; requires --tenants)")
    p_serve.add_argument("--tenant-mode", choices=["router", "flat"],
                         default="router",
                         help="Flat-Bloofi index (one probe per 512 "
                              "tenants) or the flat fan-out control "
                              "(one probe per tenant)")
    p_serve.add_argument("--wipe-replica", action="store_true",
                         help="destroy the killed replica's data, forcing "
                              "anti-entropy to rebuild it")

    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "space":
        if not 0 < args.epsilon < 1:
            parser.error("--epsilon must be in (0, 1)")
        return _cmd_space(args)
    if args.command == "monkey":
        return _cmd_monkey(args)
    if args.command == "stats":
        if not 0 <= args.fault_rate < 1:
            parser.error("--fault-rate must be in [0, 1)")
        return _cmd_stats(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "serve-sim":
        if not 0 <= args.fault_rate <= 1:
            parser.error("--fault-rate must be in [0, 1]")
        if args.budget_ms <= 0:
            parser.error("--budget-ms must be positive")
        for flag in ("cache_mb", "negative_cache", "shards", "replicas", "tenants"):
            if getattr(args, flag) < 0:
                parser.error(f"--{flag.replace('_', '-')} must be non-negative")
        if sum(count > 0 for count in (args.shards, args.replicas, args.tenants)) > 1:
            parser.error("--shards, --replicas and --tenants are mutually exclusive")
        for flag, needs in (("tenant_churn", "tenants"), ("tenant_quota", "tenants"),
                            ("reshard_at", "shards"), ("kill_replica_at", "replicas"),
                            ("heal_at", "kill_replica_at")):
            if getattr(args, flag) > 0 and getattr(args, needs) <= 0:
                parser.error(f"--{flag.replace('_', '-')} requires "
                             f"--{needs.replace('_', '-')}")
        if args.heal_at > 0 and args.heal_at <= args.kill_replica_at:
            parser.error("--heal-at must come after --kill-replica-at")
        if args.crash_at_step and args.reshard_at <= 0 \
                and args.kill_replica_at <= 0:
            parser.error("--crash-at-step requires --reshard-at or "
                         "--kill-replica-at")
        return _cmd_serve_sim(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
