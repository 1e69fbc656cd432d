"""Metric values from one or more repetitions of a workload.

End-to-end metrics come from untraced repetitions only.  Per-layer
metrics come from a traced repetition (self times, call counts) plus
counts the program keeps anyway: the ``repro.obs`` registry snapshot,
``tree.stats``, ``device.stats``, ``cache.stats`` and the storm reports.
A layer a workload does not run reports 0.
"""

from __future__ import annotations

import statistics

from repro.serve import ServeOutcome

from serve_workloads import ENTRY_BYTES, Rep

US = 1e6
MS = 1e3


def quantile(values, q: float) -> float:
    """Nearest-rank *q*-quantile (the rule ``PhaseReport`` uses); 0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def registry_total(snapshot: dict, name: str, **labels) -> float:
    """Sum of a counter's series (or a histogram's sums) matching *labels*."""
    entry = snapshot.get(name)
    if entry is None:
        return 0.0
    total = 0.0
    for series in entry["series"]:
        if all(series["labels"].get(k) == v for k, v in labels.items()):
            total += series["sum"] if entry["kind"] == "histogram" else series["value"]
    return total


def end_to_end(reps: list[Rep]) -> dict[str, float]:
    """End-to-end metrics over untraced storms.

    ``setup_s`` is the median over the storms' set-ups; the simulated
    percentiles, goodput and space pool every request and key of the run.
    """
    sim = [lat for rep in reps for phase in rep.outcome.storm.phases
           for lat in phase.latencies]
    storms = [rep.outcome.storm for rep in reps]
    return {
        "setup_s": statistics.median(s for rep in reps for s in rep.probe.setup_s),
        "goodput": ratio(sum(s.total(ServeOutcome.SERVED) for s in storms),
                         sum(s.n_requests for s in storms)),
        "sim_p50_ms": quantile(sim, 0.50) * MS,
        "sim_p99_ms": quantile(sim, 0.99) * MS,
        "space_bytes_per_key": ratio(sum(rep.outcome.space_bytes for rep in reps),
                                     sum(rep.outcome.live_keys for rep in reps)),
    }


def per_layer(untraced: Rep, traced: Rep) -> dict[str, float]:
    """Every per-layer metric; *traced* and *untraced* ran the same seed."""
    t = traced.tracer
    probe, outcome, snap = traced.probe, traced.outcome, traced.registry
    storm = outcome.storm
    requests = len(probe.answers)
    served = outcome.served

    def per_req(x: float) -> float:
        return ratio(x, requests)

    def self_us(name: str, **which) -> float:
        s = t.stat(name, **which)
        return ratio(s.self_time, s.count) * US

    def total(*names: str, attr: str = "total") -> float:
        return sum(getattr(t.stat(n), attr) for n in names)

    def calls(*names: str) -> int:
        return sum(t.stat(n).count for n in names)

    m: dict[str, float] = {}
    m["driver.self_us_per_req"] = per_req(probe.run_s - t.root_seconds["drive"]) * US
    m["serve.self_us"] = self_us("serve")
    for o in (ServeOutcome.SHED, ServeOutcome.TIMED_OUT, ServeOutcome.DEGRADED):
        m[f"serve.outcome.{o.value}"] = ratio(storm.total(o), storm.n_requests)

    obs = ("obs.counter", "obs.gauge", "obs.histogram")
    m["obs.registry_calls_per_req"] = per_req(calls(*obs))
    m["obs.us_per_req"] = per_req(total(*obs, attr="self_time")) * US

    m["admission.us_per_call"] = self_us("admission.admit")
    m["admission.shed_frac"] = served.admission.stats.shed_rate()
    m["admission.queue_delay_ms_p99"] = quantile(
        [delay for *_rest, delay in probe.answers], 0.99) * MS

    neg = served.negative_cache
    m["cache.neg_hit_rate"] = (
        ratio(neg.hits, neg.hits + neg.misses) if neg is not None else 0.0)
    caches = [getattr(tree.device, "cache", None) for tree in outcome.trees]
    block = next((c for c in caches if c is not None), None)
    m["cache.block_hit_rate"] = block.stats.hit_rate if block is not None else 0.0
    m["cache.block_evictions"] = block.stats.evictions if block is not None else 0
    m["cache.us_per_req"] = per_req(
        total("cache.read", "cache.known_absent", attr="self_time")) * US

    trees = outcome.trees
    lookups = sum(tree.stats.lookups for tree in trees)
    ingested = sum(tree.stats.bytes_ingested for tree in trees)
    probes = registry_total(snap, "repro_lsm_filter_probes_total")
    m["lsm.lookups_per_req"] = per_req(lookups)
    m["lsm.lookup_self_us"] = self_us("lsm.lookup")
    m["lsm.runs_probed_per_lookup"] = ratio(probes, lookups)
    m["lsm.ios_per_lookup"] = ratio(sum(tr.stats.lookup_ios for tr in trees), lookups)
    m["lsm.wasted_ios_per_lookup"] = ratio(
        sum(tr.stats.wasted_lookup_ios for tr in trees), lookups)
    puts = t.both("lsm.put")
    m["lsm.put_self_us"] = ratio(puts.self_time, puts.count) * US
    m["lsm.flushes"] = registry_total(snap, "repro_lsm_flushes_total")
    m["lsm.compactions"] = registry_total(snap, "repro_lsm_compactions_total")
    device = outcome.device
    written = device.stats.bytes_written if device is not None else 0
    m["lsm.write_amp"] = ratio(written, ingested)

    negatives = registry_total(snap, "repro_lsm_filter_probes_total", result="negative")
    fps = registry_total(snap, "repro_lsm_filter_false_positives_total")
    inserts = t.both("filter.insert")
    m["filter.probes_per_req"] = per_req(calls("filter.may_contain"))
    m["filter.probe_us"] = self_us("filter.may_contain")
    m["filter.fp_rate"] = ratio(fps, negatives + fps)
    m["filter.inserts"] = inserts.count
    m["filter.insert_us_total"] = inserts.self_time * US

    m["breaker.reads_per_req"] = per_req(calls("breaker.read"))
    m["breaker.fast_fails"] = registry_total(snap, "repro_breaker_fast_fails_total")
    m["breaker.opens"] = registry_total(snap, "repro_breaker_transitions_total", to="open")
    m["breaker.self_us"] = self_us("breaker.read")

    user_bytes = (outcome.live_keys + len(probe.put_s)) * ENTRY_BYTES
    m["device.reads_per_req"] = per_req(calls("device.read"))
    m["device.read_self_us"] = self_us("device.read")
    m["device.sim_busy_ms_per_req"] = per_req(
        device.stats.busy_seconds if device is not None else 0.0) * MS
    m["device.faults"] = registry_total(snap, "repro_device_faults_total")
    m["device.write_bytes_per_user_byte"] = ratio(written, user_bytes)
    m["retry.attempts_per_call"] = ratio(
        registry_total(snap, "repro_retry_attempts_total"), t.both("retry.call").count)
    m["retry.sim_backoff_ms_total"] = registry_total(
        snap, "repro_retry_backoff_seconds") * MS

    report = outcome.report
    m["reshard.lookup_self_us"] = self_us("reshard.lookup")
    m["reshard.owner_reads_per_lookup"] = report.get("owner_reads_per_lookup", 0.0)
    m["reshard.pump_us_per_req"] = per_req(total("reshard.pump")) * US
    m["reshard.pump_sheds"] = report.get("pump_sheds", 0)
    m["reshard.keys_moved"] = report.get("keys_moved", 0)

    m["replica.lookup_self_us"] = self_us("replica.lookup")
    m["replica.tree_lookups_per_req"] = per_req(t.children("replica.lookup", "lsm.lookup"))
    m["replica.put_self_us"] = self_us("replica.put")
    m["replica.replay_us_per_req"] = per_req(total("replica.replay")) * US
    m["replica.repair_us_per_req"] = per_req(total("replica.repair")) * US
    m["replica.repair_bytes"] = report.get("repair_bytes", 0)
    m["replica.hints_replayed"] = report.get("hints_replayed", 0)

    # Served lookups only: the post-drain audit calls TenantStore.lookup
    # outside serve, with faults off.
    served_lookups = t.children("serve", "tenant.lookup")
    m["tenant.lookup_self_us"] = self_us("tenant.lookup", in_request=(True,))
    m["bloofi.candidates_us"] = self_us("bloofi.candidates", in_request=(True,))
    m["bloofi.probes_per_lookup"] = ratio(
        t.count("bloofi.tree_probes", in_request=(True,)), served_lookups)
    m["bloofi.auth_probes_per_lookup"] = ratio(
        t.count("bloofi.auth_probes", in_request=(True,)), served_lookups)
    m["tenant.churn_us_total"] = total("tenant.add_tenant", "tenant.remove_tenant") * US

    m["trace.overhead"] = ratio(probe.run_s, untraced.probe.run_s)
    # Wall clock of the untraced twin.  Interference from the shared host
    # spreads these across runs by more than a regression bound absorbs.
    m["throughput_rps"] = ratio(len(untraced.probe.answers), untraced.probe.run_s)
    m["serve_us_p50"] = quantile(untraced.probe.serve_s, 0.50) * US
    m["serve_us_p99"] = quantile(untraced.probe.serve_s, 0.99) * US
    m["put_us_p50"] = quantile(untraced.probe.put_s, 0.50) * US
    m["put_us_p99"] = quantile(untraced.probe.put_s, 0.99) * US
    m["run.cpu_wall_ratio"] = untraced.probe.cpu_wall_ratio
    return m
