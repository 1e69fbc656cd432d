"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.__main__ import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "quotient" in out
        assert "§2.5" in out
        assert "adaptive" in out

    def test_space(self, capsys):
        assert main(["space", "--epsilon", "0.00390625", "--n", "1000"]) == 0
        out = capsys.readouterr().out
        assert "lower bound" in out
        assert "8.000" in out  # log2(1/2^-8)
        assert "KiB" in out

    def test_space_rejects_bad_epsilon(self):
        with pytest.raises(SystemExit):
            main(["space", "--epsilon", "2.0"])

    def test_monkey(self, capsys):
        assert main(["monkey", "--levels", "10,100,1000", "--bits-per-key", "8"]) == 0
        out = capsys.readouterr().out
        assert "sum of FPRs" in out
        # Monkey's total must print lower than uniform's.
        line = [l for l in out.splitlines() if "sum of FPRs" in l][0]
        monkey_total, uniform_total = map(float, line.split()[-2:])
        assert monkey_total < uniform_total

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


_SMALL = ["--n-keys", "400", "--n-ops", "200", "--memtable-entries", "64"]


class TestStatsCommand:
    def test_table_has_fp_rate_device_and_retry_rows(self, capsys):
        assert main(["stats", *_SMALL, "--fault-rate", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "repro_lsm_filter_fp_rate{level=" in out
        assert "repro_device_reads_total" in out
        assert "repro_device_writes_total" in out
        assert "repro_retry_backoff_seconds" in out
        assert "p50=" in out and "p99=" in out
        assert "YCSB-B" in out

    def test_prometheus_format_round_trips(self, capsys):
        from repro import obs

        assert main(["stats", *_SMALL, "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        samples = obs.parse_prometheus(out)
        assert "repro_lsm_lookups_total" in samples
        assert "repro_device_reads_total" in samples
        assert samples["repro_lsm_lookups_total"][()] > 0

    def test_json_format_round_trips(self, capsys):
        from repro import obs

        assert main(["stats", *_SMALL, "--format", "json"]) == 0
        out = capsys.readouterr().out
        rebuilt = obs.from_json(out)
        assert "repro_lsm_filter_fp_rate" in rebuilt.snapshot()
        assert rebuilt.snapshot() == obs.from_json(out).snapshot()

    def test_metrics_out_writes_snapshot(self, tmp_path, capsys):
        from repro import obs

        path = tmp_path / "metrics.json"
        assert main(["stats", *_SMALL, "--metrics-out", str(path)]) == 0
        rebuilt = obs.from_json(path.read_text())
        assert rebuilt.get("repro_lsm_lookups_total") is not None

    def test_selftest_passes(self, capsys):
        assert main(["stats", "--selftest"]) == 0
        out = capsys.readouterr().out
        assert "0 failure(s)" in out

    def test_rejects_bad_fault_rate(self):
        with pytest.raises(SystemExit):
            main(["stats", "--fault-rate", "1.5"])


class TestTraceCommand:
    def test_prints_probe_tree(self, capsys):
        assert main(["trace", *_SMALL, "--fault-rate", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "lsm.get" in out
        assert "filter.probe" in out
        assert "device.read" in out
        assert "retry.attempt" in out
        assert "probe trees" in out


class TestServeSimTenantCommand:
    """serve-sim --tenants drives the Bloofi fleet end to end: the exit
    code is the contract (nonzero on any false negative, lost audit key,
    or tree-invariant violation), and the report must surface the
    numbers the tenant-chaos CI job greps for."""

    _BASE = ["serve-sim", "--seed", "3", "--tenants", "32",
             "--n-requests", "180"]

    def test_router_storm_exits_clean(self, capsys):
        assert main([*self._BASE, "--tenant-churn", "6",
                     "--tenant-quota", "300"]) == 0
        out = capsys.readouterr().out
        assert "false negatives: 0" in out
        assert "audited_keys: " in out
        assert "invariant_failures: 0" in out
        assert "tenants_added: " in out

    def test_flat_mode_probes_whole_fleet(self, capsys):
        assert main([*self._BASE, "--tenant-mode", "flat"]) == 0
        out = capsys.readouterr().out
        # Flat fan-out pays at least one probe per tenant per lookup.
        line = [l for l in out.splitlines() if l.startswith("mean_probes: ")][0]
        assert float(line.split()[1]) >= 32

    def test_tenants_exclusive_with_shards(self):
        with pytest.raises(SystemExit):
            main([*self._BASE, "--shards", "4"])

    def test_churn_requires_tenants(self):
        with pytest.raises(SystemExit):
            main(["serve-sim", "--tenant-churn", "5"])

    def test_quota_requires_tenants(self):
        with pytest.raises(SystemExit):
            main(["serve-sim", "--tenant-quota", "100"])


class TestServeSimDeterminism:
    """The same seed gives the same run: serve-sim, one code path for
    every topology (crash-recovering or not), writes a byte-identical
    report and prints the same text, apart from the line naming the
    output file."""

    _BASE = ["serve-sim", "--seed", "100", "--n-keys", "800", "--n-requests", "600"]

    @pytest.mark.parametrize("scenario", [
        ["--shards", "4", "--reshard-at", "150", "--crash-at-step", "backfill:batch"],
        ["--replicas", "3", "--kill-replica-at", "150", "--heal-at", "450",
         "--crash-at-step", "handoff.replay:applied"],
        ["--tenants", "32", "--tenant-churn", "6"],
        ["--cache-mb", "0.01", "--negative-cache", "64"],
    ], ids=["reshard", "replica", "tenant", "tree"])
    def test_seeded_journals_are_byte_identical(self, scenario, tmp_path, capsys):
        runs = []
        for i in range(2):
            path = tmp_path / f"run{i}.json"
            assert main([*self._BASE, *scenario, "--journal-out", str(path)]) == 0
            lines = capsys.readouterr().out.splitlines()
            if "--crash-at-step" in scenario:
                assert "crashes: 1" in "\n".join(lines)
            assert "checks: 0 failed" in lines
            assert sum("written to" in line for line in lines) == 1
            runs.append((path.read_bytes(), [l for l in lines if "written to" not in l]))
        assert runs[0] == runs[1]
