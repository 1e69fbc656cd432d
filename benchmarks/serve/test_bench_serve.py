"""Self-test of the served-request benchmark at a small scale.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/serve -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from serve_trace import Patcher, Tracer, traced_methods  # noqa: E402
from serve_workloads import WORKLOADS, run_rep  # noqa: E402

SCALE = 0.02
SEED = 7


def _sim_view(rep) -> dict:
    """Everything a run reports that must not depend on wall time."""
    storm = rep.outcome.storm
    return {
        "digest": rep.digest,
        "answers": rep.probe.answers,
        "latencies": [p.latencies for p in storm.phases],
        "outcomes": [p.outcomes for p in storm.phases],
        "report": rep.outcome.report,
        "registry": rep.registry,
        "space": rep.outcome.space_bytes,
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_is_identical_and_tracing_changes_nothing(name):
    workload = WORKLOADS[name]
    first = run_rep(workload, SEED, SCALE)
    second = run_rep(workload, SEED, SCALE)
    traced = run_rep(workload, SEED, SCALE, traced=True)
    assert _sim_view(first) == _sim_view(second)
    assert _sim_view(traced) == _sim_view(first)
    assert first.outcome.storm.false_negatives == 0
    assert all(first.outcome.checks.values())


@pytest.mark.parametrize("name", ["point-read", "cached-storm", "replica-killheal",
                                  "tenant-zipf"])
def test_self_times_sum_to_the_serve_span(name):
    rep = run_rep(WORKLOADS[name], SEED, SCALE, traced=True, keep_requests=50)
    t = rep.tracer
    # The per-layer self times every *_self_us metric reports, over all
    # work done for a request, add up to the root serve spans.
    request_layers = {n for phase, n, in_request in t.stats
                      if phase == "drive" and in_request}
    self_sum = sum(t.stat(n, in_request=(True,)).self_time for n in request_layers)
    serve = t.stat("serve")
    assert serve.count == len(rep.probe.answers)
    assert len(request_layers) > 1
    assert self_sum == pytest.approx(serve.total, rel=0.05)

    # So do the self times of each kept span record, request by request.
    children: dict[int, list[dict]] = {}
    for s in t.spans:
        children.setdefault(s["parent"], []).append(s)

    def tree_self(s):
        kids = children.get(s["id"], [])
        assert all(c["request"] == s["request"] for c in kids)
        return s["self"] + sum(tree_self(c) for c in kids)

    roots = [s for s in children[None] if s["name"] == "serve"]
    assert len(roots) == 50
    for root in roots:
        assert tree_self(root) == pytest.approx(root["end"] - root["start"], rel=0.05)


def test_tenant_audit_is_kept_apart_from_served_lookups():
    rep = run_rep(WORKLOADS["tenant-zipf"], SEED, SCALE, traced=True)
    t = rep.tracer
    served = t.children("serve", "tenant.lookup")
    assert 0 < served == t.stat("tenant.lookup", in_request=(True,)).count
    assert t.stat("tenant.lookup", in_request=(False,)).count > 0  # the audit
    assert t.count("bloofi.tree_probes", in_request=(True,)) > 0


def test_wrapped_methods_are_restored():
    before = {(cls, attr): vars(cls)[attr] for cls, attr, _ in traced_methods()}
    run_rep(WORKLOADS["tenant-zipf"], SEED, SCALE, traced=True)
    assert {(c, a): vars(c)[a] for c, a in before} == before

    class Boom(RuntimeError):
        pass

    with pytest.raises(Boom):
        with Patcher() as patcher:
            Tracer().install(patcher)
            assert any(vars(c)[a] is not f for (c, a), f in before.items())
            raise Boom
    assert {(c, a): vars(c)[a] for c, a in before} == before


def _run(tmp_path: Path, *args: str) -> tuple[dict, dict]:
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "reshard-split",
         "--seed", "3", "--seconds", "0.1", "--scale", str(SCALE),
         "--out", str(out), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(out.read_text())


def test_command_prints_the_declared_metrics(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    line, result = _run(tmp_path)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values()
               if m["unit"] != "ms")  # simulated latency is 0 at this tiny scale
    traced_line, traced = _run(tmp_path, "--trace", "1")
    assert set(traced_line["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert traced_line["correct"] and traced["checks"]["traced_answers_identical"]
    assert traced_line["metrics"]["reshard.keys_moved"]["value"] > 0
    assert result["checks"]["migration_completed"]


def test_compare_reads_run_outputs(tmp_path):
    _line, result = _run(tmp_path)
    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(result))
    new.write_text(json.dumps([result]))
    proc = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), "--base", str(base), "--new", str(new)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [r.split() for r in proc.stdout.splitlines()[1:]]
    assert {r[1] for r in rows} >= {"goodput", "setup_s"}
    assert all(r[-1] == "ok" for r in rows)
