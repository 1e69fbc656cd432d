"""Exporters: Prometheus text format, JSON snapshot, human table, selftest.

Three views of one :class:`~repro.obs.metrics.MetricsRegistry`:

* :func:`to_prometheus` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` headers, cumulative ``_bucket{le=...}``
  histogram series), parseable back with :func:`parse_prometheus`.
* :func:`to_json` / :func:`from_json` — a lossless snapshot that
  round-trips through :func:`~repro.obs.metrics.registry_from_snapshot`.
* :func:`render_table` — what ``python -m repro stats`` prints: one row
  per series, histograms summarised as count/sum/p50/p90/p99.

:func:`selftest` is the CI gate (``python -m repro stats --selftest``):
it exercises duplicate-registration detection, name validation, and both
exporter round-trips, and audits a live registry's names.
"""

from __future__ import annotations

import json
import math

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    declared_families,
    registry_from_snapshot,
    validate_label_name,
    validate_metric_name,
)


def _fmt_value(value: float) -> str:
    if isinstance(value, float):
        if value != value:  # nan
            return "NaN"
        if value in (float("inf"), float("-inf")):
            return "+Inf" if value > 0 else "-Inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_str(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in merged.items())
    return "{" + inner + "}"


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render every series in the Prometheus text exposition format."""
    lines: list[str] = []
    for metric in registry.metrics():
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        for labelvals, child in metric.series():
            if isinstance(metric, Histogram):
                cumulative = 0
                for bound, count in zip(metric.bounds, child.counts):
                    cumulative += count
                    le = _label_str(labelvals, {"le": _fmt_value(float(bound))})
                    lines.append(f"{metric.name}_bucket{le} {cumulative}")
                cumulative += child.counts[-1]
                le = _label_str(labelvals, {"le": "+Inf"})
                lines.append(f"{metric.name}_bucket{le} {cumulative}")
                ls = _label_str(labelvals)
                lines.append(f"{metric.name}_sum{ls} {_fmt_value(child.sum)}")
                lines.append(f"{metric.name}_count{ls} {child.count}")
            else:
                lines.append(
                    f"{metric.name}{_label_str(labelvals)} {_fmt_value(child.value)}"
                )
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> dict[str, dict[tuple[tuple[str, str], ...], float]]:
    """Parse exposition text back into ``{name: {labels-items: value}}``.

    Supports exactly what :func:`to_prometheus` emits (one sample per
    line, quoted label values) — enough for round-trip verification and
    for scraping our own output in tests.
    """
    samples: dict[str, dict[tuple[tuple[str, str], ...], float]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "{" in line:
            name, rest = line.split("{", 1)
            labelpart, valuepart = rest.rsplit("}", 1)
            labels = []
            for item in _split_labels(labelpart):
                key, value = item.split("=", 1)
                value = value.strip()[1:-1]  # strip quotes
                labels.append(
                    (key.strip(), value.replace('\\"', '"').replace("\\\\", "\\"))
                )
            key = tuple(sorted(labels))
            value_str = valuepart.strip()
        else:
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"unparseable exposition line: {raw!r}")
            name, value_str = parts
            key = ()
        value = float("inf") if value_str == "+Inf" else float(value_str)
        samples.setdefault(name.strip(), {})[key] = value
    return samples


def _split_labels(labelpart: str) -> list[str]:
    """Split ``a="x",b="y,z"`` on commas outside quotes."""
    items, depth, start = [], False, 0
    for i, ch in enumerate(labelpart):
        if ch == '"' and (i == 0 or labelpart[i - 1] != "\\"):
            depth = not depth
        elif ch == "," and not depth:
            items.append(labelpart[start:i])
            start = i + 1
    if labelpart[start:].strip():
        items.append(labelpart[start:])
    return items


def flat_samples(registry: MetricsRegistry) -> dict[str, dict[tuple[tuple[str, str], ...], float]]:
    """The registry's samples in :func:`parse_prometheus`'s shape —
    the two sides a round-trip test compares."""
    out: dict[str, dict[tuple[tuple[str, str], ...], float]] = {}

    def put(name: str, labels: dict[str, str], extra: dict[str, str], value: float):
        key = tuple(sorted({**labels, **extra}.items()))
        out.setdefault(name, {})[key] = float(value)

    for metric in registry.metrics():
        for labelvals, child in metric.series():
            if isinstance(metric, Histogram):
                cumulative = 0
                for bound, count in zip(metric.bounds, child.counts):
                    cumulative += count
                    put(metric.name + "_bucket", labelvals,
                        {"le": _fmt_value(float(bound))}, cumulative)
                put(metric.name + "_bucket", labelvals, {"le": "+Inf"},
                    cumulative + child.counts[-1])
                put(metric.name + "_sum", labelvals, {}, child.sum)
                put(metric.name + "_count", labelvals, {}, child.count)
            else:
                put(metric.name, labelvals, {}, child.value)
    return out


# -- JSON ---------------------------------------------------------------------------


def to_json(registry: MetricsRegistry, indent: int | None = 2) -> str:
    """Lossless JSON dump of the registry (see ``from_json``)."""
    return json.dumps(registry.snapshot(), indent=indent, sort_keys=True)


def from_json(text: str) -> MetricsRegistry:
    """Rebuild a registry from :func:`to_json` output."""
    return registry_from_snapshot(json.loads(text))


# -- human table --------------------------------------------------------------------


def render_table(registry: MetricsRegistry, title: str = "metrics") -> str:
    """One row per series; histograms summarised with count/sum/quantiles."""
    rows: list[tuple[str, str]] = []
    for metric in registry.metrics():
        for labelvals, child in metric.series():
            name = metric.name + _label_str(labelvals)
            if isinstance(metric, Histogram):
                value = (
                    f"count={child.count} sum={_round(child.sum)} "
                    f"p50={_round(child.quantile(0.5))} "
                    f"p90={_round(child.quantile(0.9))} "
                    f"p99={_round(child.quantile(0.99))}"
                )
            else:
                value = _fmt_value(child.value)
            rows.append((name, value))
    width = max((len(name) for name, _ in rows), default=len(title))
    lines = [f"# {title}", f"{'metric'.ljust(width)}  value", f"{'-' * width}  -----"]
    for name, value in rows:
        lines.append(f"{name.ljust(width)}  {value}")
    return "\n".join(lines)


def _round(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == 0:
        return "0"
    if abs(value) < 0.001 or abs(value) >= 1e6:
        return f"{value:.3g}"
    return f"{value:.6g}"


# -- selftest -----------------------------------------------------------------------


def selftest(registry: MetricsRegistry | None = None) -> list[str]:
    """Exporter/registry invariants check; returns a list of failures.

    Run by CI as ``python -m repro stats --selftest``.  Checks, against a
    scratch registry: duplicate registration across types raises; invalid
    Prometheus metric and label names are rejected; histogram bounds are
    strictly increasing; the Prometheus exporter's output parses back to
    exactly the registry's samples; the JSON exporter round-trips to an
    identical snapshot.  When *registry* is given, additionally audits
    every registered name and label name in it, that each of its
    families is declared by a :class:`~repro.obs.metrics.Handles`
    subclass, and that no family name is declared twice.
    """
    failures: list[str] = []

    scratch = MetricsRegistry()
    c = scratch.counter("repro_selftest_events_total", "events", labels=("kind",))
    c.labels(kind="a").inc(3)
    c.labels(kind="b").inc()
    scratch.gauge("repro_selftest_level", "level").set(0.25)
    h = scratch.histogram("repro_selftest_seconds", "latency")
    for v in (1e-6, 3e-5, 0.002, 0.002, 1.5):
        h.observe(v)

    try:
        scratch.gauge("repro_selftest_events_total")
    except MetricError:
        pass
    else:
        failures.append("duplicate registration across types was not rejected")
    try:
        scratch.counter("repro_selftest_events_total", labels=("other",))
    except MetricError:
        pass
    else:
        failures.append("re-registration with different labels was not rejected")
    for bad in ("0bad", "has space", "", "dash-ed"):
        try:
            validate_metric_name(bad)
        except MetricError:
            pass
        else:
            failures.append(f"invalid metric name {bad!r} was accepted")
    try:
        validate_label_name("__reserved")
    except MetricError:
        pass
    else:
        failures.append("reserved label name '__reserved' was accepted")
    try:
        scratch.histogram("repro_selftest_bad_buckets", buckets=(1.0, 1.0, 2.0))
    except MetricError:
        pass
    else:
        failures.append("non-increasing histogram buckets were accepted")

    parsed = parse_prometheus(to_prometheus(scratch))
    if parsed != flat_samples(scratch):
        failures.append("Prometheus exposition did not round-trip")
    if from_json(to_json(scratch)).snapshot() != scratch.snapshot():
        failures.append("JSON snapshot did not round-trip")

    if registry is not None:
        declared = declared_families()
        for name, classes in sorted(declared.items()):
            if len(classes) > 1:
                owners = ", ".join(f"{c.__module__}.{c.__name__}" for c in classes)
                failures.append(f"{name} declared by more than one Handles subclass: {owners}")
        seen: set[str] = set()
        for metric in registry.metrics():
            if metric.name not in declared:
                failures.append(f"{metric.name} is declared by no Handles subclass")
            try:
                validate_metric_name(metric.name)
                for label in metric.labelnames:
                    validate_label_name(label)
            except MetricError as exc:
                failures.append(str(exc))
            if metric.name in seen:  # registry should make this impossible
                failures.append(f"{metric.name} registered twice")
            seen.add(metric.name)
            for labelvals, child in metric.series():
                if isinstance(metric, Histogram):
                    if child.count != sum(child.counts):
                        failures.append(
                            f"{metric.name}{labelvals}: bucket counts do not sum to count"
                        )
                elif isinstance(metric, (Counter, Gauge)) and isinstance(
                    child.value, float
                ) and math.isnan(child.value):
                    failures.append(f"{metric.name}{labelvals}: NaN sample")
    return failures
