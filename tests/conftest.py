"""Shared fixtures and pinned hypothesis profiles for the test suite.

Hypothesis profiles (selected with ``REPRO_HYPOTHESIS_PROFILE``, one env
var — no other switches):

* ``default`` — what local ``pytest`` runs use: modest example counts,
  no deadline (simulated-I/O tests are CPU-bound and deadline flake is
  noise, not signal).
* ``ci`` — what CI exports: derandomized, so a red CI run replays
  *identically* with ``REPRO_HYPOTHESIS_PROFILE=ci pytest <failing
  test>`` — the printed falsifying example is the whole repro.
* ``thorough`` — 10× examples for manual deep runs.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.workloads.synthetic import disjoint_key_sets

settings.register_profile("default", max_examples=50, deadline=None)
settings.register_profile(
    "ci", max_examples=50, deadline=None, derandomize=True, print_blob=True
)
settings.register_profile("thorough", max_examples=500, deadline=None)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def small_keys():
    """500 member keys + 2000 disjoint negatives (session-cached)."""
    return disjoint_key_sets(500, 2000, seed=7)


@pytest.fixture(scope="session")
def medium_keys():
    """4096 member keys + 20000 disjoint negatives (session-cached)."""
    return disjoint_key_sets(4096, 20000, seed=11)


def measured_fpr(filt, negatives) -> float:
    """Fraction of negatives a filter wrongly accepts."""
    hits = sum(1 for key in negatives if filt.may_contain(key))
    return hits / len(negatives)


def registry_count(registry, name: str, **labels) -> int:
    """Counter *name* summed over its series matching *labels*."""
    metric = registry.get(name)
    if metric is None:
        return 0
    return sum(child.value for values, child in metric.series()
               if all(values[k] == v for k, v in labels.items()))
