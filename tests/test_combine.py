"""The one-sided combine rule (``repro.common.clock.combine``), proved once.

Every serving fan-out answers through ``combine``: the sharded store's
double read, the replica quorum and the Bloofi tenant fleet.  These
properties hold for any evidence, so they hold for every layer; what
each layer adds is the invariant behind the no-false-negative property,
that for a stored key every eligible source that completes answers
PRESENT.  The layers' own suites check that invariant through faults,
crashes, migrations and churn (tests/test_reshard.py,
tests/test_replica.py, tests/test_tenant.py).
"""

from __future__ import annotations

import dataclasses
import math

from hypothesis import given
from hypothesis import strategies as st

from repro.common.clock import Answer, LookupResult, combine

# Weighted towards complete, eligible ABSENTs so that quorums are often
# met exactly, missed by one, or overtaken by a PRESENT.
_mostly = st.sampled_from([True, True, False])
_results = st.builds(
    LookupResult,
    state=st.sampled_from([Answer.ABSENT, Answer.ABSENT, Answer.PRESENT, Answer.MAYBE]),
    value=st.none() | st.integers(0, 9),
    complete=_mostly,
    reason=st.sampled_from([None, "deadline", "unavailable", "quorum"]),
    runs_probed=st.integers(0, 5),
    runs_skipped=st.integers(0, 5),
)


@st.composite
def _cases(draw):
    """Evidence ``[(result, eligible), ...]`` and ``1 <= need <= len``."""
    evidence = draw(st.lists(st.tuples(_results, _mostly), min_size=1, max_size=8))
    return evidence, draw(st.integers(1, len(evidence)))


class _Counted:
    """An iterator over *items* that counts its ``next()`` calls."""

    def __init__(self, items):
        self._items = iter(items)
        self.calls = 0

    def __iter__(self):
        return self

    def __next__(self):
        self.calls += 1
        return next(self._items)


def _run(evidence, need):
    source = _Counted(evidence)
    result = combine(source, need)
    return result, source.calls


def _complete(result, state):
    return result.complete and result.state is state


def _first_present(evidence) -> float:
    return next(
        (i for i, (r, _e) in enumerate(evidence) if _complete(r, Answer.PRESENT)), math.inf
    )


def _nth_absent(evidence, need) -> float:
    """Index of the need-th complete ABSENT from an eligible source."""
    at = [i for i, (r, e) in enumerate(evidence) if e and _complete(r, Answer.ABSENT)]
    return at[need - 1] if len(at) >= need else math.inf


@given(_cases())
def test_absent_needs_a_full_quorum_and_no_present(case):
    evidence, need = case
    result, calls = _run(evidence, need)
    if result.state is Answer.ABSENT:
        consumed = evidence[:calls]
        assert sum(1 for r, e in consumed if e and _complete(r, Answer.ABSENT)) >= need
        assert not any(_complete(r, Answer.PRESENT) for r, _e in consumed)
        assert result.complete and result.value is None


@given(_cases())
def test_present_iff_a_complete_present_precedes_the_quorum(case):
    evidence, need = case
    result, _calls = _run(evidence, need)
    first = _first_present(evidence)
    assert (result.state is Answer.PRESENT) == (first < _nth_absent(evidence, need))
    if result.state is Answer.PRESENT:
        assert result.complete and result.value == evidence[first][0].value


@given(_cases())
def test_maybe_reason_precedence_and_best_effort_value(case):
    evidence, need = case
    result, _calls = _run(evidence, need)
    if result.state is not Answer.MAYBE:
        return
    reasons = [r.reason for r, _e in evidence if not r.complete]
    if "deadline" in reasons:
        assert result.reason == "deadline"
    elif reasons:
        assert result.reason == "unavailable"
    else:
        assert result.reason == "quorum"
    assert not result.complete
    assert result.value == next((r.value for r, _e in evidence if r.value is not None), None)


@given(_cases())
def test_nothing_is_consumed_past_the_deciding_source(case):
    evidence, need = case
    result, calls = _run(evidence, need)
    decider = min(_first_present(evidence), _nth_absent(evidence, need))
    if result.state is Answer.MAYBE:
        assert decider == math.inf
        assert calls == len(evidence) + 1  # every source, then exhaustion
    else:
        assert calls == decider + 1
    consumed = [r for r, _e in evidence[: min(calls, len(evidence))]]
    assert result.runs_probed == sum(r.runs_probed for r in consumed)
    assert result.runs_skipped == sum(r.runs_skipped for r in consumed)


@given(_cases())
def test_weakening_a_source_never_resolves_a_maybe(case):
    evidence, need = case
    if _run(evidence, need)[0].state is not Answer.MAYBE:
        return
    for i, (result, eligible) in enumerate(evidence):
        for weaker in (
            (dataclasses.replace(result, complete=False), eligible),
            (result, False),
        ):
            weakened = [*evidence[:i], weaker, *evidence[i + 1:]]
            assert _run(weakened, need)[0].state is Answer.MAYBE


@given(_cases())
def test_no_false_negative_when_every_eligible_completion_is_present(case):
    evidence, need = case
    stored = [
        (dataclasses.replace(r, state=Answer.PRESENT) if e and r.complete else r, e)
        for r, e in evidence
    ]
    assert _run(stored, need)[0].state is not Answer.ABSENT
