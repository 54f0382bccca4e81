"""``classify_trace`` (the exact bulk path) against per-request ``observe``.

Every check builds two identical policies, classifies a trace in one
``classify_trace`` call on the first and feeds the same trace through one
``observe`` per request on the second.  The contract is equality of the
outcome *and* of everything the policy leaves behind: residency with its
recency order, :attr:`stats` and, for LRU, the container's own counters.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies import (
    ARCPolicy,
    LFUPolicy,
    LRUPolicy,
    StaticFunctionalPolicy,
    TraceOutcome,
    TTLPolicy,
)


def file_ids(count):
    return [f"f{index}" for index in range(count)]


def run_twins(make_policy, ids, positions, warm=()):
    """Classify ``positions`` in bulk on one twin and per request on the other."""
    bulk, reference = make_policy(), make_policy()
    if warm:
        bulk.warm(warm)
        reference.warm(warm)
    positions = np.asarray(positions, dtype=np.int64)
    times = np.arange(positions.size, dtype=float)
    outcome = bulk.classify_trace(ids, positions, times)
    assert isinstance(outcome, TraceOutcome)
    observed = [
        reference.observe(ids[at], now=float(now))
        for at, now in zip(positions.tolist(), times.tolist())
    ]
    assert outcome.hit_mask.dtype == bool
    assert outcome.hit_mask.tolist() == [access.hit for access in observed]
    assert outcome.cached_chunks.tolist() == [access.cached_chunks for access in observed]
    assert outcome.promotions == sum(access.promoted for access in observed)
    assert outcome.evicted_chunks == sum(
        chunks for access in observed for _, chunks in access.evicted
    )
    assert_same_state(bulk, reference)
    return bulk, reference


def assert_same_state(bulk, reference):
    # Item order of the snapshot is the recency order (LRU first for LRU).
    assert list(bulk.occupancy().items()) == list(reference.occupancy().items())
    assert bulk.used_chunks == reference.used_chunks
    assert bulk.stats == reference.stats
    if isinstance(bulk, LRUPolicy):
        assert bulk._cache.stats == reference._cache.stats


@st.composite
def lru_cases(draw, uniform=False):
    count = draw(st.integers(min_value=1, max_value=8))
    ids = file_ids(count)
    if uniform:
        footprints = [draw(st.integers(min_value=1, max_value=4))] * count
    else:
        footprints = draw(st.lists(st.integers(1, 6), min_size=count, max_size=count))
    capacity = draw(st.integers(min_value=0, max_value=24))
    replication = draw(st.sampled_from([1, 2]))
    positions = draw(st.lists(st.integers(0, count - 1), max_size=80))
    warm = draw(st.lists(st.sampled_from(ids), max_size=count, unique=True))
    return ids, dict(zip(ids, footprints)), capacity, replication, positions, warm


class TestLRU:
    @settings(max_examples=150, deadline=None)
    @given(case=lru_cases())
    def test_matches_observe_with_non_uniform_footprints(self, case):
        ids, footprints, capacity, replication, positions, warm = case
        run_twins(
            lambda: LRUPolicy(capacity, footprints, replication=replication),
            ids,
            positions,
            warm,
        )

    @settings(max_examples=60, deadline=None)
    @given(case=lru_cases(uniform=True))
    def test_matches_observe_with_uniform_footprints(self, case):
        ids, footprints, capacity, replication, positions, warm = case
        run_twins(
            lambda: LRUPolicy(capacity, footprints, replication=replication),
            ids,
            positions,
            warm,
        )

    @settings(max_examples=40, deadline=None)
    @given(case=lru_cases(), more=st.lists(st.integers(0, 7), max_size=40))
    def test_consecutive_traces_carry_state(self, case, more):
        ids, footprints, capacity, replication, positions, warm = case
        second = [at % len(ids) for at in more]
        bulk, reference = run_twins(
            lambda: LRUPolicy(capacity, footprints, replication=replication),
            ids,
            positions,
            warm,
        )
        bulk.classify_trace(ids, np.asarray(second, dtype=np.int64), np.zeros(len(second)))
        for at in second:
            reference.observe(ids[at])
        assert_same_state(bulk, reference)

    # With replication 2 a 5-chunk object needs 10 of the 8 chunk units.
    @pytest.mark.parametrize("replication,huge", [(1, 9), (2, 5)])
    def test_oversized_object_is_a_clean_unpromoted_miss(self, replication, huge):
        footprints = {"small": 2, "huge": huge}
        bulk, _ = run_twins(
            lambda: LRUPolicy(8, footprints, replication=replication),
            ["small", "huge"],
            [0, 1, 0, 1, 1, 0],
        )
        assert bulk.lookup("huge") == 0
        assert bulk.stats.promotions == 1

    def test_zero_capacity(self):
        bulk, _ = run_twins(
            lambda: LRUPolicy(0, {"a": 1, "b": 2}), ["a", "b"], [0, 1, 0, 0, 1]
        )
        assert bulk.stats.hits == 0
        assert bulk.used_chunks == 0

    def test_empty_trace_changes_nothing(self):
        bulk, _ = run_twins(lambda: LRUPolicy(4, {"a": 2}), ["a"], [], warm=["a"])
        assert bulk.stats.reads == 0

    def test_unrequested_unknown_ids_are_ignored(self):
        policy = LRUPolicy(4, {"a": 2})
        outcome = policy.classify_trace(["a", "ghost"], np.array([0, 0]), np.zeros(2))
        assert outcome.hit_mask.tolist() == [False, True]

    def test_subclass_keeps_the_generic_path(self):
        class CountingLRU(LRUPolicy):
            def _on_hit(self, file_id, now):
                super()._on_hit(file_id, now)

        policy = CountingLRU(4, {"a": 2, "b": 2})
        policy.warm(["a"])
        assert policy.classify_trace(["a", "b"], np.array([0, 1]), np.zeros(2)) is None
        assert policy.stats.reads == 0
        assert list(policy.occupancy()) == ["a"]


@st.composite
def static_cases(draw):
    count = draw(st.integers(min_value=1, max_value=8))
    ids = file_ids(count)
    footprints = draw(st.lists(st.integers(1, 5), min_size=count, max_size=count))
    # Partial allocations d_i < k_i included.
    allocation = {
        file_id: draw(st.integers(0, footprint))
        for file_id, footprint in zip(ids, footprints)
    }
    capacity = sum(allocation.values()) + draw(st.integers(0, 3))
    positions = draw(st.lists(st.integers(0, count - 1), max_size=80))
    return ids, dict(zip(ids, footprints)), capacity, allocation, positions


class TestStaticFunctional:
    @settings(max_examples=120, deadline=None)
    @given(case=static_cases())
    def test_matches_observe(self, case):
        ids, footprints, capacity, allocation, positions = case
        run_twins(
            lambda: StaticFunctionalPolicy(capacity, footprints, allocation=allocation),
            ids,
            positions,
        )

    def test_partial_allocation_serves_its_chunks_on_a_miss(self):
        bulk, _ = run_twins(
            lambda: StaticFunctionalPolicy(6, {"a": 4, "b": 4}, allocation={"a": 4, "b": 2}),
            ["a", "b"],
            [0, 1, 1, 0],
        )
        outcome = bulk.classify_trace(["a", "b"], np.array([1, 0]), np.zeros(2))
        assert outcome.hit_mask.tolist() == [False, True]
        assert outcome.cached_chunks.tolist() == [2, 4]
        assert (outcome.promotions, outcome.evicted_chunks) == (0, 0)

    def test_zero_capacity(self):
        bulk, _ = run_twins(
            lambda: StaticFunctionalPolicy(0, {"a": 2, "b": 1}), ["a", "b"], [0, 1, 0]
        )
        assert bulk.stats.hits == 0

    def test_subclass_keeps_the_generic_path(self):
        class Custom(StaticFunctionalPolicy):
            pass

        policy = Custom(4, {"a": 2})
        assert policy.classify_trace(["a"], np.array([0]), np.zeros(1)) is None
        assert policy.stats.reads == 0


@pytest.mark.parametrize(
    "policy",
    [
        LFUPolicy(4, {"a": 2}),
        ARCPolicy(4, {"a": 2}),
        TTLPolicy(4, {"a": 2}, ttl=10.0),
    ],
    ids=["lfu", "arc", "ttl"],
)
def test_policies_without_a_bulk_path_return_none(policy):
    assert policy.classify_trace(["a"], np.array([0, 0]), np.zeros(2)) is None
    assert policy.stats.reads == 0
