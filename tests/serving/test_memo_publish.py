"""Publish on change, per-entry records and thread safety of the tier."""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocks.to_sql import block_to_sql
from repro.serving import PlannerCache, ServingClient
from repro.serving.memo import (
    _HEADER,
    LocalMemoTier,
    SharedMemoTier,
    encode_record,
)
from repro.serving.worker import COLD, WARM_LOCAL, WARM_SHARED
from repro.service.requests import RewriteRequest
from repro.workloads import star

from .conftest import running_daemon


class SpyTier(LocalMemoTier):
    """A local tier that records every publish."""

    def __init__(self, capacity: int = 4 * 1024 * 1024):
        super().__init__(capacity)
        self.published: list[tuple] = []

    def publish(self, key, view_names, memo):
        self.published.append(key)
        return super().publish(key, view_names, memo)


@pytest.fixture(scope="module")
def workload():
    return star.generate(n_sales=50)


def request_for(workload, name, **kwargs):
    return RewriteRequest(
        query=workload.queries[name], catalog=workload.catalog, **kwargs
    )


def assert_accounting(tier):
    """The running byte total is the encoded size of what the tier holds."""
    keys = tier.keys()
    encoded = sum(len(encode_record(key, tier.lookup(key))) for key in keys)
    assert tier.payload_bytes == encoded
    assert tier.payload_bytes <= tier.capacity
    if isinstance(tier, SharedMemoTier):
        _magic, generation, _epoch, length = _HEADER.unpack_from(
            tier._shm.buf, 0
        )
        assert generation % 2 == 0
        assert length == tier.payload_bytes


# ----------------------------------------------------------------------
# PlannerCache: exports only when the planner's memo gained entries


def test_warm_request_adding_nothing_exports_nothing(workload):
    cache = PlannerCache(LocalMemoTier())
    *_, export, path = cache.run(request_for(workload, "category_revenue"))
    assert path == COLD and export
    *_, export, path = cache.run(request_for(workload, "category_revenue"))
    assert path == WARM_LOCAL
    assert export == []


def test_request_adding_entries_exports_again(workload):
    cache = PlannerCache(LocalMemoTier())
    *_, first, _path = cache.run(request_for(workload, "category_revenue"))
    cache.run(request_for(workload, "category_revenue"))
    # Same fingerprint, new query: the substitution memo grows.
    *_, second, path = cache.run(request_for(workload, "monthly_volume"))
    assert path == WARM_LOCAL
    assert len(second) > len(first)
    # A strategy family growing counts too.
    *_, third, _path = cache.run(
        request_for(workload, "monthly_volume"), "both"
    )
    assert any(len(item) == 3 for item in third)
    *_, fourth, _path = cache.run(
        request_for(workload, "monthly_volume"), "both"
    )
    assert fourth == []


def test_shared_import_does_not_republish(workload):
    tier = LocalMemoTier()
    cache = PlannerCache(tier)
    _r, key, view_names, export, _p = cache.run(
        request_for(workload, "category_revenue")
    )
    tier.publish(key, view_names, export)
    tier.invalidate_views(["NotAView"])  # epoch moves, entry survives
    *_, again, path = cache.run(request_for(workload, "category_revenue"))
    assert path == WARM_SHARED
    assert again == []
    # Another process's cache warm-starts from the tier the same way.
    *_, other, path = PlannerCache(tier).run(
        request_for(workload, "category_revenue")
    )
    assert path == WARM_SHARED
    assert other == []


# ----------------------------------------------------------------------
# The daemon publishes only non-empty exports, into the tier it was given


def test_daemon_publishes_on_change_only(workload):
    tier = SpyTier()  # empty, hence falsy: the daemon must still use it
    hot = block_to_sql(workload.queries["category_revenue"])
    other = block_to_sql(workload.queries["monthly_volume"])
    with running_daemon(
        workload.catalog, database=workload.database, memo_tier=tier
    ) as daemon:
        assert daemon.memo is tier
        assert daemon.memo.name is None
        with ServingClient.connect(("127.0.0.1", daemon.tcp_port)) as client:
            for _ in range(3):
                assert client.rewrite(hot)["ok"] is True
            assert len(tier.published) == 1
            assert client.rewrite(other)["ok"] is True
            assert len(tier.published) == 2
            assert client.rewrite(other)["ok"] is True
            assert len(tier.published) == 2


# ----------------------------------------------------------------------
# Record accounting


def _tier(shared: bool, capacity: int):
    return SharedMemoTier(capacity=capacity) if shared else LocalMemoTier(
        capacity=capacity
    )


_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("publish"),
            st.integers(0, 7),
            st.sets(st.sampled_from("ABC"), min_size=1),
            st.integers(0, 400),
        ),
        st.tuples(st.just("invalidate"), st.sets(st.sampled_from("ABCD"))),
        st.tuples(st.just("clear")),
    ),
    max_size=30,
)


@pytest.mark.parametrize("shared", [False, True], ids=["local", "shared"])
@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
def test_running_total_equals_encoded_size(shared, ops):
    # 2 KiB holds a few small entries; the largest memos (400 ints) do
    # not fit at all, so capacity eviction and refusal both occur.
    tier = _tier(shared, 2048)
    try:
        for op in ops:
            if op[0] == "publish":
                _name, key, views, size = op
                tier.publish(("k", key), sorted(views), list(range(size)))
            elif op[0] == "invalidate":
                tier.invalidate_views(op[1])
            else:
                tier.clear()
            assert_accounting(tier)
        if shared:
            reader = SharedMemoTier.attach(tier.name)
            try:
                assert reader.keys() == tier.keys()
                for key in tier.keys():
                    assert reader.lookup(key) == tier.lookup(key)
            finally:
                reader.close()
    finally:
        tier.close()
        tier.unlink()


def test_oversized_entry_keeps_the_rest():
    tier = LocalMemoTier(capacity=2048)
    tier.publish(("small",), ("V0",), [1, 2, 3])
    tier.publish(("big",), ("V0",), list(range(5000)))
    assert tier.lookup(("big",)) is None
    assert tier.lookup(("small",)) is not None
    assert_accounting(tier)


# ----------------------------------------------------------------------
# Publish (event loop) racing invalidation (update thread) and lookup


@pytest.mark.parametrize("shared", [False, True], ids=["local", "shared"])
def test_publish_invalidate_and_lookup_race(shared):
    # One thread publishes (the event loop), one invalidates (the update
    # thread) and one reads (the serial worker), more threads than the
    # CI hosts have cores. Threads switch as often as the interpreter
    # allows, so unguarded iteration over the entry dict, or a lost
    # update of the running byte total, would be caught.
    rounds = 1500
    tier = _tier(shared, 16 * 1024)
    errors: list[BaseException] = []
    start = threading.Barrier(3)

    def guarded(body):
        def run():
            start.wait()
            try:
                body()
            except Exception as error:  # surfaced below
                errors.append(error)

        return threading.Thread(target=run, daemon=True)

    def publisher():
        for i in range(rounds):
            tier.publish(("k", i % 48), (f"V{i % 5}",), list(range(i % 40)))

    def invalidator():
        for i in range(rounds):
            tier.invalidate_views([f"V{i % 5}", f"V{(i + 2) % 5}"])

    def reader():
        for i in range(rounds):
            tier.lookup(("k", i % 48))
            tier.keys()

    threads = [guarded(publisher), guarded(invalidator), guarded(reader)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    try:
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert tier.epoch() == rounds
        assert_accounting(tier)
    finally:
        tier.close()
        tier.unlink()
