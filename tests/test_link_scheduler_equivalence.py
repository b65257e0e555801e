"""Property test: the optimized LinkScheduler equals the from-scratch reference.

Every acceleration inside :class:`repro.simnet.network.LinkScheduler` — the
commit-maintained backlog index with its lazily grown tail sums, the
tail-append fast path, the running totals — must be invisible: randomized
transfer workloads driven through the optimized scheduler and through
:class:`repro.simnet.reference.ReferenceLinkScheduler` have to produce
bit-identical placements, backlog readings and queued/wire-time totals, with
and without fault windows installed.  Exact ``==`` throughout; no tolerances.
"""

from __future__ import annotations

import random

import pytest

from repro.simnet.network import LinkScheduler, NetworkLink, NetworkModel
from repro.simnet.reference import ReferenceLinkScheduler


def _build_pair(seed: int, num_endpoints: int, max_capacity: int, latency_s: float = 0.002):
    rng = random.Random(seed)
    network = NetworkModel(
        default_link=NetworkLink(latency_s=latency_s, bandwidth_bytes_per_s=50e6)
    )
    endpoints = [f"e{i}" for i in range(num_endpoints)]
    capacities = {name: rng.randint(1, max_capacity) for name in endpoints}
    fast = LinkScheduler(network, capacities=dict(capacities))
    slow = ReferenceLinkScheduler(network, capacities=dict(capacities))
    return rng, endpoints, fast, slow


def _random_workload(rng, endpoints, fast, slow, operations: int, empty_share: float = 0.0):
    """Drive both schedulers through one interleaved random op stream.

    ``empty_share`` of the transfers carry no bytes (zero wire time on a
    zero-latency network).
    """
    now = 0.0
    for _ in range(operations):
        op = rng.random()
        source = rng.choice(endpoints)
        destination = rng.choice(endpoints)
        num_bytes = rng.randint(1, 60_000_000)
        if empty_share and rng.random() < empty_share:
            num_bytes = 0
        # Mostly forward-moving time with occasional jumps back, so both the
        # tail-append fast path and the into-the-schedule placements run.
        now = max(0.0, now + rng.uniform(-2.0, 6.0))
        floor = now + rng.uniform(0.0, 3.0) if rng.random() < 0.3 else None
        if op < 0.35:
            a = fast.estimate(source, destination, num_bytes, now)
            b = slow.estimate(source, destination, num_bytes, now)
            assert a == b
            # A pure query changes nothing: asked again, it answers the same.
            assert fast.estimate(source, destination, num_bytes, now) == a
        elif op < 0.5:
            a = fast.preview(source, destination, num_bytes, now, earliest_start=floor)
            b = slow.preview(source, destination, num_bytes, now, earliest_start=floor)
            assert a == b
        elif op < 0.65:
            probe = rng.choice(endpoints)
            at = max(0.0, now + rng.uniform(-4.0, 4.0))
            assert fast.outstanding_backlog(probe, at) == slow.outstanding_backlog(probe, at)
        else:
            a = fast.transfer(source, destination, num_bytes, now, earliest_start=floor)
            b = slow.transfer(source, destination, num_bytes, now, earliest_start=floor)
            assert a == b
        assert fast.total_queued_time == slow.total_queued_time
        assert fast.total_wire_time == slow.total_wire_time


def _install_random_faults(rng, endpoints, schedulers):
    """0-3 outage windows per endpoint and one partition, on every scheduler."""
    outages = {}
    for endpoint in endpoints:
        starts = [rng.uniform(0.0, 600.0) for _ in range(rng.randint(0, 3))]
        outages[endpoint] = [(start, start + rng.uniform(0.5, 25.0)) for start in starts]
    partition = [(start, start + rng.uniform(5.0, 40.0)) for start in (100.0, 400.0)]
    for scheduler in schedulers:
        for endpoint, windows in outages.items():
            scheduler.set_outages(endpoint, windows)
        # Odd endpoints sit at a second site; the even ones are their own.
        for endpoint in endpoints[1::2]:
            scheduler.set_site(endpoint, "site-odd")
        scheduler.set_partition(endpoints[0], "site-odd", partition)


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
@pytest.mark.parametrize("seed", range(8))
def test_randomized_equivalence(seed, faulted):
    rng, endpoints, fast, slow = _build_pair(seed, num_endpoints=5, max_capacity=4)
    if faulted:
        _install_random_faults(rng, endpoints, (fast, slow))
    _random_workload(rng, endpoints, fast, slow, operations=220)
    assert fast.log == slow.log
    for endpoint in endpoints:
        assert fast.busy_intervals(endpoint) == slow.busy_intervals(endpoint)


@pytest.mark.parametrize("seed", range(4))
def test_zero_length_transfers_match_the_reference(seed):
    """Zero-length placements inside saturated blocks, clean and faulted."""
    rng, endpoints, fast, slow = _build_pair(seed, num_endpoints=4, max_capacity=3, latency_s=0.0)
    if seed % 2:
        _install_random_faults(rng, endpoints, (fast, slow))
    _random_workload(rng, endpoints, fast, slow, operations=220, empty_share=0.3)
    assert fast.log == slow.log


def test_serial_only_equivalence():
    """All-serial endpoints exercise the capacity-1 placement path."""
    rng, endpoints, fast, slow = _build_pair(seed=99, num_endpoints=4, max_capacity=1)
    _random_workload(rng, endpoints, fast, slow, operations=200)
    assert fast.log == slow.log


@pytest.mark.parametrize("seed", range(4))
def test_backlog_probes_between_commits_match_the_reference(seed):
    """The commit-maintained backlog index under the probe pattern it serves.

    After every commit the same endpoints are probed several times at
    *decreasing* ``at`` — past the timeline, at its end, inside it, on an
    interval start, before it — so each probe has to extend the lazy tail
    sums further back than the previous one did.  The commits alternate
    appends with mid-timeline inserts (a backwards ``now`` jump, then an
    ``earliest_start`` floor) on a capacity-1 and a capacity-3 endpoint, so
    the running max of ends is fixed up forward and the tail sums truncated
    at every position.
    """
    rng = random.Random(seed)
    network = NetworkModel(
        default_link=NetworkLink(latency_s=0.002, bandwidth_bytes_per_s=50e6)
    )
    capacities = {"serial": 1, "wide": 3}
    fast = LinkScheduler(network, capacities=dict(capacities))
    slow = ReferenceLinkScheduler(network, capacities=dict(capacities))
    endpoints = ["c0", "c1", "serial", "wide"]
    now = 0.0
    for step in range(150):
        floor = None
        if step % 3 == 0:
            now += rng.uniform(0.0, 4.0)
            at = now
        elif step % 3 == 1:
            at = max(0.0, now - rng.uniform(1.0, 15.0))
        else:
            at = max(0.0, now - rng.uniform(0.0, 10.0))
            floor = at + rng.uniform(0.0, 6.0)
        source = rng.choice(endpoints)
        destination = rng.choice(["serial", "wide"])
        num_bytes = rng.randint(1, 60_000_000)
        assert fast.transfer(source, destination, num_bytes, at, earliest_start=floor) == (
            slow.transfer(source, destination, num_bytes, at, earliest_start=floor)
        )
        timeline = fast.busy_intervals(destination)
        horizon = max(end for _, end in timeline)
        probes = [horizon + 5.0, horizon]
        probes += sorted((rng.uniform(0.0, horizon) for _ in range(4)), reverse=True)
        probes += [0.0, rng.choice(timeline)[0]]
        for endpoint in endpoints:
            for probe in probes:
                assert fast.outstanding_backlog(endpoint, probe) == (
                    slow.outstanding_backlog(endpoint, probe)
                ), (step, endpoint, probe)
        assert fast.total_queued_time == slow.total_queued_time
        assert fast.total_wire_time == slow.total_wire_time
    assert fast.log == slow.log
    for endpoint in endpoints:
        assert fast.busy_intervals(endpoint) == slow.busy_intervals(endpoint)


def test_transfer_commits_the_previewed_slot():
    """The estimate-then-transfer pattern commits exactly the previewed slot."""
    network = NetworkModel()
    fast = LinkScheduler(network, capacities={"storage": 2})
    planned = fast.preview("c0", "storage", 10_000_000, 5.0)
    committed = fast.transfer("c0", "storage", 10_000_000, 5.0)
    assert committed == planned
    # A new query after the commit replans against the grown schedule.
    assert fast.preview("c1", "storage", 10_000_000, 5.0).started_at >= 5.0


def test_capacity_change_keeps_fast_and_reference_equal():
    fast = LinkScheduler(NetworkModel())
    slow = ReferenceLinkScheduler(NetworkModel())
    for sched in (fast, slow):
        sched.transfer("a", "b", 30_000_000, 0.0)
    before_fast = fast.estimate("a", "b", 30_000_000, 0.0)
    before_slow = slow.estimate("a", "b", 30_000_000, 0.0)
    assert before_fast == before_slow
    for sched in (fast, slow):
        sched.set_capacity("c", 3)
        sched.transfer("a", "c", 30_000_000, 0.0)
    assert fast.estimate("a", "b", 30_000_000, 0.0) == slow.estimate("a", "b", 30_000_000, 0.0)


def test_running_totals_match_log_sums():
    rng, endpoints, fast, _ = _build_pair(seed=7, num_endpoints=3, max_capacity=3)
    now = 0.0
    for _ in range(150):
        now += rng.uniform(0.0, 2.0)
        fast.transfer(rng.choice(endpoints), rng.choice(endpoints), rng.randint(1, 40_000_000), now)
    assert fast.total_queued_time == sum(t.queued_time for t in fast.log)
    assert fast.total_wire_time == sum(t.duration for t in fast.log)


# ------------------------------------------------ the sweep from the request
# A wide (capacity > 1) endpoint's saturation sweep starts at the request
# time; the reference sweeps its whole history.  One megabyte is one second
# on the zero-latency link below, and every transfer comes from its own
# serial source, so only the wide endpoint can hold a placement back.


def _window_pair(**capacities):
    network = NetworkModel(default_link=NetworkLink(latency_s=0.0, bandwidth_bytes_per_s=1e6))
    return LinkScheduler(network, capacities=dict(capacities)), ReferenceLinkScheduler(
        network, capacities=dict(capacities)
    )


def _same(pair, action, *args, **kwargs):
    """Run one scheduler call on both; they must agree exactly."""
    fast, slow = pair
    answer = getattr(fast, action)(*args, **kwargs)
    assert answer == getattr(slow, action)(*args, **kwargs), (action, args, kwargs)
    return answer


def _load(pair, destination, spans):
    """Commit ``(at, seconds)`` transfers into ``destination``, one source each."""
    for i, (at, seconds) in enumerate(spans):
        _same(pair, "transfer", f"src{len(pair[0].log)}-{i}", destination, int(seconds * 1e6), at)


def _probe(pair, destination, at, seconds_options=(0.0, 0.5, 2.0, 7.0)):
    """Preview and estimate every duration at ``at``; returns the starts."""
    starts = []
    for seconds in seconds_options:
        planned = _same(pair, "preview", "probe", destination, int(seconds * 1e6), at)
        _same(pair, "estimate", "probe", destination, int(seconds * 1e6), at)
        starts.append(planned.started_at)
    return starts


def test_window_request_exactly_on_a_boundary_time():
    pair = _window_pair(wide=2)
    _load(pair, "wide", [(0.0, 4.0), (1.0, 5.0), (4.0, 3.0), (6.0, 2.0)])
    boundaries = sorted({t for start, end in pair[0].busy_intervals("wide") for t in (start, end)})
    for at in boundaries:
        _probe(pair, "wide", at)
    # The bytes at a boundary commit the same slot too.
    _same(pair, "transfer", "late", "wide", 1_500_000, 4.0)
    assert pair[0].log == pair[1].log


def test_window_saturated_block_straddling_the_request():
    pair = _window_pair(wide=2)
    _load(pair, "wide", [(0.0, 10.0), (2.0, 6.0), (12.0, 1.0)])
    # Saturated over [2, 8): a request at 5 waits for the block's end.
    assert _probe(pair, "wide", 5.0) == [8.0, 8.0, 8.0, 8.0]
    _same(pair, "transfer", "mid", "wide", 3_000_000, 5.0)
    # Placed at 8, so now saturated over [2, 8) and [8, 10): a request at 9,
    # a zero-length one included, waits for 10.
    assert _probe(pair, "wide", 9.0) == [10.0, 10.0, 10.0, 10.0]
    assert pair[0].log == pair[1].log


def test_window_block_ending_exactly_at_the_request():
    pair = _window_pair(wide=2)
    _load(pair, "wide", [(0.0, 5.0), (1.0, 4.0), (5.0, 3.0)])
    # Saturated over [1, 5) only: at t = 5 one slot is taken, one is free.
    assert _probe(pair, "wide", 5.0) == [5.0, 5.0, 5.0, 5.0]
    _same(pair, "transfer", "edge", "wide", 2_000_000, 5.0)
    # Now a block opens at t = 5 itself: [5, 7).  A zero-length transfer at
    # its very start still fits; anything longer waits for 7.
    assert _probe(pair, "wide", 5.0) == [5.0, 7.0, 7.0, 7.0]


def test_window_capacity_raised_after_traffic():
    pair = _window_pair()
    _load(pair, "wide", [(0.0, 3.0), (0.0, 3.0), (1.0, 2.0)])
    for scheduler in pair:
        scheduler.set_capacity("wide", 3)
    for at in (0.0, 1.5, 2.0, 4.0, 6.0, 7.9, 8.0):
        _probe(pair, "wide", at)
    _load(pair, "wide", [(2.0, 2.0), (0.5, 1.0), (3.0, 4.0)])
    for at in (0.0, 2.5, 5.0):
        _probe(pair, "wide", at)
    assert pair[0].log == pair[1].log


def test_window_request_before_the_whole_timeline():
    pair = _window_pair(wide=2)
    _load(pair, "wide", [(50.0, 10.0), (52.0, 10.0), (70.0, 1.0), (70.0, 2.0)])
    # Saturated over [52, 60) and [70, 71): whatever ends by 52 fits before
    # the history, anything longer is pushed past both blocks.
    assert _probe(pair, "wide", 0.0, seconds_options=(0.0, 52.0, 53.0)) == [0.0, 0.0, 71.0]
    _same(pair, "transfer", "early", "wide", 55_000_000, 0.0)
    assert pair[0].log == pair[1].log
