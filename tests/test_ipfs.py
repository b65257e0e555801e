"""Tests for the content-addressed distributed storage substrate.

A block is hashed when it first enters a swarm and not again by every node
that receives or reads that same ``bytes`` object
(:class:`repro.ipfs.blockstore.VerifiedBlocks`).  The second half of this
file pins that from outside: exact SHA-256 counts, detection of a replaced
block as strong as always-hash, the table's lifecycle, and — as the oracle —
equality with a swarm whose table is cleared before every operation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import SanitizerViolation, SimulationSanitizer
from repro.core.config import (
    ExperimentConfig,
    cifar10_workload,
    edge_cluster_configs,
    gpu_cluster_configs,
)
from repro.core.reporting import result_to_dict
from repro.core.runner import ExperimentRunner
from repro.ipfs import blockstore as blockstore_module
from repro.ipfs import cid as cid_module
from repro.ipfs.blockstore import BlockStore, encode_manifest
from repro.ipfs.cid import CID, compute_cid, parse_cid
from repro.ipfs.node import IPFSError, IPFSNode
from repro.ipfs.swarm import IPFSSwarm
from repro.ml.serialization import weights_from_bytes, weights_to_bytes


# --------------------------------------------------------------------- helpers
def tiny_config(name, **overrides):
    defaults = dict(
        workload=cifar10_workload(rounds=2, samples_per_class=12, image_size=8),
        clusters=edge_cluster_configs(num_clients=2),
        mode="sync",
        partitioning="iid",
        rounds=2,
        seed=31,
    )
    defaults.update(overrides)
    return ExperimentConfig(name=name, **defaults)


def wide_config() -> ExperimentConfig:
    """12 single-client clusters, sync Multi-KRUM, two rounds: a small ``wide_sync``."""
    return ExperimentConfig(
        name="wide-multikrum",
        workload=cifar10_workload(rounds=2, samples_per_class=8, image_size=8),
        clusters=gpu_cluster_configs(num_clusters=12, num_clients=1),
        mode="sync",
        scoring_algorithm="multikrum",
        rounds=2,
        seed=0,
        storage_replicas=2,
    )


def small_swarm(*node_ids: str) -> IPFSSwarm:
    """A swarm of 4-byte-block nodes, so short payloads span several blocks."""
    swarm = IPFSSwarm()
    for node_id in node_ids:
        swarm.create_node(node_id, chunk_size=4)
    return swarm


def replace_block(node: IPFSNode, root: CID, index: int, content: bytes) -> CID:
    """Swap the ``index``-th block of a stored object for another ``bytes``."""
    block_cid = node.store.get_object(root).chunk_cids[index]
    node.store._blocks[block_cid] = content
    return block_cid


@pytest.fixture()
def hashes(monkeypatch):
    """Every payload the storage layer hashes from here on, seen from outside."""
    hashed = []
    real = cid_module.compute_cid

    def counting_compute_cid(content):
        hashed.append(content)
        return real(content)

    # ``from repro.ipfs.cid import compute_cid`` copied the reference.
    monkeypatch.setattr(cid_module, "compute_cid", counting_compute_cid)
    monkeypatch.setattr(blockstore_module, "compute_cid", counting_compute_cid)
    return hashed


@pytest.fixture()
def always_hash(monkeypatch):
    """The oracle: forget every remembered verification before each node read."""
    real_get = IPFSNode.get

    def forgetful_get(self, cid):
        self.store.verified.entries.clear()
        return real_get(self, cid)

    monkeypatch.setattr(IPFSNode, "get", forgetful_get)


class TestCID:
    def test_deterministic(self):
        assert compute_cid(b"hello") == compute_cid(b"hello")

    def test_different_content_different_cid(self):
        assert compute_cid(b"a") != compute_cid(b"b")

    def test_verify(self):
        cid = compute_cid(b"payload")
        assert cid.verify(b"payload")
        assert not cid.verify(b"other")

    def test_parse_round_trip(self):
        cid = compute_cid(b"x")
        assert parse_cid(str(cid)) == cid

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            CID("notacid")
        with pytest.raises(ValueError):
            CID("Qm" + "z" * 10)

    def test_ordering_is_stable(self):
        cids = sorted([compute_cid(b"a"), compute_cid(b"b"), compute_cid(b"c")])
        assert cids == sorted(cids)

    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=0, max_size=2048))
    def test_property_cid_verifies_own_content(self, payload):
        assert compute_cid(payload).verify(payload)


class TestBlockStore:
    def test_put_get_round_trip(self):
        store = BlockStore(chunk_size=64)
        payload = bytes(range(256)) * 3
        obj = store.put(payload)
        assert store.get(obj.cid) == payload

    def test_chunking_produces_multiple_blocks(self):
        store = BlockStore(chunk_size=10)
        obj = store.put(b"x" * 95)
        assert len(obj.chunk_cids) == 10

    def test_empty_payload(self):
        store = BlockStore(chunk_size=16)
        obj = store.put(b"")
        assert store.get(obj.cid) == b""

    def test_identical_content_same_cid(self):
        store = BlockStore()
        assert store.put(b"same").cid == store.put(b"same").cid

    def test_missing_object_returns_none(self):
        store = BlockStore()
        assert store.get(compute_cid(b"missing")) is None

    def test_delete_keeps_shared_blocks(self):
        store = BlockStore(chunk_size=4)
        a = store.put(b"aaaabbbb")
        b = store.put(b"aaaacccc")  # shares the "aaaa" block
        store.delete(a.cid)
        assert store.get(b.cid) == b"aaaacccc"

    def test_delete_frees_unreferenced_blocks(self):
        store = BlockStore(chunk_size=4)
        obj = store.put(b"onlymine")
        before = store.stored_bytes
        assert store.delete(obj.cid)
        assert store.stored_bytes < before

    def test_put_object_verifies_blocks(self):
        source = BlockStore(chunk_size=8)
        target = BlockStore(chunk_size=8)
        obj = source.put(b"replicate me please")
        blocks = source.blocks_for(obj.cid)
        tampered = dict(blocks)
        first_cid = next(iter(tampered))
        tampered[first_cid] = b"EVIL" + tampered[first_cid][4:]
        with pytest.raises(ValueError):
            target.put_object(obj, tampered)

    def test_put_object_installs_all_blocks_or_none(self):
        source = BlockStore(chunk_size=8)
        target = BlockStore(chunk_size=8)
        obj = source.put(b"replicate me please")
        blocks = source.blocks_for(obj.cid)
        blocks[obj.chunk_cids[1]] = b"EVIL"
        with pytest.raises(ValueError):
            target.put_object(obj, blocks)
        assert target.stored_bytes == 0 and not target.has(obj.cid)
        del blocks[obj.chunk_cids[1]]
        with pytest.raises(ValueError):
            target.put_object(obj, blocks)
        assert target.stored_bytes == 0 and not target.has(obj.cid)

    def test_root_cids_are_pinned(self):
        """The manifest encoding is what every recorded CID rests on."""
        store = BlockStore(chunk_size=4)
        one_block, three_blocks = store.put(b"abc"), store.put(b"aaaabbbbcc")
        assert str(one_block.cid) == (
            "Qmcf644669f169149d44aba72cb924d155ea35741660dba867c237e66a46db0df7"
        )
        assert str(three_blocks.cid) == (
            "Qm9f891531cd7488c999135ca8258080e0a7587ca4b10fc5cad741727371924895"
        )
        manifest = encode_manifest(three_blocks.chunk_cids, three_blocks.total_size)
        assert compute_cid(manifest) == three_blocks.cid

    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=0, max_size=4096), st.integers(1, 512))
    def test_property_round_trip_any_chunk_size(self, payload, chunk_size):
        store = BlockStore(chunk_size=chunk_size)
        obj = store.put(payload)
        assert store.get(obj.cid) == payload


class TestBlockStoreRepeatedPut:
    def test_repeat_put_returns_same_root(self):
        store = BlockStore(chunk_size=8)
        payload = b"x" * 30
        first = store.put(payload)
        second = store.put(b"x" * 30)
        assert first.cid == second.cid
        assert store.object_cids() == [first.cid]

    def test_put_after_delete_reinstalls_blocks(self):
        store = BlockStore(chunk_size=8)
        payload = b"y" * 20
        obj = store.put(payload)
        assert store.delete(obj.cid)
        assert store.get(obj.cid) is None
        again = store.put(payload)
        assert again.cid == obj.cid
        assert store.get(again.cid) == payload


class TestNodeAndSwarm:
    def test_add_and_get_local(self, ipfs_swarm):
        node = ipfs_swarm.node("node-a")
        cid = node.add(b"model weights")
        assert node.get(cid) == b"model weights"
        assert node.has_local(cid)

    def test_peer_fetch_replicates(self, ipfs_swarm):
        a, b = ipfs_swarm.node("node-a"), ipfs_swarm.node("node-b")
        cid = a.add(b"shared content")
        assert not b.has_local(cid)
        assert b.get(cid) == b"shared content"
        assert b.has_local(cid)
        assert ipfs_swarm.replication_factor(cid) == 2

    def test_fetch_unknown_cid_raises(self, ipfs_swarm):
        node = ipfs_swarm.node("node-a")
        with pytest.raises(IPFSError):
            node.get(compute_cid(b"never stored"))

    def test_isolated_node_cannot_fetch_remote(self):
        node = IPFSNode("loner")
        with pytest.raises(IPFSError):
            node.get(compute_cid(b"elsewhere"))

    def test_pin_protects_from_gc(self, ipfs_swarm):
        node = ipfs_swarm.node("node-a")
        pinned = node.add(b"keep me", pin=True)
        unpinned = node.add(b"throw me away", pin=False)
        removed = node.garbage_collect()
        assert unpinned in removed
        assert node.has_local(pinned)
        assert not node.has_local(unpinned)

    def test_unpin_then_gc_removes(self, ipfs_swarm):
        node = ipfs_swarm.node("node-a")
        cid = node.add(b"temporary", pin=True)
        node.unpin(cid)
        node.garbage_collect()
        assert not node.has_local(cid)

    def test_pin_unknown_cid_raises(self, ipfs_swarm):
        with pytest.raises(IPFSError):
            ipfs_swarm.node("node-a").pin(compute_cid(b"absent"))

    def test_gc_withdraws_provider_record(self, ipfs_swarm):
        a, b = ipfs_swarm.node("node-a"), ipfs_swarm.node("node-b")
        cid = a.add(b"ephemeral", pin=False)
        a.garbage_collect()
        with pytest.raises(IPFSError):
            b.get(cid)

    def test_transfer_stats_recorded(self, ipfs_swarm):
        a, b = ipfs_swarm.node("node-a"), ipfs_swarm.node("node-b")
        payload = b"z" * 10_000
        cid = a.add(payload)
        b.get(cid)
        assert ipfs_swarm.total_transferred_bytes() == len(payload)
        assert len(ipfs_swarm.transfers) == 1
        assert b.stats.bytes_received_from_peers == len(payload)
        assert a.stats.bytes_sent_to_peers == len(payload)

    def test_duplicate_node_id_rejected(self, ipfs_swarm):
        with pytest.raises(IPFSError):
            ipfs_swarm.create_node("node-a")

    def test_unknown_node_lookup(self, ipfs_swarm):
        with pytest.raises(IPFSError):
            ipfs_swarm.node("node-z")

    def test_empty_node_id_rejected(self):
        with pytest.raises(ValueError):
            IPFSNode("")

    def test_model_weights_round_trip_through_swarm(self, ipfs_swarm, small_cnn):
        """The end-to-end path UnifyFL uses: serialize → add → fetch → deserialize."""
        a, b = ipfs_swarm.node("node-a"), ipfs_swarm.node("node-b")
        weights = small_cnn.get_weights()
        cid = a.add(weights_to_bytes(weights))
        restored = weights_from_bytes(b.get(cid))
        for original, received in zip(weights, restored):
            assert np.allclose(original, received)

    def test_total_stored_bytes_counts_replicas(self, ipfs_swarm):
        a, b = ipfs_swarm.node("node-a"), ipfs_swarm.node("node-b")
        cid = a.add(b"q" * 1000)
        b.get(cid)
        assert ipfs_swarm.total_stored_bytes() >= 2000


class TestStorageLifecycle:
    def test_models_replicated_and_garbage_collectable(self):
        runner = ExperimentRunner(tiny_config("storage-gc", rounds=2))
        runner.run()
        records = runner.chain.call("unifyfl", "getLatestModelsWithScores")
        assert records
        # Unpin and GC everything on one node; its local store shrinks while the
        # swarm still serves the content from the other organisations' nodes.
        node = runner.aggregators[0].ipfs
        before = node.stored_bytes
        for cid in list(node.pinned):
            node.unpin(cid)
        removed = node.garbage_collect()
        assert removed
        assert node.stored_bytes < before
        some_cid = parse_cid(records[0]["cid"])
        payload = runner.aggregators[1].ipfs.get(some_cid)
        assert payload  # still retrievable from the rest of the swarm

    def test_every_submitted_cid_is_resolvable_by_every_org(self):
        runner = ExperimentRunner(tiny_config("storage-resolve", rounds=2))
        runner.run()
        records = runner.chain.call("unifyfl", "getLatestModelsWithScores")
        for record in records[:3]:
            cid = parse_cid(record["cid"])
            for aggregator in runner.aggregators:
                assert aggregator.ipfs.get(cid)


class TestSwarmProviderRecords:
    def test_provider_records_track_replication(self, ipfs_swarm):
        a = ipfs_swarm.node("node-a")
        b = ipfs_swarm.node("node-b")
        cid = a.add(b"replicate")
        assert ipfs_swarm.providers(cid) == ["node-a"]
        b.get(cid)
        assert set(ipfs_swarm.providers(cid)) == {"node-a", "node-b"}

    def test_unknown_cid_has_no_providers(self, ipfs_swarm):
        assert ipfs_swarm.providers(compute_cid(b"never added")) == []

    def test_withdraw_provider_removes_record(self, ipfs_swarm):
        a = ipfs_swarm.node("node-a")
        cid = a.add(b"short lived", pin=False)
        a.garbage_collect()
        assert ipfs_swarm.providers(cid) == []


# ------------------------------------------------------ a block is hashed once
class TestHashCounts:
    @pytest.mark.parametrize("payload,peers,repeats", [(b"abc", 3, 2), (b"aaaabbbbcc", 5, 4)])
    def test_an_add_and_all_its_pulls_hash_each_block_once(self, hashes, payload, peers, repeats):
        swarm = small_swarm("origin", *(f"peer-{i}" for i in range(peers)))
        cid = swarm.node("origin").add(payload)
        for node_id in swarm.node_ids:
            for _ in range(1 + repeats):
                assert swarm.node(node_id).get(cid) == payload
        blocks = -(-len(payload) // 4)
        assert len(hashes) == blocks + 1  # every block, then the root manifest
        assert len(swarm.transfers) == peers

    def test_a_wide_run_hashes_what_it_adds_and_nothing_it_reads(self, hashes, monkeypatch):
        added = set()
        real_add = IPFSNode.add

        def recording_add(self, content, pin=True):
            added.add((self.node_id, content))
            return real_add(self, content, pin)

        monkeypatch.setattr(IPFSNode, "add", recording_add)
        runner = ExperimentRunner(wide_config())
        runner.run()
        assert len(runner.swarm.transfers) > 12 * 11  # every model went to every peer
        # Single-block models: one hash for the block, one for the root.
        assert len(hashes) == 2 * len(added)

    def test_a_wide_run_equals_the_always_hash_oracle(self, hashes, always_hash):
        remembered = ExperimentRunner(wide_config()).run()
        hashes.clear()
        always_hash_runner = ExperimentRunner(wide_config())
        document = result_to_dict(always_hash_runner.run())
        assert document == result_to_dict(remembered)
        # The oracle really did hash on every read (at least once per pull).
        assert len(hashes) > len(always_hash_runner.swarm.transfers)


class TestReplacedBlocksAreStillCaught:
    PAYLOAD = b"aaaabbbbcc"

    def test_a_replaced_block_fails_the_local_read_and_heals_from_a_peer(self):
        swarm = small_swarm("a", "b")
        a, b = swarm.node("a"), swarm.node("b")
        cid = a.add(self.PAYLOAD)
        assert b.get(cid) == self.PAYLOAD
        replace_block(b, cid, 1, b"EVIL")
        assert b.store.get(cid) is None
        assert b.get(cid) == self.PAYLOAD  # fetched again from a
        assert b.store.get(cid) == self.PAYLOAD
        assert len(swarm.transfers) == 2

    def test_wrong_bytes_are_rejected_under_a_cid_the_table_knows(self):
        swarm = small_swarm("a", "b")
        a, b = swarm.node("a"), swarm.node("b")
        cid = a.add(self.PAYLOAD)
        obj, blocks = a.store.get_object(cid), a.store.blocks_for(cid)
        assert set(blocks) <= set(swarm.verified_blocks.entries)
        blocks[obj.chunk_cids[0]] = b"EVIL"
        with pytest.raises(ValueError):
            b.store.put_object(obj, blocks)
        assert b.stored_bytes == 0

    def test_a_sole_bad_provider_is_an_ipfs_error(self):
        swarm = small_swarm("a", "b")
        a, b = swarm.node("a"), swarm.node("b")
        cid = a.add(self.PAYLOAD)
        replace_block(a, cid, 1, b"EVIL")
        with pytest.raises(IPFSError, match=cid.value):
            b.get(cid)
        assert b.stored_bytes == 0 and not b.has_local(cid)
        assert swarm.transfers == [] and swarm.providers(cid) == ["a"]

    def test_an_equal_but_distinct_object_is_accepted_after_one_hash(self, hashes):
        swarm = small_swarm("a")
        a = swarm.node("a")
        cid = a.add(self.PAYLOAD)
        original = a.store.blocks_for(cid)[a.store.get_object(cid).chunk_cids[1]]
        twin = bytes(bytearray(original))
        assert twin == original and twin is not original
        replace_block(a, cid, 1, twin)
        hashes.clear()
        assert a.get(cid) == self.PAYLOAD
        assert hashes == [twin]
        assert a.get(cid) == self.PAYLOAD
        assert hashes == [twin]

    def test_a_bad_provider_is_passed_over_for_a_good_one(self):
        swarm = small_swarm("a", "b", "c")
        a, b, c = (swarm.node(n) for n in "abc")
        cid = a.add(self.PAYLOAD)
        assert b.get(cid) == self.PAYLOAD
        replace_block(a, cid, 1, b"EVIL")
        assert swarm.providers(cid) == ["a", "b"]  # the bad one is asked first
        before = len(swarm.transfers)
        assert c.get(cid) == self.PAYLOAD
        assert c.stored_bytes == len(self.PAYLOAD)
        assert len(swarm.transfers) == before + 1
        assert swarm.transfers[-1].provider == "b" and swarm.transfers[-1].requester == "c"
        assert c.stats.objects_fetched_remote == 1
        assert c.stats.bytes_received_from_peers == len(self.PAYLOAD)


class TestVerifiedTableLifecycle:
    PAYLOAD = b"aaaabbbbcc"

    def test_gc_on_one_node_drops_the_entries_and_peers_still_read(self, hashes):
        swarm = small_swarm("a", "b", "c")
        a, b, c = (swarm.node(n) for n in "abc")
        cid = a.add(self.PAYLOAD, pin=False)
        for node in (b, c):
            node.get(cid)
        block_cids = set(a.store.get_object(cid).chunk_cids)
        assert block_cids <= set(swarm.verified_blocks.entries)
        assert a.garbage_collect() == [cid]
        assert not block_cids & set(swarm.verified_blocks.entries)
        hashes.clear()
        assert b.get(cid) == self.PAYLOAD  # hashed again, entered again
        assert c.get(cid) == self.PAYLOAD
        assert len(hashes) == len(block_cids)

    def test_no_entry_outlives_the_last_store_holding_the_block(self):
        swarm = small_swarm("a", "b")
        a, b = swarm.node("a"), swarm.node("b")
        kept = a.add(b"aaaazzzz")  # shares the "aaaa" block
        cid = a.add(self.PAYLOAD, pin=False)
        b.get(cid)
        b.get(kept)
        for node in (a, b):
            for root in (cid, kept):
                node.unpin(root)
            node.garbage_collect()
            assert node.stored_bytes == 0
        assert swarm.verified_blocks.entries == {}

    def test_a_shared_block_keeps_its_entry_while_its_store_keeps_it(self):
        swarm = small_swarm("a")
        a = swarm.node("a")
        kept = a.add(b"aaaazzzz")
        dropped = a.add(self.PAYLOAD, pin=False)
        shared = a.store.get_object(kept).chunk_cids[0]
        assert shared == a.store.get_object(dropped).chunk_cids[0]
        a.garbage_collect()
        assert set(swarm.verified_blocks.entries) == set(a.store.get_object(kept).chunk_cids)

    def test_a_re_added_payload_is_hashed_on_the_way_in(self, hashes):
        swarm = small_swarm("a")
        a = swarm.node("a")
        cid = a.add(self.PAYLOAD, pin=False)
        a.garbage_collect()
        hashes.clear()
        assert a.add(self.PAYLOAD) == cid
        assert len(hashes) == 4  # three blocks, then the root manifest
        # Whatever a store holds was hashed on the way in.
        assert set(a.store._blocks) <= set(swarm.verified_blocks.entries)
        assert a.get(cid) == self.PAYLOAD
        assert a.get(cid) == self.PAYLOAD
        assert len(hashes) == 4

    def test_a_node_joining_with_content_brings_its_entries(self, hashes):
        late = IPFSNode("late", chunk_size=4)
        cid = late.add(self.PAYLOAD)
        swarm = small_swarm("a")
        swarm.add_node(late)
        assert late.store.verified is swarm.verified_blocks
        hashes.clear()
        assert swarm.node("a").get(cid) == self.PAYLOAD
        assert late.get(cid) == self.PAYLOAD
        assert hashes == []


#: four payloads over 4-byte blocks: two share a block, one is empty.
_PAYLOADS = (b"aaaabbbbcc", b"aaaazzzz", b"", b"solo")
_ROOTS = tuple(BlockStore(chunk_size=4).put(payload).cid for payload in _PAYLOADS)
_NODES = ("a", "b", "c")


def _replay(operations, forget: bool):
    """Run add / get / drop operations; returns everything observable."""
    swarm = small_swarm(*_NODES)
    returned = []
    for action, node_index, payload_index in operations:
        if forget:
            swarm.verified_blocks.entries.clear()
        node, root = swarm.node(_NODES[node_index]), _ROOTS[payload_index]
        if action == "add":
            returned.append(node.add(_PAYLOADS[payload_index]))
        elif action == "get":
            try:
                returned.append(node.get(root))
            except IPFSError:
                returned.append("unavailable")
        else:
            node.unpin(root)
            returned.append(node.garbage_collect())
    return (
        returned,
        [swarm.node(n).stats for n in _NODES],
        [swarm.providers(root) for root in _ROOTS],
        [(t.cid, t.provider, t.requester, t.num_bytes) for t in swarm.transfers],
        swarm.total_stored_bytes(),
    )


class TestRememberedEqualsAlwaysHash:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["add", "get", "drop"]), st.integers(0, 2), st.integers(0, 3)
            ),
            max_size=30,
        )
    )
    def test_any_interleaving_of_add_get_drop_and_re_add(self, operations):
        assert _replay(operations, forget=False) == _replay(operations, forget=True)


# ------------------------------------------------- the sanitizer is the oracle
class TestBlockVerificationSanitizer:
    def test_an_honest_sanitized_run_rechecks_blocks_and_changes_nothing(self):
        plain = ExperimentRunner(tiny_config("blocks-plain")).run()
        sanitized_runner = ExperimentRunner(tiny_config("blocks-plain", sanitize=True))
        sanitized = sanitized_runner.run()
        assert result_to_dict(sanitized) == result_to_dict(plain)
        assert sanitized_runner.sanitizer.checks["block_verification"] > 0

    def test_an_identity_acceptance_is_rehashed(self, hashes):
        swarm = small_swarm("a", "b")
        swarm.verified_blocks.sanitizer = SimulationSanitizer()
        cid = swarm.node("a").add(b"abc")
        assert len(hashes) == 2
        swarm.node("b").get(cid)  # accepted on receipt and on the read after it
        assert swarm.verified_blocks.sanitizer.checks["block_verification"] == 2
        assert len(hashes) == 4

    def test_an_entry_for_the_wrong_object_raises_naming_node_and_block(self):
        swarm = small_swarm("a", "b")
        swarm.verified_blocks.sanitizer = SimulationSanitizer()
        b = swarm.node("b")
        cid = swarm.node("a").add(b"aaaabbbbcc")
        b.get(cid)
        block_cid = replace_block(b, cid, 1, b"EVIL")
        swarm.verified_blocks.entries[block_cid] = b.store._blocks[block_cid]
        with pytest.raises(SanitizerViolation, match=f"node 'b'.*{block_cid.value}"):
            b.get(cid)
