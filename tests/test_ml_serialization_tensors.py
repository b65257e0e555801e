"""Tests for weight serialization and tensor utilities (with property tests)."""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.ml.serialization import (
    SerializationError,
    weights_checksum,
    weights_fingerprint,
    weights_from_bytes,
    weights_to_bytes,
)
from repro.ml.tensor_utils import (
    add_weights,
    average_weights,
    clip_weights,
    flatten_weights,
    scale_weights,
    subtract_weights,
    total_parameter_count,
    unflatten_weights,
    weights_allclose,
    weights_distance,
    weights_norm,
    zeros_like_weights,
)


def small_weight_lists():
    """Hypothesis strategy producing small lists of float arrays."""
    array = npst.arrays(
        dtype=np.float64,
        shape=npst.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4),
        elements=st.floats(-1e6, 1e6, allow_nan=False),
    )
    return st.lists(array, min_size=1, max_size=4)


class TestSerialization:
    @settings(max_examples=25, deadline=None)
    @given(small_weight_lists())
    def test_round_trip_preserves_values(self, weights):
        restored = weights_from_bytes(weights_to_bytes(weights))
        assert len(restored) == len(weights)
        for a, b in zip(weights, restored):
            assert a.shape == b.shape
            assert np.allclose(a, b)

    def test_empty_list_round_trip(self):
        assert weights_from_bytes(weights_to_bytes([])) == []

    def test_checksum_stable(self):
        weights = [np.arange(6.0).reshape(2, 3)]
        assert weights_checksum(weights) == weights_checksum([w.copy() for w in weights])

    def test_checksum_changes_with_values(self):
        a = [np.zeros((2, 2))]
        b = [np.ones((2, 2))]
        assert weights_checksum(a) != weights_checksum(b)

    def test_rejects_garbage(self):
        with pytest.raises(SerializationError):
            weights_from_bytes(b"not a weight container")

    def test_rejects_truncated_payload(self):
        payload = weights_to_bytes([np.ones((4, 4))])
        with pytest.raises(SerializationError):
            weights_from_bytes(payload[:-10])

    def test_rejects_trailing_bytes(self):
        payload = weights_to_bytes([np.ones(3)])
        with pytest.raises(SerializationError):
            weights_from_bytes(payload + b"xx")

    def test_decoded_tensors_are_writable_and_own_their_data(self):
        weights = [np.arange(6.0).reshape(2, 3), np.zeros((0, 4), dtype=np.float32)]
        payload = weights_to_bytes(weights)
        restored = weights_from_bytes(payload)
        for original, tensor in zip(weights, restored):
            assert tensor.shape == original.shape and tensor.dtype == original.dtype
            assert tensor.flags.writeable and tensor.flags.owndata
        restored[0][0, 0] = 99.0
        # Mutating a decoded tensor never reaches the payload it came from.
        assert weights_from_bytes(payload)[0][0, 0] == 0.0

    @pytest.mark.parametrize(
        "payload, message",
        [
            (b"UFLX" + struct.pack("<BI", 1, 0), "payload is not a UnifyFL weight container"),
            (b"UFLW" + struct.pack("<BI", 2, 0), "unsupported weight container version 2"),
            (b"UFLW" + struct.pack("<BI", 1, 1) + b"\x00", "truncated tensor header"),
            (b"UFLW" + struct.pack("<BI", 1, 1) + struct.pack("<BB", 9, 1), "unknown dtype code 9"),
            (b"UFLW" + struct.pack("<BI", 1, 1) + struct.pack("<BB", 0, 2) + b"\x00" * 4,
             "truncated tensor shape"),
            (b"UFLW" + struct.pack("<BI", 1, 1) + struct.pack("<BBI", 0, 1, 2) + b"\x00" * 4,
             "truncated tensor length"),
            (b"UFLW" + struct.pack("<BI", 1, 1) + struct.pack("<BBIQ", 0, 1, 2, 16) + b"\x00" * 8,
             "truncated tensor data"),
            (b"UFLW" + struct.pack("<BI", 1, 1) + struct.pack("<BBIQ", 0, 1, 2, 8) + b"\x00" * 8,
             "tensor byte length 8 does not match shape (2,) and dtype float64"),
            (b"UFLW" + struct.pack("<BI", 1, 1) + struct.pack("<BBQ", 1, 0, 8) + b"\x00" * 8,
             "tensor byte length 8 does not match shape () and dtype float32"),
            (b"UFLW" + struct.pack("<BI", 1, 0) + b"xx", "trailing bytes after the final tensor"),
        ],
    )
    def test_every_malformed_payload_keeps_its_message(self, payload, message):
        with pytest.raises(SerializationError) as excinfo:
            weights_from_bytes(payload)
        assert str(excinfo.value) == message

    def test_int_arrays_supported(self):
        weights = [np.arange(4, dtype=np.int64), np.arange(3, dtype=np.int32)]
        restored = weights_from_bytes(weights_to_bytes(weights))
        assert restored[0].dtype == np.int64
        assert restored[1].dtype == np.int32

    def test_unsupported_dtype_coerced(self):
        weights = [np.ones(3, dtype=np.float16)]
        restored = weights_from_bytes(weights_to_bytes(weights))
        assert restored[0].dtype == np.float64


class TestSerializationByContent:
    def test_fingerprint_separates_content(self):
        a = [np.arange(6, dtype=np.float32).reshape(2, 3)]
        b = [np.arange(6, dtype=np.float32).reshape(2, 3)]
        c = [np.arange(6, dtype=np.float32).reshape(3, 2)]
        d = [np.arange(6, dtype=np.float64).reshape(2, 3)]
        assert weights_fingerprint(a) == weights_fingerprint(b)
        assert weights_fingerprint(a) != weights_fingerprint(c)
        assert weights_fingerprint(a) != weights_fingerprint(d)

    def test_fingerprint_digest_is_pinned(self):
        # The evaluation memo keys on this digest; the literals were taken
        # before the per-dtype name lookup was cached.  int16 and bool are
        # coerced to float64, the 0-d and the strided tensor go through
        # ascontiguousarray.
        mixed = [
            np.arange(6, dtype=np.int32).reshape(2, 3),
            np.array([1.5, -2.0], dtype=np.float32),
            np.array([[1, 2], [3, 4]], dtype=np.int16),
            np.array(3.0),
            np.array([True, False]),
            np.arange(4, dtype=np.float64)[::2],
        ]
        assert weights_fingerprint(mixed) == (
            "4609c84cf5190a5c623b815129e5a22f53984289aa59d54bc1928956ac9f6cdd"
        )
        assert weights_fingerprint([]) == (
            "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119"
        )
        # A dtype seen before (cached answer) hashes like the first time.
        assert weights_fingerprint(mixed) == weights_fingerprint([w.copy() for w in mixed])

    def test_checksum_shares_the_payload_memo(self):
        weights = [np.full((5,), 2.5, dtype=np.float64)]
        checksum = weights_checksum(weights)
        assert checksum == hashlib.sha256(weights_to_bytes(weights)).hexdigest()
        assert weights_checksum([w.copy() for w in weights]) == checksum

    def test_mutated_weights_reserialize(self):
        weights = [np.ones(4, dtype=np.float32)]
        before = weights_to_bytes(weights)
        weights[0][0] = 7.0
        after = weights_to_bytes(weights)
        assert before != after


class TestTensorUtils:
    @settings(max_examples=25, deadline=None)
    @given(small_weight_lists())
    def test_flatten_unflatten_round_trip(self, weights):
        flat = flatten_weights(weights)
        restored = unflatten_weights(flat, weights)
        assert weights_allclose(weights, restored)

    def test_flatten_empty(self):
        assert flatten_weights([]).size == 0

    def test_unflatten_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            unflatten_weights(np.zeros(5), [np.zeros((2, 2))])

    def test_add_subtract_inverse(self):
        a = [np.array([1.0, 2.0]), np.array([[3.0]])]
        b = [np.array([0.5, 0.5]), np.array([[1.0]])]
        assert weights_allclose(subtract_weights(add_weights(a, b), b), a)

    def test_scale(self):
        a = [np.array([2.0, 4.0])]
        assert np.allclose(scale_weights(a, 0.5)[0], [1.0, 2.0])

    def test_average_uniform(self):
        a = [np.array([0.0])]
        b = [np.array([2.0])]
        assert np.allclose(average_weights([a, b])[0], [1.0])

    def test_average_weighted(self):
        a = [np.array([0.0])]
        b = [np.array([4.0])]
        avg = average_weights([a, b], coefficients=[3, 1])
        assert np.allclose(avg[0], [1.0])

    def test_average_promotes_integer_layers(self):
        (layer,) = average_weights([[np.array([2, 4], dtype=np.int64)], [np.array([4, 8], dtype=np.int64)]])
        assert layer.dtype == np.float64
        assert np.array_equal(layer, [3.0, 6.0])

    def test_average_rejects_empty(self):
        with pytest.raises(ValueError):
            average_weights([])

    def test_average_rejects_zero_coefficients(self):
        with pytest.raises(ValueError):
            average_weights([[np.zeros(1)]], coefficients=[0.0])
        with pytest.raises(ValueError):
            average_weights([[np.ones(3)], [np.ones(3)]], coefficients=[0.0, 0.0])

    def test_average_rejects_negative_coefficients(self):
        with pytest.raises(ValueError, match="non-negative"):
            average_weights([[np.ones(3)], [np.ones(3)]], coefficients=[2.0, -1.0])

    def test_average_rejects_mismatched_coefficients(self):
        with pytest.raises(ValueError):
            average_weights([[np.zeros(1)]], coefficients=[1.0, 2.0])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            add_weights([np.zeros(2)], [np.zeros(3)])

    def test_norm_and_distance(self):
        a = [np.array([3.0, 4.0])]
        assert weights_norm(a) == pytest.approx(5.0)
        assert weights_distance(a, zeros_like_weights(a)) == pytest.approx(5.0)

    @settings(max_examples=25, deadline=None)
    @given(small_weight_lists())
    def test_distance_to_self_is_zero(self, weights):
        assert weights_distance(weights, weights) == pytest.approx(0.0)

    def test_clip_reduces_large_norm(self):
        a = [np.array([30.0, 40.0])]
        clipped = clip_weights(a, max_norm=5.0)
        assert weights_norm(clipped) == pytest.approx(5.0)

    def test_clip_leaves_small_norm(self):
        a = [np.array([0.3, 0.4])]
        clipped = clip_weights(a, max_norm=5.0)
        assert weights_allclose(a, clipped)

    def test_clip_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            clip_weights([np.ones(2)], 0.0)

    def test_total_parameter_count(self):
        assert total_parameter_count([np.zeros((2, 3)), np.zeros(5)]) == 11

    def test_allclose_detects_shape_difference(self):
        assert not weights_allclose([np.zeros(2)], [np.zeros(3)])
        assert not weights_allclose([np.zeros(2)], [np.zeros(2), np.zeros(2)])

    @settings(max_examples=25, deadline=None)
    @given(small_weight_lists(), st.floats(0.1, 10.0))
    def test_norm_scales_linearly(self, weights, factor):
        scaled = scale_weights(weights, factor)
        assert weights_norm(scaled) == pytest.approx(factor * weights_norm(weights), rel=1e-6, abs=1e-9)


def _tensordot_average(weight_sets, coefficients):
    """The stacked ``np.tensordot`` formulation of ``average_weights``: the
    oracle its ``np.dot`` contraction must match bit for bit."""
    total = float(sum(coefficients))
    normalised = np.array([float(c) / total for c in coefficients], dtype=np.float64)
    result = []
    for i in range(len(weight_sets[0])):
        stacked = np.stack([np.asarray(weights[i]) for weights in weight_sets])
        target = np.result_type(weight_sets[0][i].dtype, np.result_type(stacked.dtype, 1.0))
        layer = np.tensordot(normalised, stacked.astype(np.float64, copy=False), axes=1)
        result.append(layer.astype(target, copy=False))
    return result


class TestAverageWeightsContraction:
    @staticmethod
    def _contributor(rng):
        signed = rng.standard_normal((3, 4)) * 3
        signed[0] = -0.0
        signed[1, :2] = 0.0
        return [
            signed,
            (rng.standard_normal(5) * 3).astype(np.float32),
            rng.integers(-50, 50, size=(2, 2), dtype=np.int64),
            np.full(3, -0.0),
            np.array(rng.standard_normal()),
        ]

    @pytest.mark.parametrize("weighting", ["uniform", "unequal"])
    def test_bit_identical_to_the_tensordot_oracle(self, weighting):
        rng = np.random.default_rng(35)
        for k in range(1, 71):
            sets = [self._contributor(rng) for _ in range(k)]
            if weighting == "uniform":
                coefficients = [1.0] * k
            else:
                coefficients = list(rng.uniform(0.01, 40.0, size=k))
            produced = average_weights(sets, coefficients)
            expected = _tensordot_average(sets, coefficients)
            assert len(produced) == len(expected)
            for got, want in zip(produced, expected):
                assert (got.dtype, got.shape) == (want.dtype, want.shape), k
                # tobytes() compares signs of zero too, which == does not.
                assert got.tobytes() == want.tobytes(), k
