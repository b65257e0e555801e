"""Bit-identity pins for :mod:`repro.simnet.units`.

The units helpers exist so conversion sites can migrate off magic literals
(``1e6``, ``4e6``, ``20e6``) without changing a single bit of any result:
each helper's float operations (and their order) must be exactly those of
the literal expression it replaced.  These tests pin that equivalence with
``==`` on floats — deliberately, no tolerance — across awkward values
(subnormal-adjacent, non-dyadic, huge).  The suite-wide bit-identity tests
would catch a drift too, but only through a whole simulation; these fail
at the offending helper directly.
"""

from __future__ import annotations

import pytest

from repro.simnet.units import (
    BYTES_PER_FLOAT32,
    MB,
    bytes_over_bandwidth,
    bytes_over_scaled_bandwidth,
    float32_model_bytes,
    mbytes_per_s_to_bytes_per_s,
)

#: awkward float operands: non-dyadic, tiny, huge, and typical config values.
BANDWIDTHS = [94.0, 12.5, 0.1, 3.337, 1e-9, 7.25e8, 1.0000000000000002]
SIZES = [0.0, 1.0, 4.0, 123456789.0, 6.4e7, 2.5e12, 3.0000000000000004e5]


class TestBitIdentity:
    def test_mb_is_the_integer_million_and_equals_the_float_literal(self):
        assert MB == 10**6
        assert isinstance(MB, int)
        assert float(MB) == 1e6

    @pytest.mark.parametrize("bandwidth", BANDWIDTHS)
    def test_mbytes_per_s_conversion_matches_the_literal(self, bandwidth):
        assert mbytes_per_s_to_bytes_per_s(bandwidth) == bandwidth * 1e6

    @pytest.mark.parametrize("bandwidth", BANDWIDTHS)
    @pytest.mark.parametrize("size", SIZES)
    def test_bytes_over_bandwidth_matches_the_transfer_time_literal(self, size, bandwidth):
        assert bytes_over_bandwidth(size, bandwidth) == size / (bandwidth * 1e6)

    @pytest.mark.parametrize("bandwidth", BANDWIDTHS)
    @pytest.mark.parametrize("size", SIZES)
    def test_scaled_bandwidth_matches_the_folded_constants(self, size, bandwidth):
        # The timing model's historical literals were scale * 1e6 folded by
        # hand: 4e6 for memory-bound aggregation, 20e6 for similarity
        # scoring.  scale * MB stays exact integer arithmetic, so the one
        # float multiply sees the identical constant.
        assert bytes_over_scaled_bandwidth(size, bandwidth, 4) == size / (bandwidth * 4e6)
        assert bytes_over_scaled_bandwidth(size, bandwidth, 20) == size / (bandwidth * 20e6)

    def test_float32_model_bytes_matches_the_literal(self):
        assert BYTES_PER_FLOAT32 == 4
        for parameters in (0, 1, 62006, 1_200_000):
            assert float32_model_bytes(parameters) == int(parameters * 4)
            assert isinstance(float32_model_bytes(parameters), int)
