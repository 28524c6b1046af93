import itertools

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kextract.errors import ParameterError
from kextract.extend import (
    EXTEND_BLOCK,
    ExtendRequest,
    extend,
    invert_pair,
    iter_extend,
)
from kextract.gf2n import field_params

P3 = field_params(3)


class TestExtend:
    def test_first_output_is_xor(self):
        out = extend(ExtendRequest(0b101, 0b011, 1, P3))
        assert out.outputs == (0b110,)

    def test_hand_example_two_outputs(self):
        out = extend(ExtendRequest(0b101, 0b011, 2, P3))
        assert out.outputs == (0b110, 0b011)

    def test_zero_x2_repeats_x1(self):
        out = extend(ExtendRequest(0b101, 0, 7, P3))
        assert out.outputs == (0b101,) * 7

    def test_streaming_matches_materialized(self):
        req = ExtendRequest(0b100, 0b111, 7, P3)
        assert tuple(iter_extend(req)) == extend(req).outputs

    def test_count_must_leave_indices_distinct(self):
        with pytest.raises(ParameterError):
            ExtendRequest(0, 0, 8, P3)
        with pytest.raises(ParameterError):
            ExtendRequest(0, 0, 0, P3)

    def test_inputs_must_fit(self):
        with pytest.raises(ParameterError):
            ExtendRequest(8, 0, 1, P3)

    @pytest.mark.parametrize("n", [1, 3, 64])
    def test_request_names_the_field_at_fault(self, n):
        params = field_params(n)
        order = params.order
        for bad in (-1, order):
            with pytest.raises(ParameterError, match=f"^x1 does not fit in {n} bits$"):
                ExtendRequest(bad, 0, 1, params)
            with pytest.raises(ParameterError, match=f"^x2 does not fit in {n} bits$"):
                ExtendRequest(0, bad, 1, params)
            # x1 is named first, then x2, then the count
            with pytest.raises(ParameterError, match="^x1 "):
                ExtendRequest(bad, bad, 0, params)
            with pytest.raises(ParameterError, match="^x2 "):
                ExtendRequest(0, bad, order, params)
        for count in (0, order):
            want = (f"count {count} out of range 1..{order - 1}: "
                    "indices must be distinct nonzero field elements")
            with pytest.raises(ParameterError) as err:
                ExtendRequest(order - 1, order - 1, count, params)
            assert str(err.value) == want
        # a float or a bool is refused by name, though it compares as a number
        for bad in (0.5, 1.5, 1.0, True, False):
            kind = type(bad).__name__
            with pytest.raises(ParameterError, match=f"^x1 must be an int, got {kind} {bad!r}$"):
                ExtendRequest(bad, 0, 1, params)
            with pytest.raises(ParameterError, match=f"^x2 must be an int, got {kind} {bad!r}$"):
                ExtendRequest(0, bad, 1, params)
            with pytest.raises(ParameterError, match=f"^count must be an int, got {kind} {bad!r}$"):
                ExtendRequest(0, 0, bad, params)
            with pytest.raises(ParameterError, match="^x1 "):
                ExtendRequest(bad, bad, bad, params)
            with pytest.raises(ParameterError, match="^x2 "):
                ExtendRequest(0, bad, order, params)

    @pytest.mark.parametrize("n", [1, 3, 8, 13, 16, 64])
    @pytest.mark.parametrize(
        "count", [1, 4, 5, EXTEND_BLOCK - 1, EXTEND_BLOCK, EXTEND_BLOCK + 1]
    )
    @settings(max_examples=3, deadline=None)
    @given(seeds=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)))
    def test_blocks_match_one_product_per_output(self, n, count, seeds):
        params = field_params(n)
        x1, x2 = (v % params.order for v in seeds)
        count = min(count, params.order - 1)
        want = oracles.extend_outputs(x1, x2, count, params.modulus)
        req = ExtendRequest(x1, x2, count, params)
        # one map below EXTEND_BLOCK, chained blocks from it on
        assert tuple(iter_extend(req)) == want
        assert extend(req).outputs == want

    def test_all_outputs_past_several_blocks(self):
        params = field_params(16)
        req = ExtendRequest(0xBEEF, 0x1234, params.order - 1, params)
        got = extend(req).outputs
        assert got == oracles.extend_outputs(0xBEEF, 0x1234, req.count, params.modulus)
        assert sorted(got) == sorted(set(range(params.order)) - {0xBEEF})


class TestInvertPair:
    def test_hand_example(self):
        assert invert_pair(0b110, 0b011, 1, 2, P3) == (0b101, 0b011)

    def test_equal_outputs_force_zero_x2(self):
        for z in range(8):
            assert invert_pair(z, z, 1, 2, P3) == (z, 0)

    def test_round_trip_exhaustive(self):
        for x1, x2 in itertools.product(range(8), repeat=2):
            outs = extend(ExtendRequest(x1, x2, 3, P3)).outputs
            for i, j in itertools.permutations(range(1, 4), 2):
                got = invert_pair(outs[i - 1], outs[j - 1], i, j, P3)
                assert got == (x1, x2)

    def test_same_index_rejected(self):
        with pytest.raises(ParameterError):
            invert_pair(1, 2, 3, 3, P3)

    def test_index_range_checked(self):
        with pytest.raises(ParameterError):
            invert_pair(1, 2, 0, 1, P3)
        with pytest.raises(ParameterError):
            invert_pair(1, 2, 1, 8, P3)

    @given(
        x1=st.integers(0, 255),
        x2=st.integers(0, 255),
        i=st.integers(1, 255),
        j=st.integers(1, 255),
    )
    def test_round_trip_random_n8(self, x1, x2, i, j):
        if i == j:
            return
        params = field_params(8)
        hi = max(i, j)
        outs = extend(ExtendRequest(x1, x2, hi, params)).outputs
        assert invert_pair(outs[i - 1], outs[j - 1], i, j, params) == (x1, x2)


class TestPairwiseStructure:
    @pytest.mark.parametrize("n", [2, 3])
    def test_pair_maps_are_bijections(self, n):
        params = field_params(n)
        N = params.order
        indices = range(1, N)
        for i, j in itertools.permutations(indices, 2):
            seen = set()
            for x1, x2 in itertools.product(range(N), repeat=2):
                outs = extend(ExtendRequest(x1, x2, max(i, j), params)).outputs
                seen.add((outs[i - 1], outs[j - 1]))
            assert len(seen) == N * N

    def test_single_map_is_balanced(self):
        # each z_i value has exactly 2^n preimages, so z_i is uniform
        N = 8
        for i in range(1, N):
            hist = {}
            for x1, x2 in itertools.product(range(N), repeat=2):
                z = extend(ExtendRequest(x1, x2, i, P3)).outputs[i - 1]
                hist[z] = hist.get(z, 0) + 1
            assert all(count == N for count in hist.values())
            assert len(hist) == N
