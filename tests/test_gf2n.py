import contextlib
import copy
import itertools
import pickle
import signal

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from kextract.errors import DomainError, ParameterError
from kextract.extend import ExtendRequest, extend, invert_pair
from kextract.gf2n import (
    _LEAST_IRREDUCIBLE,
    FieldParams,
    field_params,
    inverse_bits,
    mul_bits,
    multiples,
)

P3 = field_params(3)


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the body once seconds have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def outputs(x1, x2, count, params=P3):
    return extend(ExtendRequest(x1, x2, count, params)).outputs


class TestAdd:
    """Field addition is XOR, as z_i = x1 + e_i * x2 uses it."""

    def test_xor(self):
        assert outputs(0b101, 0b011, 1) == (0b110,)

    def test_additive_identity(self):
        for v in range(8):
            assert outputs(v, 0, 7) == (v,) * 7

    def test_characteristic_two(self):
        for v in range(8):
            assert outputs(v, v, 1) == (0,)


class TestMul:
    def test_hand_example(self):
        # x * (x + 1) = x^2 + x under x^3 + x + 1
        assert mul_bits(0b010, 0b011, P3) == 0b110

    def test_multiplicative_identity(self):
        for v in range(8):
            assert mul_bits(v, 1, P3) == mul_bits(1, v, P3) == v

    def test_absorbing_zero(self):
        for v in range(8):
            assert mul_bits(v, 0, P3) == mul_bits(0, v, P3) == 0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_agrees_with_schoolbook_oracle_exhaustively(self, n):
        params = field_params(n)
        for a in range(params.order):
            for b in range(params.order):
                assert mul_bits(a, b, params) == oracles.gf_mul(a, b, params.modulus)

    @pytest.mark.parametrize("n", range(1, 65))
    def test_fold_at_largest_product_degree(self, n):
        # (2^n - 1)^2 has degree 2n - 2, the most the fold has to bring
        # below n; a fold that stops one step early shows here
        params = field_params(n)
        ops = {1, 2 % params.order, params.order >> 1, params.order - 1}
        for a, b in itertools.product(ops, repeat=2):
            assert mul_bits(a, b, params) == oracles.gf_mul(a, b, params.modulus), (a, b)

    @pytest.mark.parametrize("a,b", [(1, -1), (-1, 1), (-3, 5), (-(1 << 70), 1)])
    def test_negative_operand_rejected(self, a, b):
        with deadline(5), pytest.raises(ParameterError, match="non-negative"):
            mul_bits(a, b, field_params(8))

    # 0x11b is the n=8 modulus, so 0 in that field; 256 is x^8
    @pytest.mark.parametrize("n,a", [(8, 0x11B), (8, 256), (8, 1 << 64), (64, 1 << 64)])
    def test_operand_past_n_bits_rejected(self, n, a):
        for args in ((a, 1), (1, a), (a, a)):
            with pytest.raises(ParameterError, match=f"non-negative and below 2\\^{n}$"):
                mul_bits(*args, field_params(n))

    @pytest.mark.parametrize("a", [0x11B, 256])
    def test_same_values_are_elements_at_n64(self, a):
        params = field_params(64)
        assert mul_bits(a, 1, params) == mul_bits(1, a, params) == a
        assert mul_bits(a, inverse_bits(a, params), params) == 1

    @given(
        n=st.integers(5, 64),
        a=st.integers(0, 2**64 - 1),
        b=st.integers(0, 2**64 - 1),
    )
    def test_agrees_with_schoolbook_oracle_random(self, n, a, b):
        params = field_params(n)
        a &= params.order - 1
        b &= params.order - 1
        assert mul_bits(a, b, params) == oracles.gf_mul(a, b, params.modulus)


class TestMultiples:
    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 100])
    def test_table_is_products_to_a_power_of_two(self, size):
        params = field_params(8)
        for x in (0, 1, 0x53, 0xFF):
            got = multiples(x, size, params)
            assert len(got) == 1 << (size - 1).bit_length()
            assert got == [oracles.gf_mul(k, x, params.modulus) for k in range(len(got))]

    @given(x=st.integers(0, 2**64 - 1))
    def test_full_width_n64(self, x):
        params = field_params(64)
        got = multiples(x, 64, params)
        assert got == [oracles.gf_mul(k, x, params.modulus) for k in range(64)]


class TestInverse:
    def test_identity(self):
        assert inverse_bits(1, P3) == 1

    def test_hand_example(self):
        # x * (x^2 + 1) = x^3 + x = 1 under x^3 + x + 1
        assert inverse_bits(0b010, P3) == 0b101

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            inverse_bits(0, P3)

    @pytest.mark.parametrize("a", [-1, -3])
    def test_negative_rejected(self, a):
        with deadline(5), pytest.raises(ParameterError, match="non-negative"):
            inverse_bits(a, field_params(8))

    @pytest.mark.parametrize("n,a", [(8, 0x11B), (8, 256), (8, 1 << 64), (64, 1 << 64)])
    def test_operand_past_n_bits_rejected(self, n, a):
        # 0x11b is 0 in the n=8 field, so it has no inverse
        with pytest.raises(ParameterError, match=f"non-negative and below 2\\^{n}$"):
            inverse_bits(a, field_params(n))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_defining_property_exhaustive(self, n):
        # mul_bits refuses an operand of 2^n or more, so an inverse left
        # unreduced would fail here
        params = field_params(n)
        for a in range(1, params.order):
            assert mul_bits(a, inverse_bits(a, params), params) == 1

    @given(n=st.integers(5, 64), a=st.integers(1, 2**64 - 1))
    def test_defining_property_random(self, n, a):
        params = field_params(n)
        a &= params.order - 1
        a = a or 1
        assert mul_bits(a, inverse_bits(a, params), params) == 1


class TestFieldAxioms:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive(self, n):
        params = field_params(n)
        order = params.order
        for a, b, c in itertools.product(range(order), repeat=3):
            ab = mul_bits(a, b, params)
            assert ab == mul_bits(b, a, params)
            assert mul_bits(ab, c, params) == mul_bits(a, mul_bits(b, c, params), params)
            assert (a ^ b) == (b ^ a)
            assert ((a ^ b) ^ c) == (a ^ (b ^ c))
            assert mul_bits(a, b ^ c, params) == (
                mul_bits(a, b, params) ^ mul_bits(a, c, params)
            )

    @given(
        n=st.sampled_from([8, 16, 32, 64]),
        a=st.integers(0, 2**64 - 1),
        b=st.integers(0, 2**64 - 1),
        c=st.integers(0, 2**64 - 1),
    )
    def test_random_triples(self, n, a, b, c):
        params = field_params(n)
        mask = params.order - 1
        a, b, c = a & mask, b & mask, c & mask
        ab = mul_bits(a, b, params)
        assert ab == mul_bits(b, a, params)
        assert mul_bits(ab, c, params) == mul_bits(a, mul_bits(b, c, params), params)
        assert mul_bits(a, b ^ c, params) == (
            mul_bits(a, b, params) ^ mul_bits(a, c, params)
        )


class TestNthNonzero:
    """extend's index i names e_i, the i-th nonzero element in numeric
    order, so with x1 = 0 and x2 = 1 output i is e_i itself."""

    def test_first_is_identity(self):
        assert outputs(0, 1, 1) == (1,)

    def test_second(self):
        assert outputs(0, 1, 2)[1] == 0b010

    def test_last(self):
        assert outputs(0, 1, 7)[6] == 0b111

    @pytest.mark.parametrize("i", [0, 8, -1])
    def test_out_of_range(self, i):
        with pytest.raises(ParameterError):
            ExtendRequest(0, 1, i, P3)
        with pytest.raises(ParameterError):
            invert_pair(0, 0, i, 1, P3)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_injective_and_nonzero(self, n):
        params = field_params(n)
        seen = set(outputs(0, 1, params.order - 1, params))
        assert len(seen) == params.order - 1
        assert 0 not in seen


class TestParams:
    def test_element_out_of_range(self):
        with pytest.raises(ParameterError):
            ExtendRequest(8, 0, 1, P3)
        with pytest.raises(ParameterError):
            invert_pair(8, 0, 1, 2, P3)

    def test_unsupported_n_rejected(self):
        for n in (0, 65):
            with pytest.raises(ParameterError):
                field_params(n)

    def test_degree_fixes_the_field(self):
        for n in range(1, 65):
            params = FieldParams(n)
            assert params == (n, _LEAST_IRREDUCIBLE[n])
            assert field_params(n) is field_params(n)
            for copied in (pickle.loads(pickle.dumps(params)), copy.deepcopy(params)):
                assert type(copied) is FieldParams and copied == params
        for n in (0, 65):
            with pytest.raises(ParameterError, match=f"n={n} outside supported range 1..64"):
                FieldParams(n)

    def test_vetted_table_is_irreducible(self):
        for n, modulus in _LEAST_IRREDUCIBLE.items():
            assert modulus.bit_length() == n + 1
            assert oracles.rabin_irreducible(modulus), n

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 13])
    def test_vetted_table_is_least(self, n):
        modulus = _LEAST_IRREDUCIBLE[n]
        for candidate in range(1 << n, modulus):
            assert not oracles.rabin_irreducible(candidate)
