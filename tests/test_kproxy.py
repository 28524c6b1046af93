import hashlib
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fixtures_backends import FIXTURES
from oracles import concat_decode
from kextract.errors import BackendError, DecodeError, ParameterError
from kextract.kproxy import (
    BACKENDS,
    DEFAULT_BACKEND,
    concat_encode,
    dependency,
    get_backend,
    k_estimate,
    symmetry_diagnostic,
)

LZMA = BACKENDS["lzma"]


def stream(seed: bytes, size: int) -> bytes:
    """Deterministic incompressible bytes from a hash counter stream."""
    out = bytearray()
    counter = 0
    while len(out) < size:
        out.extend(hashlib.sha256(seed + counter.to_bytes(8, "big")).digest())
        counter += 1
    return bytes(out[:size])


bitstrings = st.text(alphabet="01", max_size=40)


class TestConcatCodec:
    def test_reference_encoding(self):
        assert concat_encode("101", "00") == "11110110100"
        assert len(concat_encode("101", "00")) == 11

    def test_smallest_first_part(self):
        assert concat_encode("1", "") == "11011"

    def test_reference_decodes(self):
        assert concat_decode("11110110100") == ("101", "00")
        assert concat_decode("11011") == ("1", "")

    def test_length_formula_all_lengths(self):
        for la in range(1, 65):
            a = format((1 << la) - 1, "b")[:la]
            for b in ("", "1", "0" * 17):
                enc = concat_encode(a, b)
                assert len(enc) == la + len(b) + 2 * int(math.log2(la)) + 4

    def test_round_trip_exhaustive_small(self):
        for la in range(1, 9):
            for av in range(1 << la):
                a = format(av, f"0{la}b")
                for lb in range(0, 5):
                    for bv in range(1 << lb):
                        b = format(bv, f"0{lb}b") if lb else ""
                        assert concat_decode(concat_encode(a, b)) == (a, b)

    def test_empty_first_part_rejected(self):
        with pytest.raises(ParameterError):
            concat_encode("", "101")

    def test_non_bit_characters_rejected(self):
        with pytest.raises(ParameterError):
            concat_encode("102", "")
        with pytest.raises(DecodeError):
            concat_decode("11012")

    def test_unpaired_prefix_rejected(self):
        with pytest.raises(DecodeError) as exc:
            concat_decode("10")
        assert exc.value.position == 0

    def test_truncations_rejected(self):
        for s in ("", "1", "11", "110", "1101"):
            with pytest.raises(DecodeError):
                concat_decode(s)
        # declared length 3 but only 2 payload bits
        with pytest.raises(DecodeError):
            concat_decode("1111" + "01" + "10")

    def test_leading_zero_length_rejected(self):
        with pytest.raises(DecodeError):
            concat_decode("00" + "01" + "0")

    @given(a=bitstrings.filter(lambda s: len(s) >= 1), b=bitstrings)
    def test_round_trip_random(self, a, b):
        assert concat_decode(concat_encode(a, b)) == (a, b)

    @given(garbage=bitstrings)
    def test_decode_never_misparses_prefix(self, garbage):
        # decode either raises or returns parts consistent with re-encoding
        try:
            a, b = concat_decode(garbage)
        except DecodeError:
            return
        assert concat_encode(a, b) == garbage

    @given(text=st.one_of(st.text(max_size=60), st.text(alphabet="01", max_size=200)))
    def test_fuzz_decodes_or_raises_decode_error(self, text):
        assert_decodes_or_decode_error(text)

    @given(
        a=st.text(alphabet="01", min_size=1, max_size=300),
        b=bitstrings,
        cut=st.integers(0, 400),
        ch=st.sampled_from(["0", "1", "2", " ", "\n", "\u00e9"]),
    )
    def test_fuzz_near_valid_encodings(self, a, b, cut, ch):
        enc = concat_encode(a, b)
        assert concat_decode(enc) == (a, b)
        for text in (enc[:cut], enc[:cut] + ch + enc[cut:], enc[:cut] + enc[cut + 1:]):
            assert_decodes_or_decode_error(text)


def assert_decodes_or_decode_error(text):
    """concat_decode succeeds on a valid encoding and raises DecodeError,
    with a position inside the text, on anything else."""
    try:
        a, b = concat_decode(text)
    except DecodeError as exc:
        assert 0 <= exc.position <= len(text)
        return
    assert concat_encode(a, b) == text


class TestBackends:
    def test_unknown_backend(self):
        with pytest.raises(BackendError) as exc:
            get_backend("zpaq")
        assert exc.value.backend == "zpaq"

    def test_default_is_shipped(self):
        assert DEFAULT_BACKEND in BACKENDS

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_deterministic_and_round_trips(self, name):
        comp = BACKENDS[name]
        data = stream(b"det", 4096)
        once, twice = comp.compress(data), comp.compress(data)
        assert once == twice
        assert comp.decompress(once) == data

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_empty_input_constant(self, name):
        comp = BACKENDS[name]
        assert k_estimate(b"", comp) == FIXTURES[name]["empty_bits"]


class TestKEstimate:
    def test_zeros_compress_hard(self):
        zeros = bytes(10**5)
        assert k_estimate(zeros, LZMA) < 8 * 10**5 / 100

    def test_incompressible_stream_near_raw_size(self):
        data = stream(b"rand", 10**5)
        est = k_estimate(data, LZMA)
        assert abs(est - 8 * 10**5) <= 0.02 * 8 * 10**5

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_subadditive_on_independent_blocks(self, name):
        comp = BACKENDS[name]
        slack = FIXTURES[name]["subadd_slack_bits"]
        for trial in range(5):
            x = stream(b"sub-x%d" % trial, 16384)
            y = stream(b"sub-y%d" % trial, 16384)
            assert k_estimate(x + y, comp) <= (
                k_estimate(x, comp) + k_estimate(y, comp) + slack
            )


def conditional_k(x: bytes, y: bytes) -> int:
    """k(x | y) = max(0, k(y.x) - k(y)), read back from ``dependency``."""
    est = dependency(x, y, LZMA, alpha=0.0)
    return est.kx - est.alpha_x_raw


class TestConditional:
    def test_self_is_cheap(self):
        x = stream(b"cc", 16384)
        assert conditional_k(x, x) <= 0.05 * k_estimate(x, LZMA)

    def test_empty_condition_subtracts_empty_baseline(self):
        x = stream(b"ce", 4096)
        expected = k_estimate(x, LZMA) - FIXTURES["lzma"]["empty_bits"]
        assert conditional_k(x, b"") == expected

    def test_independent_condition_is_useless(self):
        x = stream(b"ci-x", 16384)
        y = stream(b"ci-y", 16384)
        got = conditional_k(x, y)
        assert got >= 0.9 * k_estimate(x, LZMA)


class TestDependency:
    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_self_dependency_drop(self, name):
        comp = BACKENDS[name]
        frac = FIXTURES[name]["self_drop_min_frac"]
        x = stream(b"dep-self", 65536)
        est = dependency(x, x, comp, alpha=64.0)
        assert est.alpha_x >= frac * est.kx
        assert est.alpha_y >= frac * est.ky
        assert not est.verdict

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_independent_inputs_small_drops(self, name):
        comp = BACKENDS[name]
        frac = FIXTURES[name]["ind_drop_max_frac"]
        x = stream(b"dep-ind-x", 65536)
        y = stream(b"dep-ind-y", 65536)
        est = dependency(x, y, comp, alpha=0.05 * 8 * len(x))
        assert est.alpha_x <= frac * 8 * len(x)
        assert est.alpha_y <= frac * 8 * len(y)
        assert est.verdict

    def test_empty_inputs_within_backend_constant(self):
        x = stream(b"dep-e", 8192)
        est = dependency(x, b"", LZMA, alpha=FIXTURES["lzma"]["empty_bits"])
        assert est.verdict

    def test_nan_alpha_rejected(self):
        x = stream(b"nan", 256)
        with pytest.raises(ParameterError, match="alpha"):
            dependency(x, x, LZMA, alpha=math.nan)

    @pytest.mark.parametrize("alpha", [-5.0, -1e-9, -math.inf])
    def test_negative_alpha_rejected(self, alpha):
        # alpha is a number of bits: a negative one made every pair DEPENDENT
        x = stream(b"neg", 256)
        with pytest.raises(ParameterError, match="alpha must be >= 0"):
            dependency(x, x, LZMA, alpha=alpha)

    def test_clamping(self):
        x = stream(b"cl", 2048)
        est = dependency(x, x, LZMA, alpha=16.0)
        assert est.dep >= 0 and est.alpha_x >= 0 and est.alpha_y >= 0
        assert est.dep == max(0, est.dep_raw)


class TestSymmetryDiagnostic:
    def test_identical_inputs(self):
        x = stream(b"sym", 16384)
        diag = symmetry_diagnostic(x, x, LZMA)
        kx = k_estimate(x, LZMA)
        assert diag.lhs_drop >= 0.9 * kx
        assert diag.rhs_drop >= 0.9 * kx
        assert diag.abs_diff <= 0.05 * kx

    def test_empty_second_input(self):
        x = stream(b"sym-e", 8192)
        diag = symmetry_diagnostic(x, b"", LZMA)
        empty = FIXTURES["lzma"]["empty_bits"]
        assert diag.lhs_drop <= empty
        assert diag.rhs_drop <= empty

    def test_corpus_of_random_pairs(self):
        bound = FIXTURES["lzma"]["symmetry_corpus_max_bits"]
        worst = 0
        for trial in range(10):
            x = stream(b"cor-x%d" % trial, 16384)
            y = stream(b"cor-y%d" % trial, 16384)
            worst = max(worst, symmetry_diagnostic(x, y, LZMA).abs_diff)
        assert worst <= bound
