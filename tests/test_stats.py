import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kextract import stats
from kextract.errors import DecodeError, ParameterError, ResourceError
from kextract.extend import ExtendRequest, extend
from kextract.gf2n import field_params, multiples
from kextract.stats import (
    Dist,
    count_rows,
    dist_from_text,
    dist_to_text,
    epsilon_close_to_min_entropy,
    min_entropy,
    pushforward,
    statistical_distance,
)


def D(domain_bits, counts):
    """Dist from an {outcome: count} dict."""
    return Dist(domain_bits, list(counts), list(counts.values()))


def rational_dist(domain_bits, denominator=16):
    """Strategy: a random distribution with probabilities k/denominator."""
    size = 1 << domain_bits

    def build(cuts):
        weights = [0] * size
        for c in cuts:
            weights[c % size] += 1
        return D(domain_bits, {v: w for v, w in enumerate(weights) if w})

    return st.lists(
        st.integers(0, size - 1), min_size=denominator, max_size=denominator
    ).map(build)


class TestDist:
    def test_sum_must_be_one(self):
        # counts carry the mass, so only a zero total or non-integer
        # counts can fail to make a distribution
        for counts in ({0: 0}, {}, {0: Fraction(1, 2)}, {0: 0.5}):
            with pytest.raises(ParameterError):
                D(1, counts)

    def test_outcome_range_checked(self):
        for outcome in (2, -1):
            with pytest.raises(ParameterError):
                D(1, {outcome: 1})
        with pytest.raises(ParameterError):
            D(-1, {0: 1})

    def test_negative_probability_rejected(self):
        with pytest.raises(ParameterError):
            D(1, {0: 3, 1: -1})

    def test_counts_in_lowest_terms(self):
        d = D(2, {0: 6, 3: 2, 1: 0})
        assert d.outcomes.tolist() == [0, 1, 3] and d.counts.tolist() == [3, 0, 1]
        assert d.total == 4
        assert d == D(2, {0: 3, 3: 1, 1: 0}) != D(2, {0: 3, 3: 1})
        assert D(3, {5: 7}) == Dist.point_mass(3, 5)

    def test_probs_is_a_read_only_view(self):
        d = D(2, {0: 3, 1: 1})
        assert d.probs == {0: Fraction(3, 4), 1: Fraction(1, 4)}
        with pytest.raises(TypeError):
            d.probs[0] = Fraction(1)


class TestPushforward:
    def test_projection_is_uniform(self):
        d = pushforward(lambda x1, x2: x1, 3, 3)
        assert d == Dist.uniform(3)

    def test_constant_is_point_mass(self):
        d = pushforward(lambda x1, x2: 5, 3, 3)
        assert d == Dist.point_mass(3, 5)

    def test_budget_enforced(self):
        with pytest.raises(ResourceError):
            pushforward(lambda x1, x2: 0, 13, 1)


class TestMinEntropy:
    def test_uniform(self):
        assert min_entropy(Dist.uniform(4)) == 4.0

    def test_point_mass(self):
        assert min_entropy(Dist.point_mass(4, 11)) == 0.0

    def test_fractional_max(self):
        d = D(2, {0: 3, 1: 3, 2: 2})
        assert min_entropy(d) == pytest.approx(math.log2(8 / 3), abs=2**-40)


class TestStatisticalDistance:
    def test_identical(self):
        d = Dist.uniform(2)
        assert statistical_distance(d, d) == 0

    def test_disjoint_point_masses(self):
        assert statistical_distance(Dist.point_mass(1, 0), Dist.point_mass(1, 1)) == 1

    def test_domain_mismatch(self):
        with pytest.raises(ParameterError):
            statistical_distance(Dist.uniform(1), Dist.uniform(2))

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_half_l1_equals_max_event_gap(self, bits):
        # brute force over all 2^(2^bits) events
        size = 1 << bits
        d1 = Dist.uniform(bits)
        weights = [3] + [1] * (size - 1)
        d2 = D(bits, dict(enumerate(weights)))
        zero = Fraction(0)
        for a, b in [(d1, d2), (d2, d1)]:
            sd = statistical_distance(a, b)
            best = max(
                abs(
                    sum((a.probs.get(v, zero) for v in event), zero)
                    - sum((b.probs.get(v, zero) for v in event), zero)
                )
                for r in range(size + 1)
                for event in itertools.combinations(range(size), r)
            )
            assert sd == best

    @given(d1=rational_dist(2), d2=rational_dist(2), d3=rational_dist(2))
    def test_metric(self, d1, d2, d3):
        assert statistical_distance(d1, d2) == statistical_distance(d2, d1)
        assert statistical_distance(d1, d3) <= (
            statistical_distance(d1, d2) + statistical_distance(d2, d3)
        )
        assert (statistical_distance(d1, d2) == 0) == (d1 == d2)


class TestEpsilonCloseToMinEntropy:
    def test_uniform_needs_nothing(self):
        assert epsilon_close_to_min_entropy(Dist.uniform(3), 3) == 0

    def test_point_mass_to_one_bit(self):
        assert epsilon_close_to_min_entropy(Dist.point_mass(2, 0), 1) == Fraction(1, 2)

    def test_no_constraint(self):
        d = Dist.point_mass(2, 3)
        assert epsilon_close_to_min_entropy(d, 0) == 0

    def test_range_checked(self):
        with pytest.raises(ParameterError):
            epsilon_close_to_min_entropy(Dist.uniform(2), 3)

    @given(d=rational_dist(2, denominator=8))
    def test_capping_is_optimal_on_grid(self, d):
        # compare against brute force over all denominator-16 distributions
        # with min-entropy >= 1 (cap 1/2)
        k = 1
        eps = epsilon_close_to_min_entropy(d, k)
        cap = Fraction(1, 2)
        # the capped witness distribution is feasible and attains eps
        excess = sum(p - cap for p in d.probs.values() if p > cap)
        assert excess == eps
        # no grid distribution beats it
        best = None
        zero = Fraction(0)
        for weights in itertools.product(range(9), repeat=4):
            if sum(weights) != 16:
                continue
            q = {v: Fraction(w, 16) for v, w in enumerate(weights) if w}
            sd = (
                sum(
                    abs(d.probs.get(v, zero) - q.get(v, zero))
                    for v in set(d.probs) | set(q)
                )
                / 2
            )
            best = sd if best is None else min(best, sd)
        assert best is not None
        assert eps <= best

    def test_monotone_in_k(self):
        # relaxing the min-entropy floor can only move the target closer
        d = D(2, {0: 5, 1: 2, 2: 1})
        values = [epsilon_close_to_min_entropy(d, k) for k in (2, 1.5, 1, 0.5, 0)]
        assert values == sorted(values, reverse=True)
        assert values[-1] == 0


class TestSerialization:
    def test_round_trip(self):
        d = D(5, {0: 1, 17: 1, 31: 2})
        assert dist_from_text(dist_to_text(d)) == d

    def test_missing_header(self):
        with pytest.raises(DecodeError):
            dist_from_text("00 1/1\n")

    def test_bad_line(self):
        with pytest.raises(DecodeError):
            dist_from_text("bits 2\nzz one\n")

    def test_blank_lines_and_spacing_accepted(self):
        text = "\n  bits 2\n\n 0  1/4\t\n3 3/4\n\n"
        assert dist_from_text(text) == D(2, {0: 1, 3: 3})

    def test_mixed_and_unreduced_denominators(self):
        text = "bits 3\n1 2/6\n2 1/2\n7 1/6\n5 0/9\n"
        d = dist_from_text(text)
        assert d == D(3, {1: 2, 2: 3, 7: 1, 5: 0})
        assert dist_to_text(d) == "bits 3\n1 1/3\n2 1/2\n5 0/1\n7 1/6\n"

    @pytest.mark.parametrize(
        "text,position",
        [
            ("bits -1\n", 0),
            ("bits 2 3\n0 1/1\n", 0),
            ("bits\n", 0),
            ("bit 2\n0 1/1\n", 0),
            ("", 0),
            ("bits 2\n0 1/0\n", 1),
            ("bits 2\n0 1/2\n\n1 1/2\n0 0/1\n", 3),  # repeated outcome
            ("bits 2\n0 1/2\n01 1/2\n1 0/3\n", 3),  # same outcome, other spelling
            ("bits 2\n4 1/1\n", 1),  # outcome needs 3 bits
            ("bits 0\n1 1/1\n", 1),
            ("bits 4\nA 1/1\n", 1),
            ("bits 4\n0x1 1/1\n", 1),
            ("bits 4\n1 -1/2\n2 3/2\n", 1),
            ("bits 4\n1 +1/1\n", 1),
            ("bits 4\n1 1/1 x\n", 1),
            ("bits 4\n1 1\n", 1),
            ("bits 4\n1 1/" + "3" * 5000 + "\n", 1),
            ("bits 2\n0 1/2\n1 1/3\n", 3),  # sums to 5/6
            ("bits 2\n", 1),  # no mass
            ("bits 2\n0 0/1\n", 2),
        ],
    )
    def test_malformed_text_is_decode_error(self, text, position):
        with pytest.raises(DecodeError) as info:
            dist_from_text(text)
        assert info.value.position == position

    @given(st.text(alphabet="bits 0123456789abcdefABx/+-_\n\t", max_size=80))
    def test_fuzz_text_decodes_or_raises_decode_error(self, text):
        try:
            d = dist_from_text(text)
        except (DecodeError, ParameterError):
            return
        assert dist_from_text(dist_to_text(d)) == d

    @given(
        bits=st.integers(0, 6),
        lines=st.lists(
            st.tuples(st.integers(0, 80), st.integers(0, 9), st.integers(0, 9)),
            max_size=8,
        ),
    )
    def test_fuzz_near_valid_text(self, bits, lines):
        text = f"bits {bits}\n" + "".join(f"{v:x} {a}/{b}\n" for v, a, b in lines)
        try:
            d = dist_from_text(text)
        except (DecodeError, ParameterError):
            return
        assert sum(d.probs.values()) == 1 and len(d.counts) == len(lines)


def _random_map(seed, n, out_bits, spread):
    """fn(x1, x2) from a random table whose values use ``spread`` of the
    out_bits, so counts range from near-point-mass to near-uniform."""
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, 1 << spread, size=(1 << n, 1 << n)).tolist()
    shift = int(rng.integers(0, out_bits - spread + 1))
    return lambda x1, x2: cells[x1][x2] << shift


class TestAgainstFractionReference:
    """Byte-identical text and equal min-entropy, SD and epsilon against
    the Fraction-per-outcome distributions in tests/oracles.py."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        out_bits=st.integers(1, 12),
        spread=st.integers(0, 12),
        k_frac=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    )
    def test_pushforward_pipeline_identical(self, seed, n, out_bits, spread, k_frac):
        spread = min(spread, out_bits)
        fn = _random_map(seed, n, out_bits, spread)
        other = _random_map(seed + 1, n, out_bits, min(out_bits, spread + 1))
        d, ref = pushforward(fn, n, out_bits), oracles.fraction_pushforward(fn, n, out_bits)
        text = dist_to_text(d)
        assert text == oracles.fraction_dist_to_text(ref)
        back = dist_from_text(text)
        assert back.probs == ref.probs and dist_to_text(back) == text
        assert min_entropy(d) == oracles.fraction_min_entropy(ref)
        d2 = pushforward(other, n, out_bits)
        ref2 = oracles.fraction_pushforward(other, n, out_bits)
        u, ref_u = Dist.uniform(out_bits), oracles.FractionDist.uniform(out_bits)
        for a, b, ref_a, ref_b in [(d, d2, ref, ref2), (d, u, ref, ref_u)]:
            want = oracles.fraction_statistical_distance(ref_a, ref_b)
            assert statistical_distance(a, b) == want
        for k in (out_bits * k_frac, round(out_bits * k_frac), 1.5 if out_bits > 1 else 0):
            assert epsilon_close_to_min_entropy(d, k) == oracles.fraction_epsilon_close(ref, k)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_extend_pair_pushforward_identical(self, n):
        params = field_params(n)
        count = min(4, params.order - 1)

        def pair(x1, x2):
            outs = extend(ExtendRequest(x1, x2, count, params)).outputs
            return outs[0] << n | outs[-1]

        d, ref = pushforward(pair, n, 2 * n), oracles.fraction_pushforward(pair, n, 2 * n)
        assert dist_to_text(d) == oracles.fraction_dist_to_text(ref)
        assert min_entropy(d) == oracles.fraction_min_entropy(ref)
        u, ru = Dist.uniform(2 * n), oracles.FractionDist.uniform(2 * n)
        assert statistical_distance(d, u) == oracles.fraction_statistical_distance(ref, ru)
        assert epsilon_close_to_min_entropy(d, 2 * n) == oracles.fraction_epsilon_close(ref, 2 * n)


def _dict_probs(counts):
    total = sum(counts.values())
    return {v: Fraction(c, total) for v, c in counts.items()}


class TestAgainstDictReference:
    """The arrays against the dict-of-counts pushforward, writer and
    parser kept in tests/oracles.py."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        out_bits=st.integers(1, 12),
        spread=st.integers(0, 12),
    )
    def test_random_map_counts_and_text(self, seed, n, out_bits, spread):
        fn = _random_map(seed, n, out_bits, min(spread, out_bits))
        d, ref = pushforward(fn, n, out_bits), oracles.dict_pushforward(fn, n)
        assert d.probs == _dict_probs(ref)
        text = dist_to_text(d)
        assert text == oracles.dict_dist_to_text(out_bits, ref)
        bits, back = oracles.dict_dist_from_text(text)
        assert bits == out_bits and dist_from_text(text) == d
        assert _dict_probs(back) == d.probs

    @settings(max_examples=60, deadline=None)
    @given(
        bits=st.integers(0, 64),
        data=st.data(),
    )
    def test_wide_outcomes_and_large_counts(self, bits, data):
        # outcomes up to 64 bits and counts up to 2^62, whose totals stay
        # below 2^63 and whose SD needs the lcm of two such totals
        def draw_dist():
            size = data.draw(st.integers(1, min(6, 1 << bits)))
            outcomes = data.draw(st.lists(
                st.integers(0, (1 << bits) - 1), min_size=size, max_size=size, unique=True
            ))
            counts = data.draw(st.lists(
                st.integers(0, 1 << (62 - 3)), min_size=size, max_size=size
            ).filter(any))
            return dict(zip(outcomes, counts))

        ref1, ref2 = draw_dist(), draw_dist()
        d1, d2 = D(bits, ref1), D(bits, ref2)
        text = dist_to_text(d1)
        assert text == oracles.dict_dist_to_text(bits, ref1)
        assert dist_from_text(text) == d1 and d1.probs == _dict_probs(ref1)
        f1, f2 = (oracles.FractionDist(bits, _dict_probs(r)) for r in (ref1, ref2))
        assert statistical_distance(d1, d2) == oracles.fraction_statistical_distance(f1, f2)
        assert min_entropy(d1) == oracles.fraction_min_entropy(f1)
        for k in (0, bits / 3, bits // 2, bits):
            assert epsilon_close_to_min_entropy(d1, k) == oracles.fraction_epsilon_close(f1, k)

    def test_sd_past_int64_uses_exact_ints(self):
        # two totals whose lcm passes 2^63: the scaled counts do too
        p, q = (1 << 61) - 1, (1 << 31) - 1  # Mersenne primes
        d1, d2 = D(1, {0: 1, 1: p - 1}), D(1, {0: q - 1, 1: 1})
        f1, f2 = (
            oracles.FractionDist(1, {0: Fraction(a, t), 1: Fraction(t - a, t)})
            for a, t in ((1, p), (q - 1, q))
        )
        assert math.lcm(d1.total, d2.total) > (1 << 63)
        assert statistical_distance(d1, d2) == oracles.fraction_statistical_distance(f1, f2)

    def test_counting_extend_pair_n10_memory(self):
        # the Counter over 2^20 Python ints that this replaced peaked at
        # about 120 MB; the dense counts take 8 MB each
        n = 10
        cols = [np.array(multiples(e, 1 << n, field_params(n)), np.uint64) for e in (3, 5)]

        def rows(x1):
            z = [x1[:, None] ^ col for col in cols]
            return (z[0] << np.uint64(n) | z[1]).ravel()

        tracemalloc.start()
        try:
            d = count_rows(rows, n, 2 * n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d == Dist.uniform(2 * n)
        assert peak < 48 << 20


class TestLimits:
    """Outcomes wider than 64 bits and totals past int64 are refused."""

    def test_64_bit_outcomes_round_trip(self):
        d = D(64, {0: 1, (1 << 64) - 1: 3})
        text = dist_to_text(d)
        assert text == "bits 64\n0000000000000000 1/4\nffffffffffffffff 3/4\n"
        assert dist_from_text(text) == d
        assert pushforward(lambda x1, x2: (1 << 64) - 1 - x1, 1, 64) == D(
            64, {(1 << 64) - 2: 1, (1 << 64) - 1: 1}
        )

    def test_wider_outcomes_refused(self):
        for build in (
            lambda: D(65, {0: 1}),
            lambda: D(64, {1 << 64: 1}),
            lambda: Dist.uniform(65),
            lambda: pushforward(lambda x1, x2: 1 << 64, 1, 64),
            lambda: pushforward(lambda x1, x2: -1, 1, 64),
            lambda: pushforward(lambda x1, x2: 0, 1, 65),
        ):
            with pytest.raises(ParameterError):
                build()
        with pytest.raises(DecodeError) as info:
            dist_from_text("bits 65\n0 1/1\n")
        assert info.value.position == 0
        with pytest.raises(DecodeError) as info:  # within 64 bits it is the range check
            dist_from_text("bits 64\n10000000000000000 1/1\n")
        assert info.value.position == 1

    def test_total_past_int64_refused(self):
        with pytest.raises(ParameterError, match="2\\^63"):
            D(1, {0: 1 << 62, 1: (1 << 62) + 1})
        assert D(1, {0: 1 << 62, 1: (1 << 62) - 1}).total == (1 << 63) - 1
        with pytest.raises(ParameterError):
            D(1, {0: 1 << 63})

    @pytest.mark.parametrize(
        "text,position",
        [
            ("bits 1\n0 1/9223372036854775807\n1 9223372036854775806/9223372036854775807\n", None),
            ("bits 1\n0 1/9223372036854775808\n1 1/2\n", 1),  # a denominator past 2^63 - 1
            ("bits 1\n0 9223372036854775808/9223372036854775808\n", 1),
            ("bits 1\n0 1/" + "0" * 30 + "2\n1 1/2\n", None),  # zeros beyond 19 places
            ("bits 2\n0 1/4611686018427387904\n1 1/3\n2 1/5\n", 4),  # lcm past 2^63 - 1
        ],
    )
    def test_denominator_limit(self, text, position):
        _assert_parses_like_reference(text)
        if position is None:
            assert dist_from_text(text).total <= (1 << 63) - 1
            return
        with pytest.raises(DecodeError) as info:
            dist_from_text(text)
        assert info.value.position == position


def _assert_parses_like_reference(text):
    """Same verdict, and same DecodeError position, as today's loop with
    the array limits."""
    try:
        bits, counts = oracles.dict_dist_from_text(text, limits=True)
    except DecodeError as exc:
        with pytest.raises(DecodeError) as info:
            dist_from_text(text)
        assert info.value.position == exc.position, (text, str(exc), str(info.value))
        return
    d = dist_from_text(text)
    assert d.domain_bits == bits and d.probs == _dict_probs(counts)


_SPACE = st.sampled_from([" ", "\t", "  ", "\xa0", "\u3000", "\x1f", ""])
_BREAK = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\n \n"])


@st.composite
def _near_valid_text(draw):
    """Distribution text with random spacing, line breaks, number sizes
    and one-character damage."""
    bits = draw(st.sampled_from([0, 1, 2, 3, 5, 8, 63, 64, 65, 99]))
    size = draw(st.integers(0, 6))
    number = st.one_of(
        st.integers(0, 9), st.integers(0, 1 << 64), st.sampled_from([(1 << 63) - 1, 1 << 63])
    )
    parts = [draw(_SPACE), f"bits{draw(_SPACE) or ' '}{bits}", draw(_BREAK)]
    for _ in range(size):
        outcome = draw(st.integers(0, (1 << min(bits, 66)) + 1))
        digits = draw(st.sampled_from(["", "0", "000"])) + f"{outcome:x}"
        num, den = draw(number), draw(number)
        line = f"{draw(_SPACE)}{digits}{draw(_SPACE) or ' '}{num}/{den}{draw(_SPACE)}"
        if draw(st.integers(0, 4)) == 0:  # damage one character
            k = draw(st.integers(0, len(line)))
            line = line[:k] + draw(st.sampled_from(["/", "x", "A", " ", "-", "é", ""])) + line[k + 1:]
        parts += [line, draw(_BREAK)]
    return "".join(parts)


class TestParserAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="bits 0123456789abcdefABx/+-_\n\t\r\x0b\x85\u2028\xa0é", max_size=80))
    def test_fuzzed_text(self, text):
        _assert_parses_like_reference(text)

    @settings(max_examples=300, deadline=None)
    @given(_near_valid_text())
    def test_near_valid_text(self, text):
        _assert_parses_like_reference(text)

    @settings(max_examples=100, deadline=None)
    @given(
        bits=st.integers(1, 8),
        lines=st.lists(st.tuples(st.integers(0, 255), st.integers(0, 3), st.integers(1, 4)), max_size=8),
        prefix=st.text(alphabet="bits 0123456789abcdef/\n", max_size=8),
    )
    def test_exact_sums(self, bits, lines, prefix):
        # near-valid bodies whose masses often sum to exactly 1
        body = "".join(f"{v % (1 << bits):x} {a}/{b}\n" for v, a, b in lines)
        for text in (f"bits {bits}\n{body}", prefix + body):
            _assert_parses_like_reference(text)

    def test_chunks_keep_line_positions(self, monkeypatch):
        # a bad line past the first chunk, and a repeat across chunks
        import kextract.stats as stats

        monkeypatch.setattr(stats, "TEXT_CHUNK", 16)
        good = dist_to_text(Dist.uniform(6))
        assert dist_from_text(good) == Dist.uniform(6)
        lines = good.splitlines(keepends=True)
        for k, bad in ((40, "zz 1/64\n"), (50, lines[3]), (64, "\n\n00 0/0\n")):
            text = "".join(lines[:k] + [bad] + lines[k + 1:])
            _assert_parses_like_reference(text)


def _readers_agree(chunk, bits):
    """``_read_written``'s result, after checking that when it reads the
    chunk it returns exactly what the line reader returns."""
    fast = stats._read_written(chunk, bits)
    if fast is not None:
        slow = stats._parse_lines(chunk, bits, 1)
        assert fast[0] == slow[0] and fast[4] is None and slow[4] is None, (chunk, slow[4])
        for a, b in zip(fast[1:4], slow[1:4]):
            assert a.dtype == b.dtype == np.uint64 and np.array_equal(a, b), chunk
    return fast


@st.composite
def _written_dist(draw):
    """A Dist whose text has wide outcomes and masses of up to 19 digits."""
    bits = draw(st.sampled_from([0, 1, 2, 5, 8, 63, 64]))
    size = draw(st.integers(1, min(6, 1 << bits)))
    outcomes = draw(st.lists(
        st.integers(0, (1 << bits) - 1), min_size=size, max_size=size, unique=True
    ))
    counts = draw(st.lists(st.integers(0, 1 << 59), min_size=size, max_size=size).filter(any))
    return Dist(bits, outcomes, counts)


class TestTwoReaders:
    """The numpy reader takes exactly what ``dist_to_text`` writes and
    agrees with the line reader on every chunk it takes."""

    @settings(max_examples=300, deadline=None)
    @given(text=_near_valid_text(), bits=st.sampled_from([0, 1, 5, 8, 63, 64]))
    def test_near_valid_chunks(self, text, bits):
        _readers_agree(text[stats._FIRST_LINE.match(text).end():], bits)

    @settings(max_examples=300, deadline=None)
    @given(d=_written_dist(), data=st.data())
    def test_damaged_written_chunks(self, d, data):
        text = dist_to_text(d)
        chunk = text[text.index("\n"):]  # as dist_from_text cuts it
        assert _readers_agree(chunk, d.domain_bits) is not None
        for _ in range(data.draw(st.integers(1, 3))):
            k = data.draw(st.integers(0, len(chunk)))
            cut = data.draw(st.integers(0, 1))
            byte = data.draw(st.sampled_from(["\n", " ", "/", "0", "9", "a", "f", "g", "\r", "\t", "é", ""]))
            chunk = chunk[:k] + byte + chunk[k + cut:]
        bits = data.draw(st.sampled_from([d.domain_bits, max(0, d.domain_bits - 1)]))
        _readers_agree(chunk, bits)

    @settings(max_examples=100, deadline=None)
    @given(d=_written_dist(), size=st.integers(1, 64))
    def test_written_text_never_reaches_the_line_reader(self, d, size):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stats, "_parse_lines", _no_line_reader)
            mp.setattr(stats, "TEXT_CHUNK", size)
            assert dist_from_text(dist_to_text(d)) == d

    @pytest.mark.parametrize("d", [
        Dist.uniform(0), Dist.uniform(1), Dist.uniform(17),  # 17: two chunks
        D(63, {0: 1, (1 << 63) - 1: (1 << 62) - 1}),
        D(64, {0: 1, (1 << 64) - 1: (1 << 63) - 2}),  # 19-digit masses
    ])
    def test_written_text_never_reaches_the_line_reader_at_the_limits(self, d, monkeypatch):
        text = dist_to_text(d)
        monkeypatch.setattr(stats, "_parse_lines", _no_line_reader)
        assert dist_from_text(text) == d
        if d.domain_bits == 17:
            assert len(text) > stats.TEXT_CHUNK
        if d.domain_bits == 64:
            assert "/9223372036854775807\n" in text

    @pytest.mark.parametrize("odd,error", [("05 1/64\r\n", None), ("05 1/64 \n", None), ("05 1/0\n", 6)])
    def test_one_odd_line_sends_only_its_chunk(self, monkeypatch, odd, error):
        monkeypatch.setattr(stats, "TEXT_CHUNK", 64)
        seen, parse_lines = [], stats._parse_lines

        def line_reader(chunk, bits, first):
            seen.append(chunk)
            return parse_lines(chunk, bits, first)

        monkeypatch.setattr(stats, "_parse_lines", line_reader)
        lines = dist_to_text(Dist.uniform(6)).splitlines(keepends=True)
        text = "".join(lines[:6] + [odd] + lines[7:])
        if error is None:
            assert dist_from_text(text) == Dist.uniform(6)
        else:
            with pytest.raises(DecodeError) as info:
                dist_from_text(text)
            assert info.value.position == error
        assert len(seen) == 1 and odd in seen[0] and len(seen[0]) < len(text) // 4


def _no_line_reader(chunk, bits, first):
    raise AssertionError(f"the line reader got {chunk[:40]!r}")
