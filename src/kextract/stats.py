"""Exact small-scale distribution checks with integer counts in arrays.

A distribution on {0,1}^bits is a sorted uint64 array of distinct
outcomes and an int64 array of their counts, in lowest terms (divided
by their gcd; outcomes with count 0 are kept), plus the counts' total.
Outcome v has probability count/total exactly, so statements like
"exactly uniform" are decided with no floating-point drift.

One kernel, ``count_rows``, counts a map over all pairs of n-bit inputs
a block of rows at a time; ``pushforward`` feeds it one Python call per
pair, and vectorised maps feed it whole rows.  The text format is
written and parsed in numpy blocks.

Min-entropy, statistical distance and epsilon-closeness are array
reductions in int64.  Python ints appear only where a value can pass
int64: the exact sum of a count array (taken in 32-bit halves), the
counts scaled to the lcm of two totals in statistical distance when
that lcm passes int64, and the cap times the total in
epsilon-closeness.  Floats appear only at the final log step of
min-entropy.

Limits: outcomes must fit in 64 bits (domain_bits <= 64) and the total
in int64 (<= 2^63 - 1).  Anything larger is refused, with ParameterError
here and DecodeError from ``dist_from_text``.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Iterator, Mapping

import numpy as np

from .errors import DecodeError, ParameterError, ResourceError

# Hard default: pair enumeration up to n = 12, i.e. 2^24 evaluations.
DEFAULT_ENUM_BUDGET = 1 << 24

MAX_BITS = 64
INT64_MAX = (1 << 63) - 1

# Values per block of the counting kernel, lines per block of the text
# writer, and characters per chunk of the text parser: each bounds the
# working memory of its loop.
BLOCK = 1 << 16
TEXT_CHUNK = 1 << 20


def _exact_sum(a: np.ndarray) -> int:
    """Exact sum of nonnegative int64s (fewer than 2^31 of them)."""
    return (int((a >> 32).sum()) << 32) + int((a & 0xFFFFFFFF).sum())


def _check_bits(bits: int) -> None:
    if not 0 <= bits <= MAX_BITS:
        raise ParameterError(f"domain_bits={bits} out of range 0..{MAX_BITS}")


def _int_array(values, dtype, what: str) -> np.ndarray:
    """``values`` (an integer array, or a sequence of ints) as a 1-D
    array of ``dtype``, refusing anything that does not convert exactly."""
    name = np.dtype(dtype).name
    if not isinstance(values, np.ndarray):
        values = list(values)
        if not all(isinstance(v, (int, np.integer)) for v in values):
            raise ParameterError(f"{what}s must be integers")
        try:
            values = np.array(values, dtype)
        except OverflowError:
            raise ParameterError(f"{what}s must fit in {name}") from None
    if values.dtype.kind not in "iu":
        raise ParameterError(f"{what}s must be integers")
    if values.size and (values.min() < 0 or values.max() > np.iinfo(dtype).max):
        raise ParameterError(f"{what}s must fit in {name}")
    return values.astype(dtype, copy=False)


@dataclass(frozen=True, eq=False)
class Dist:
    """A probability distribution on {0,1}^domain_bits.

    ``outcomes`` (uint64, strictly increasing) and ``counts`` (int64,
    nonnegative, in lowest terms) are read-only arrays; outcome
    outcomes[k] has probability counts[k] / total.  Any integer arrays
    or sequences are accepted and sorted by outcome; repeated outcomes
    are refused.
    """

    domain_bits: int
    outcomes: np.ndarray
    counts: np.ndarray
    total: int = field(init=False)

    def __post_init__(self):
        bits = self.domain_bits
        _check_bits(bits)
        outcomes = _int_array(self.outcomes, np.uint64, "outcome")
        counts = _int_array(self.counts, np.int64, "count")
        if outcomes.ndim != 1 or outcomes.shape != counts.shape:
            raise ParameterError("outcomes and counts must be 1-D and of one length")
        if len(outcomes) and bits < MAX_BITS and outcomes.max() >> bits:
            raise ParameterError(f"an outcome does not fit in {bits} bits")
        if not np.all(outcomes[1:] > outcomes[:-1]):
            order = np.argsort(outcomes, kind="stable")
            outcomes, counts = outcomes[order], counts[order]
            if np.any(outcomes[1:] == outcomes[:-1]):
                raise ParameterError("an outcome is listed twice")
        g = int(np.gcd.reduce(counts)) if len(counts) else 0
        if g == 0:
            raise ParameterError("counts sum to 0; a distribution needs mass")
        if g > 1:
            counts = counts // g
        total = _exact_sum(counts)
        if total > INT64_MAX:
            raise ParameterError(f"counts total {total}, over the limit 2^63 - 1")
        for name, a in (("outcomes", outcomes), ("counts", counts)):
            a = a.view()  # read-only here, whoever else holds the data
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "total", total)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dist):
            return NotImplemented
        return (
            self.domain_bits == other.domain_bits
            and np.array_equal(self.outcomes, other.outcomes)
            and np.array_equal(self.counts, other.counts)
        )

    @property
    def probs(self) -> Mapping[int, Fraction]:
        """Read-only view of each outcome's exact probability."""
        t = self.total
        pairs = zip(self.outcomes.tolist(), self.counts.tolist())
        return MappingProxyType({v: Fraction(c, t) for v, c in pairs})

    @classmethod
    def uniform(cls, domain_bits: int) -> "Dist":
        _check_bits(domain_bits)
        size = 1 << domain_bits
        return cls(domain_bits, np.arange(size, dtype=np.uint64), np.ones(size, np.int64))

    @classmethod
    def point_mass(cls, domain_bits: int, outcome: int) -> "Dist":
        return cls(domain_bits, [outcome], [1])


def check_pushforward_budget(n: int, budget: int = DEFAULT_ENUM_BUDGET) -> None:
    """Raise ResourceError when the 2^(2n) evaluations of a pushforward
    over n-bit inputs exceed ``budget``."""
    evals = 1 << (2 * n)
    if evals > budget:
        raise ResourceError(
            f"pushforward needs {evals} evaluations, over budget {budget}"
        )


def count_rows(
    rows: Callable[[np.ndarray], np.ndarray],
    n: int,
    out_bits: int,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> Dist:
    """Exact distribution of a map under uniform independent n-bit inputs.

    ``rows(x1)`` gets a block of consecutive first inputs (uint64) and
    returns the map's values at (x1[k], x2) for every x2 < 2^n,
    row-major, as unsigned ints below 2^out_bits.  A block of about
    BLOCK values at a time is added in place into one dense count array
    (np.add.at) when there are at most four outcomes per evaluation;
    else the values are gathered and counted with np.unique.  Rejects
    the run up front when its 2^(2n) evaluations exceed ``budget``.
    """
    check_pushforward_budget(n, budget)
    _check_bits(out_bits)
    N = 1 << n
    size = 1 << out_bits
    dense = size <= 4 * N * N
    step = max(1, BLOCK >> n)
    counts = np.zeros(size if dense else 0, np.int64)
    seen = []
    for lo in range(0, N, step):
        values = np.asarray(rows(np.arange(lo, min(lo + step, N), dtype=np.uint64)))
        if out_bits < MAX_BITS and values.max() >> out_bits:
            raise ParameterError(f"an outcome does not fit in {out_bits} bits")
        if dense:
            np.add.at(counts, values.astype(np.intp), 1)
        else:
            seen.append(values.astype(np.uint64))
    if dense:
        outcomes = np.flatnonzero(counts)
        counts = counts[outcomes]  # frees the dense array
        return Dist(out_bits, outcomes.view(np.uint64), counts)
    return Dist(out_bits, *np.unique(np.concatenate(seen), return_counts=True))


def pushforward(
    fn: Callable[[int, int], int],
    n: int,
    out_bits: int,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> Dist:
    """Exact distribution of fn(x1, x2) under uniform independent n-bit inputs.

    Calls fn once per input pair, a block of rows at a time, gathering
    its values with np.fromiter for ``count_rows``.  Rejects the run up
    front when the 2^(2n) pairs exceed ``budget`` evaluations.
    """
    N = 1 << n

    def rows(x1: np.ndarray) -> np.ndarray:
        firsts = np.repeat(x1, N).tolist()
        try:
            return np.fromiter(
                map(fn, firsts, list(range(N)) * len(x1)), np.uint64, len(firsts)
            )
        except OverflowError:  # negative, or 2^64 and up
            raise ParameterError(f"an outcome does not fit in {out_bits} bits") from None

    return count_rows(rows, n, out_bits, budget)


def min_entropy(d: Dist) -> float:
    """-log2 of the largest probability (0.0 for a point mass).

    Exact rational input; the result is a float good to well below 2^-40.
    """
    top = int(d.counts.max())
    g = math.gcd(top, d.total)  # logs of the fraction in lowest terms
    return math.log2(d.total // g) - math.log2(top // g)


def _counts_on(d: Dist, outcomes: np.ndarray) -> np.ndarray:
    """d's counts on a sorted superset of its outcomes."""
    counts = np.zeros(len(outcomes), np.int64)
    counts[np.searchsorted(outcomes, d.outcomes)] = d.counts
    return counts


def statistical_distance(d1: Dist, d2: Dist) -> Fraction:
    """Largest probability gap over all events: half the L1 distance."""
    if d1.domain_bits != d2.domain_bits:
        raise ParameterError("distributions live on different domains")
    if np.array_equal(d1.outcomes, d2.outcomes):
        c1, c2 = d1.counts, d2.counts
    else:
        outcomes = np.union1d(d1.outcomes, d2.outcomes)
        c1, c2 = _counts_on(d1, outcomes), _counts_on(d2, outcomes)
    den = math.lcm(d1.total, d2.total)
    s1, s2 = den // d1.total, den // d2.total
    if den <= INT64_MAX:  # every c * s is at most den
        l1 = _exact_sum(np.abs(c1 * s1 - c2 * s2))
    else:  # c * s can pass int64
        l1 = sum(abs(a * s1 - b * s2) for a, b in zip(c1.tolist(), c2.tolist()))
    return Fraction(l1, 2 * den)


def epsilon_close_to_min_entropy(d: Dist, k_bits: float) -> Fraction:
    """Distance from d to the nearest distribution with min-entropy >= k_bits.

    Cap every probability at 2^-k_bits and move the excess onto under-cap
    outcomes; the total excess is the exact optimum.  Integral k_bits keep
    the cap (and so the answer) exactly rational.
    """
    if not 0 <= k_bits <= d.domain_bits:
        raise ParameterError(
            f"k_bits={k_bits} out of range 0..{d.domain_bits}"
        )
    if float(k_bits).is_integer():
        cap = Fraction(1, 1 << int(k_bits))
    else:
        cap = Fraction(2.0 ** -float(k_bits))
    # c/total > a/b  <=>  c > floor(a*total/b), a bound <= total since cap <= 1
    a, b = cap.numerator, cap.denominator
    over = d.counts[d.counts > a * d.total // b]
    excess = _exact_sum(over) * b - len(over) * a * d.total
    return Fraction(excess, d.total * b)


# Each byte's two lowercase hex digits, as one uint16 of two ASCII bytes,
# and each 16-bit word's four, as one uint32.
_HEX_PAIRS = np.frombuffer(b"".join(b"%02x" % k for k in range(256)), np.uint16)
_HEX_QUADS = np.stack(
    np.broadcast_arrays(_HEX_PAIRS[:, None], _HEX_PAIRS[None, :]), axis=-1
).view(np.uint32).ravel()


def _mass_index(counts: np.ndarray) -> tuple[np.ndarray, Callable[[slice], np.ndarray]]:
    """The sorted distinct counts, and a map from a slice of ``counts``
    to their indices among them: by a table over 0..max when that is no
    longer than the array, else by np.unique's inverse."""
    top = int(counts.max())
    if top >= len(counts):
        values, inverse = np.unique(counts, return_inverse=True)
        return values, inverse.__getitem__
    seen = np.zeros(top + 1, bool)
    seen[counts] = True
    rank = np.cumsum(seen) - 1
    return np.flatnonzero(seen), lambda part: rank[counts[part]]


def _text_rows(outcomes: np.ndarray, width: int, lines: np.ndarray) -> bytes:
    """One block of text: each outcome's last ``width`` hex digits (from
    the last big-endian 16-bit words that hold them), then its row of
    ``lines``, with the zero bytes that pad those rows dropped.  Only
    the returned bytes outlive the call."""
    words = -(-width // 4)
    last = outcomes.astype(">u8").view(">u2").reshape(-1, 4)[:, 4 - words:]
    digits = np.take(_HEX_QUADS, last).view(np.uint8)
    rows = np.hstack((digits[:, 4 * words - width:], lines))
    del last, digits
    return rows[rows != 0].tobytes()


def _text_blocks(d: Dist) -> Iterator[bytes]:
    """``dist_to_text`` as ASCII bytes: the header, then BLOCK lines at a
    time, each line's mass taken from a table of the distinct masses."""
    width = max(1, (d.domain_bits + 3) // 4)
    values, index = _mass_index(d.counts)
    g = np.gcd(values, d.total)
    masses = np.array(
        [f" {c}/{t}\n".encode() for c, t in zip((values // g).tolist(), (d.total // g).tolist())]
    )
    masses = masses.view(np.uint8).reshape(len(values), -1)
    yield f"bits {d.domain_bits}\n".encode()
    for lo in range(0, len(d.outcomes), BLOCK):
        part = slice(lo, lo + BLOCK)
        yield _text_rows(d.outcomes[part], width, np.take(masses, index(part), axis=0))


def dist_to_text(d: Dist) -> str:
    """Serialize: a ``bits n`` header, then ``outcome_hex num/den`` lines
    in outcome order, each probability in lowest terms."""
    return b"".join(_text_blocks(d)).decode("ascii")


# The str.splitlines() boundaries; each is also whitespace.
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_FIRST_LINE = re.compile(rf"\s*([^{_BREAKS}]*)")
_HEADER = re.compile(r"bits\s+([0-9]+)")
_TOP = 0x3001  # above every whitespace code point
# Kinds of character: a token is a run of the first three.
_DIGIT, _SLASH, _OTHER, _SPACE, _BREAK = range(5)


@functools.cache
def _char_tables() -> tuple[np.ndarray, np.ndarray]:
    """Kind and digit value (-1: none; a-f are 10..15) by code point,
    code points above _TOP counting as _TOP."""
    kind = np.full(_TOP + 1, _OTHER, np.uint8)
    for c in range(_TOP + 1):
        if chr(c).isspace():
            kind[c] = _BREAK if chr(c) in _BREAKS else _SPACE
    hex_digits = np.frombuffer(b"0123456789abcdef", np.uint8)
    kind[hex_digits] = _DIGIT
    kind[ord("/")] = _SLASH
    value = np.full(_TOP + 1, -1, np.int8)
    value[hex_digits] = np.arange(16)
    return kind, value


def _decimal(digits: str, idx: int) -> int:
    try:
        return int(digits)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise DecodeError(f"{len(digits)}-digit number is too long", idx) from None


def _span_any(flags: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """flags[s:e].any() for each nonempty span."""
    edges = np.column_stack((starts, ends)).ravel()
    return np.logical_or.reduceat(np.append(flags, False), edges)[::2]


def _read_numbers(codes, value, starts, ends, base: int):
    """Each span's characters read as digits in ``base`` (16 or 10).

    Returns the values (uint64), a mask of the spans that are all
    digits, and a mask of those whose value needs more than 64 bits
    (base 16) or exceeds 2^63 - 1 (base 10).  Digits are read one place
    at a time over all spans, in at most 16 or 19 places, so no value
    passes 2^64; a longer span must be zeros beyond them.
    """
    lengths = ends - starts
    width = min(16 if base == 16 else 19, int(lengths.max(initial=1)))
    values = np.zeros(len(starts), np.uint64)
    ok = np.ones(len(starts), bool)
    for place in range(width, 0, -1):  # most significant first
        at = ends - place
        digits = np.where(at >= starts, np.take(value, codes[np.maximum(at, 0)]), 0)
        ok &= digits.view(np.uint8) < base  # a non-digit's -1 reads 255
        values = values * np.uint64(base) + digits.astype(np.uint64)
    big = values > INT64_MAX if base == 10 else np.zeros(len(values), bool)
    long = np.flatnonzero(lengths > width)
    if len(long):
        every = value[codes]
        lo, hi = starts[long], ends[long] - width
        ok[long] &= ~_span_any((every < 0) | (every >= base), lo, hi)
        big[long] |= _span_any(every > 0, lo, hi)
    return values, ok, big


def _parse_chunk(chunk: str, bits: int, first: int):
    """Parse a chunk of whole ``<hex> <num>/<den>`` lines whose first
    nonblank line is at position ``first``.

    Returns the number of nonblank lines, the outcome, numerator and
    denominator arrays of the lines before the first bad one, and that
    line's DecodeError, or None.
    """
    kind, value = _char_tables()
    if chunk.isascii():
        codes = np.frombuffer(chunk.encode("ascii"), np.uint8)
    else:
        wide = np.frombuffer(chunk.encode("utf-32-le", "surrogatepass"), np.uint32)
        codes = np.minimum(wide, _TOP)
    kinds = np.take(kind, codes)
    token = np.concatenate(([False], kinds < _SPACE, [False]))
    edges = np.flatnonzero(token[1:] != token[:-1])  # token starts and ends alternate
    starts, ends = edges[::2], edges[1::2]
    # a token starts a line when a line break precedes it (the chunk
    # itself starts at or after one)
    heads = np.flatnonzero(np.concatenate(
        ([True], _span_any(kinds == _BREAK, ends[:-1], starts[1:]))
    )) if len(starts) else starts
    ntok = np.diff(heads, append=len(starts))
    # A readable line is two tokens, hex digits then digits "/" digits.
    lines = np.flatnonzero(ntok == 2)
    hs, he = starts[heads[lines]], ends[heads[lines]]
    ms, me = starts[heads[lines] + 1], ends[heads[lines] + 1]
    slashes = np.append(np.flatnonzero(kinds == _SLASH), len(codes))
    cut = slashes[np.searchsorted(slashes, ms)]  # the first slash from ms on
    ok = (ms < cut) & (cut < me - 1)
    cut[~ok] = me[~ok]  # keeps both number spans inside the token
    outcomes, ok_out, wide_outcome = _read_numbers(codes, value, hs, he, 16)
    nums, ok_num, big_num = _read_numbers(codes, value, ms, cut, 10)
    dens, ok_den, big_den = _read_numbers(codes, value, cut + 1, me, 10)
    ok &= ok_out & ok_num & ok_den
    if bits < MAX_BITS:
        wide_outcome |= (outcomes >> np.uint64(bits)) != 0
    limit = sys.get_int_max_str_digits()
    if limit:
        big_num |= cut - ms > limit
        big_den |= me - cut - 1 > limit
    # per nonblank line, the first failed check (0: none) in the order
    # unreadable, outcome too wide, bad denominator, zero denominator,
    # bad numerator
    fail = np.ones(len(heads), np.int8)
    fail[lines] = np.select(
        [~ok, wide_outcome, big_den, dens == 0, big_num], [1, 2, 3, 4, 5], 0
    )
    bad = np.flatnonzero(fail)
    if not len(bad):
        return len(heads), outcomes, nums, dens, None
    k = bad[0]
    j = np.searchsorted(lines, k)  # k's index among the two-token lines
    text = chunk[starts[heads[k]]:ends[heads[k] + ntok[k] - 1]]
    kind = fail[k]
    if kind == 1:
        message = f"unreadable distribution line {text!r}"
    elif kind == 2:
        message = f"outcome {chunk[hs[j]:he[j]]} does not fit in {bits} bits"
    elif kind == 4:
        message = f"zero denominator in {text!r}"
    else:
        number = chunk[cut[j] + 1:me[j]] if kind == 3 else chunk[ms[j]:cut[j]]
        if limit and len(number) > limit:
            message = f"{len(number)}-digit number is too long"
        else:
            message = f"{number} exceeds 2^63 - 1"
    return len(heads), outcomes[:j], nums[:j], dens[:j], DecodeError(message, first + k)


def _check_repeats(outcomes: np.ndarray) -> None:
    """DecodeError at the first line (lines counted from 1) whose
    outcome an earlier line already listed."""
    if np.all(outcomes[1:] > outcomes[:-1]):
        return
    order = np.argsort(outcomes, kind="stable")
    ranked = outcomes[order]
    repeats = order[1:][ranked[1:] == ranked[:-1]]
    if len(repeats):
        k = int(repeats.min())
        raise DecodeError(f"outcome {int(outcomes[k]):x} listed twice", k + 1)


def dist_from_text(text: str) -> Dist:
    """Parse ``dist_to_text`` output.  Blank lines are skipped; the rest
    are the header ``bits <decimal>`` and one ``<hex> <num>/<den>`` line
    per distinct outcome, outcome in lowercase hex below 2^bits,
    den > 0, masses summing to exactly 1.  Anything else raises
    DecodeError whose position is the index among nonblank lines
    (header 0).  So do the limits of the arrays: bits above 64 (at the
    header), a numerator or denominator above 2^63 - 1 (at its line),
    and a common denominator above 2^63 - 1 (one past the last line).

    The body is parsed in chunks of whole lines, each as an array of
    code points: tokens are the runs of non-whitespace, and digits are
    read as place-value sums.
    """
    first = _FIRST_LINE.match(text)
    header = _HEADER.fullmatch(first[1].strip())
    if header is None:
        raise DecodeError("missing or unreadable 'bits <n>' header", 0)
    bits = _decimal(header[1], 0)
    if bits > MAX_BITS:
        raise DecodeError(f"outcomes wider than {MAX_BITS} bits are not supported", 0)
    lines, parts, pos = 1, [], first.end()
    while pos < len(text):
        end = text.find("\n", pos + TEXT_CHUNK) + 1 or len(text)
        count, *arrays, error = _parse_chunk(text[pos:end], bits, lines)
        parts.append(arrays)
        if error is not None:  # unless an earlier line repeats an outcome
            _check_repeats(np.concatenate([p[0] for p in parts]))
            raise error
        lines, pos = lines + count, end
    outcomes, nums, dens = (
        np.concatenate([p[k] for p in parts]) if parts else np.zeros(0, np.uint64)
        for k in range(3)
    )
    _check_repeats(outcomes)
    nums, dens = nums.astype(np.int64), dens.astype(np.int64)
    total, rest = 1, dens
    while len(rest):  # the lcm at least doubles each round
        total = math.lcm(total, int(rest[0]))
        if total > INT64_MAX:
            raise DecodeError("the masses' common denominator exceeds 2^63 - 1", lines)
        rest = rest[total % rest != 0]
    if np.any(nums > dens):
        raise DecodeError("a mass above 1, so probabilities sum past 1", lines)
    counts = nums * (total // dens)
    mass = _exact_sum(counts)
    if mass != total:
        raise DecodeError(f"probabilities sum to {Fraction(mass, total)}, not 1", lines)
    return Dist(bits, outcomes, counts)
