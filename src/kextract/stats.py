"""Exact small-scale distribution checks with integer counts in arrays.

A distribution on {0,1}^bits is a sorted uint64 array of distinct
outcomes and an int64 array of their counts, in lowest terms (divided
by their gcd; outcomes with count 0 are kept), plus the counts' total.
Outcome v has probability count/total exactly, so statements like
"exactly uniform" are decided with no floating-point drift.

One kernel, ``count_rows``, counts a map over all pairs of n-bit inputs
a block of rows at a time; ``pushforward`` feeds it one Python call per
pair, and vectorised maps feed it whole rows.  The text format is
written in numpy blocks.  Text in exactly that form is read in numpy
too; any other text is read line by line.

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

import math
import re
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
# writer, and characters per chunk of the text reader: each bounds the
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


def text_blocks(d: Dist) -> Iterator[bytes]:
    """``dist_to_text`` as ASCII bytes, for a writer that need not hold
    the whole text: the header, then BLOCK lines at a time, each line's
    mass taken from a table of the distinct masses."""
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
    return b"".join(text_blocks(d)).decode("ascii")


# The str.splitlines() boundaries; each is also whitespace.
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_FIRST_LINE = re.compile(rf"\s*([^{_BREAKS}]*)")
_HEADER = re.compile(r"bits\s+([0-9]+)")
_LINE = re.compile(r"([0-9a-f]+)\s+([0-9]+)/([0-9]+)")
# Each byte's value in a written line: 0..15 for the hex digits, 16, 17
# and 18 for the space, slash and newline, and 255 for any other byte.
_BYTE_VALUE = np.full(256, 255, np.uint8)
_BYTE_VALUE[np.frombuffer(b"0123456789abcdef /\n", np.uint8)] = np.arange(19)


def _decimal(digits: str, idx: int) -> int:
    try:
        return int(digits)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise DecodeError(f"{len(digits)}-digit number is too long", idx) from None


def _int64(digits: str, idx: int) -> int:
    value = _decimal(digits, idx)
    if value > INT64_MAX:
        raise DecodeError(f"{digits} exceeds 2^63 - 1", idx)
    return value


def _parse_lines(chunk: str, bits: int, first: int):
    """Parse a chunk of whole ``<hex> <num>/<den>`` lines whose first
    nonblank line is at position ``first``, one line at a time.

    Returns the number of nonblank lines, the outcome, numerator and
    denominator arrays (uint64) of the lines before the first bad one,
    and that line's DecodeError, or None.
    """
    lines = [line for line in map(str.strip, chunk.splitlines()) if line]
    rows, error = [], None
    try:
        for idx, line in enumerate(lines, first):
            m = _LINE.fullmatch(line)
            if m is None:
                raise DecodeError(f"unreadable distribution line {line!r}", idx)
            outcome = int(m[1], 16)
            if outcome >> bits:
                raise DecodeError(f"outcome {m[1]} does not fit in {bits} bits", idx)
            den = _int64(m[3], idx)
            if den == 0:
                raise DecodeError(f"zero denominator in {line!r}", idx)
            rows.append((outcome, _int64(m[2], idx), den))
    except DecodeError as exc:
        error = exc
    return (len(lines), *np.array(rows, np.uint64).reshape(-1, 3).T, error)


def _digits(value: np.ndarray, starts: np.ndarray, ends: np.ndarray, base: int, top: int):
    """Each span of byte values read as a number in ``base`` (16 or 10),
    one place at a time over all spans, or None when a span is empty,
    longer than 16 (base 16) or 19 (base 10) digits, so that it could
    pass 2^64, holds a byte that is not a digit in ``base``, or reads
    above ``top``."""
    widths = ends - starts
    if widths.min(initial=1) < 1 or widths.max(initial=0) > (16 if base == 16 else 19):
        return None
    number = np.zeros(len(ends), np.uint64)
    for place in range(int(widths.max(initial=0)), 0, -1):  # most significant first
        # ends - place is negative only in a masked place of the first span
        digit = np.where(widths >= place, value[ends - place], 0)
        if digit.max() >= base:
            return None
        number *= base
        number += digit
    return None if number.max(initial=0) > top else number


def _read_written(chunk: str, bits: int):
    """``_parse_lines``'s result for a chunk of lines exactly as
    ``dist_to_text`` writes them, or None for any other chunk.

    Such a line is ``<hex> <num>/<den>`` and a newline in ASCII, with one
    space, at most 16 hex and 19 decimal digits, the outcome below
    2^bits, both numbers at most 2^63 - 1 and the denominator above 0.
    The layout is checked by counting: every byte is a digit or a
    separator, and the separators run space, slash, newline, line after
    line.  One newline before the first line (the header's) is skipped.
    """
    if not (chunk.isascii() and chunk.endswith("\n")):
        return None
    data = chunk.encode("ascii").removeprefix(b"\n")
    value = _BYTE_VALUE[np.frombuffer(data, np.uint8)]
    seps = np.flatnonzero(value > 15)  # and any byte that is neither
    if len(seps) % 3 or np.any(value[seps].reshape(-1, 3) != (16, 17, 18)):
        return None
    space, slash, newline = seps.reshape(-1, 3).T
    starts = np.concatenate(([0], newline[:-1] + 1))
    outcomes = _digits(value, starts, space, 16, (1 << bits) - 1)
    nums = _digits(value, space + 1, slash, 10, INT64_MAX)
    dens = _digits(value, slash + 1, newline, 10, INT64_MAX)
    if outcomes is None or nums is None or dens is None or dens.min(initial=1) == 0:
        return None
    return len(outcomes), outcomes, nums, dens, None


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

    The body is read in chunks of whole lines: a chunk exactly as
    ``dist_to_text`` writes it by ``_read_written`` in numpy, any other
    by ``_parse_lines``, one regular-expression match per line.
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
        chunk = text[pos:end]
        count, *arrays, error = _read_written(chunk, bits) or _parse_lines(chunk, bits, lines)
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
