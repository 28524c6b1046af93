"""Exact small-scale distribution checks with integer counts.

A distribution is a map from outcomes to nonnegative integer counts
plus their total, so outcome v has probability counts[v]/total exactly
and statements like "exactly uniform" are decided with no
floating-point drift.  Comparisons run in integers over a common
denominator; floats appear only at the final log step (min-entropy).
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Mapping

from .errors import DecodeError, ParameterError, ResourceError

# Hard default: pair enumeration up to n = 12, i.e. 2^24 evaluations.
DEFAULT_ENUM_BUDGET = 1 << 24


@dataclass(frozen=True)
class Dist:
    """A probability distribution on {0,1}^domain_bits.

    ``counts`` maps outcomes to nonnegative integer weights; outcome v
    has probability counts[v] / total.  Counts are stored in lowest
    terms (divided by their gcd), so equal distributions compare equal.
    Outcomes listed with count 0 are kept.
    """

    domain_bits: int
    counts: dict[int, int]
    total: int = field(init=False)

    def __post_init__(self):
        counts = dict(self.counts)
        if self.domain_bits < 0:
            raise ParameterError(f"domain_bits={self.domain_bits} must be >= 0")
        if counts and (min(counts) < 0 or max(counts) >> self.domain_bits):
            raise ParameterError(f"an outcome does not fit in {self.domain_bits} bits")
        if counts and min(counts.values()) < 0:
            raise ParameterError("negative count")
        try:
            g = math.gcd(*counts.values())
        except TypeError:
            raise ParameterError("counts must be integers") from None
        if g == 0:
            raise ParameterError("counts sum to 0; a distribution needs mass")
        if g > 1:
            counts = {v: c // g for v, c in counts.items()}
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", sum(counts.values()))

    @property
    def probs(self) -> Mapping[int, Fraction]:
        """Read-only view of each outcome's exact probability."""
        t = self.total
        return MappingProxyType({v: Fraction(c, t) for v, c in self.counts.items()})

    @classmethod
    def uniform(cls, domain_bits: int) -> "Dist":
        return cls(domain_bits, dict.fromkeys(range(1 << domain_bits), 1))

    @classmethod
    def point_mass(cls, domain_bits: int, outcome: int) -> "Dist":
        return cls(domain_bits, {outcome: 1})


def check_pushforward_budget(n: int, budget: int = DEFAULT_ENUM_BUDGET) -> None:
    """Raise ResourceError when the 2^(2n) evaluations of a pushforward
    over n-bit inputs exceed ``budget``."""
    evals = 1 << (2 * n)
    if evals > budget:
        raise ResourceError(
            f"pushforward needs {evals} evaluations, over budget {budget}"
        )


def pushforward(
    fn: Callable[[int, int], int],
    n: int,
    out_bits: int,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> Dist:
    """Exact distribution of fn(x1, x2) under uniform independent n-bit inputs.

    Enumerates all 2^(2n) input pairs; rejects the run up front when that
    exceeds ``budget`` evaluations.
    """
    check_pushforward_budget(n, budget)
    pairs = itertools.product(range(1 << n), repeat=2)
    return Dist(out_bits, Counter(itertools.starmap(fn, pairs)))


def min_entropy(d: Dist) -> float:
    """-log2 of the largest probability (0.0 for a point mass).

    Exact rational input; the result is a float good to well below 2^-40.
    """
    top = max(d.counts.values())
    g = math.gcd(top, d.total)  # logs of the fraction in lowest terms
    return math.log2(d.total // g) - math.log2(top // g)


def statistical_distance(d1: Dist, d2: Dist) -> Fraction:
    """Largest probability gap over all events: half the L1 distance."""
    if d1.domain_bits != d2.domain_bits:
        raise ParameterError("distributions live on different domains")
    den = math.lcm(d1.total, d2.total)
    s1, s2 = den // d1.total, den // d2.total
    c2 = d2.counts
    l1 = sum(abs(c * s1 - c2.get(v, 0) * s2) for v, c in d1.counts.items())
    l1 += sum(c * s2 for v, c in c2.items() if v not in d1.counts)
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
    # c/total > a/b  <=>  c*b > a*total; the excess is over total*b
    over = cap.numerator * d.total
    b = cap.denominator
    excess = sum(c * b - over for c in d.counts.values() if c * b > over)
    return Fraction(excess, d.total * b)


def dist_to_text(d: Dist) -> str:
    """Serialize: a ``bits n`` header, then ``outcome_hex num/den`` lines
    in outcome order, each probability in lowest terms."""
    t = d.total
    mass = {}
    for c in set(d.counts.values()):
        g = math.gcd(c, t)
        mass[c] = f"{c // g}/{t // g}"
    line = f"%0{max(1, (d.domain_bits + 3) // 4)}x %s"
    lines = [f"bits {d.domain_bits}"]
    lines += [line % (v, mass[c]) for v, c in sorted(d.counts.items())]
    return "\n".join(lines) + "\n"


_HEADER = re.compile(r"bits\s+([0-9]+)")
_LINE = re.compile(r"([0-9a-f]+)\s+([0-9]+)/([0-9]+)")


def _decimal(digits: str, idx: int) -> int:
    try:
        return int(digits)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise DecodeError(f"{len(digits)}-digit number is too long", idx) from None


def dist_from_text(text: str) -> Dist:
    """Parse ``dist_to_text`` output.  Blank lines are skipped; the rest
    are the header ``bits <decimal>`` and one ``<hex> <num>/<den>`` line
    per distinct outcome, outcome in lowercase hex below 2^bits,
    den > 0, masses summing to exactly 1.  Anything else raises
    DecodeError whose position is the index among nonblank lines
    (header 0)."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    header = _HEADER.fullmatch(lines[0]) if lines else None
    if header is None:
        raise DecodeError("missing or unreadable 'bits <n>' header", 0)
    domain_bits = _decimal(header[1], 0)
    masses = {}  # outcome -> (numerator, denominator) digit strings
    number = {}  # digit string -> int, each distinct string converted once
    for idx, line in enumerate(lines[1:], start=1):
        m = _LINE.fullmatch(line)
        if m is None:
            raise DecodeError(f"unreadable distribution line {line!r}", idx)
        outcome = int(m[1], 16)
        if outcome >> domain_bits:
            raise DecodeError(f"outcome {m[1]} does not fit in {domain_bits} bits", idx)
        if outcome in masses:
            raise DecodeError(f"outcome {m[1]} listed twice", idx)
        num, den = m.group(2, 3)
        if den not in number:
            number[den] = _decimal(den, idx)
            if number[den] == 0:
                raise DecodeError(f"zero denominator in {line!r}", idx)
        if num not in number:
            number[num] = _decimal(num, idx)
        masses[outcome] = num, den
    dens = {den for _, den in masses.values()}
    total = math.lcm(*(number[den] for den in dens))
    scale = {den: total // number[den] for den in dens}
    counts = {v: number[num] * scale[den] for v, (num, den) in masses.items()}
    mass = sum(counts.values())
    if mass != total:
        raise DecodeError(
            f"probabilities sum to {Fraction(mass, total)}, not 1", len(lines)
        )
    return Dist(domain_bits, counts)
