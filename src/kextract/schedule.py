"""The paper's closed-form arithmetic: the parameter schedules of the
balanced-table construction and of the condenser, and the existence
inequality for strongly balanced tables.  It is integer, ``Fraction``
and float work, with mpmath imported inside the two bound calculators
only, so ``kextract table schedule`` loads neither numpy nor mpmath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ParameterError

# Largest n for derive_table_schedule: its S then has at most 2^24 bits.
MAX_SCHEDULE_N = 1 << 24

DEFAULT_C = 2  # the condenser's exponent c; the interface mandates no value


def _ceil_log2(n: int) -> int:
    return (n - 1).bit_length()


@dataclass(frozen=True)
class TableSchedule:
    """Derived working parameters for the balanced-table construction.

    Construct via derive_table_schedule, which validates the hypothesis
    (6k + 15) * ceil(log2 n) < s <= n and m >= 1.
    """

    n: int
    k: int
    s: int
    alpha: int
    m: int
    S: int
    t: int


def derive_table_schedule(n: int, k: int, s: int, alpha: int) -> TableSchedule:
    """Output length m, rectangle side S and slack t from (n, k, s, alpha).

    m = floor(s/3) - (2k+5) * ceil(log2 n); S = 2^ceil(2s/3);
    t = alpha + 7 * ceil(log2 n).  Rounding is conservative: a smaller m
    and a larger S only strengthen the balance requirement.
    """
    if n < 1 or k < 1 or alpha < 0:
        raise ParameterError("need n >= 1, k >= 1, alpha >= 0")
    if n > MAX_SCHEDULE_N:  # S = 2^ceil(2s/3) is built as an int
        raise ParameterError(f"n={n} above the schedule limit {MAX_SCHEDULE_N}")
    log_n = _ceil_log2(n)
    if s > n:
        raise ParameterError(f"hypothesis violated: s={s} > n={n}")
    if not (6 * k + 15) * log_n < s:
        raise ParameterError(
            f"hypothesis violated: (6k+15)*ceil(log2 n) = {(6 * k + 15) * log_n}"
            f" is not strictly below s = {s}"
        )
    m = s // 3 - (2 * k + 5) * log_n
    if m < 1:
        raise ParameterError(f"derived output length m = {m} < 1; increase s or decrease k")
    S = 1 << ((2 * s + 2) // 3)  # 2^ceil(2s/3)
    t = alpha + 7 * log_n
    return TableSchedule(n, k, s, alpha, m, S, t)


@dataclass(frozen=True)
class CondenseSchedule:
    """Derived epsilon/t schedule for one-string extraction at length n.

    epsilon = 1/(8 n^10 alpha), exact as a Fraction;
    t = alpha + 10*ceil(log2 n) + ceil(((delta/2) * log2(1/epsilon))^c) + 3.
    """

    n: int
    delta: float
    alpha: int
    c: int = DEFAULT_C
    epsilon: Fraction = field(init=False)
    t: int = field(init=False)

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"n={self.n} must be >= 1")
        if not 0 < self.delta <= 1:
            raise ParameterError(f"delta={self.delta} must be in (0, 1]")
        if self.alpha < 1:
            raise ParameterError(f"alpha={self.alpha} must be >= 1")
        if self.c < 1:
            raise ParameterError(f"c={self.c} must be >= 1")
        epsilon = Fraction(1, 8 * self.n**10 * self.alpha)
        log_inv_eps = math.log2(epsilon.denominator)
        try:
            slack = math.ceil(((self.delta / 2) * log_inv_eps) ** self.c)
        except OverflowError:
            raise ParameterError(
                f"((delta/2)*log2(1/epsilon))^c = ({self.delta / 2:g}*"
                f"{log_inv_eps:g})^{self.c} is past float range"
            ) from None
        t = self.alpha + 10 * _ceil_log2(self.n) + slack + 3
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "t", t)


@dataclass(frozen=True)
class ExistenceBound:
    """Outcome of the probabilistic existence inequality lhs > rhs."""

    holds: bool
    lhs: "mpf"
    rhs: "mpf"


def check_existence_bound(N: int, M: int, S: int, n: int, k: int) -> ExistenceBound:
    """Evaluate S^2 > 3M^2 ln M + 6M^2 k ln n + 6SM^2 + 6SM^2 + 6SM^2 ln(N/S) + 3M^2.

    Natural logarithms; the 6SM^2 term appears twice deliberately, do
    not fold it.  Values are mpmath floats so astronomically large
    parameters (S = 2^hundreds) neither overflow nor lose the comparison.
    """
    from mpmath import mp, mpf  # here, not at import: it costs ~40 ms to load

    if N < 1 or M < 1 or n < 1 or k < 1 or S < 0:
        raise ParameterError("N, M, n, k must be >= 1 and S >= 0")
    if S > N:
        raise ParameterError(f"S={S} exceeds N={N}")
    with mp.workdps(60):
        if S == 0:
            return ExistenceBound(False, mpf(0), mpf("+inf"))
        M2 = mpf(M) ** 2
        lhs = mpf(S) ** 2
        rhs = (
            3 * M2 * mp.log(M)
            + 6 * M2 * k * mp.log(n)
            + 6 * S * M2
            + 6 * S * M2
            + 6 * S * M2 * mp.log(mpf(N) / S)
            + 3 * M2
        )
        return ExistenceBound(bool(lhs > rhs), lhs, rhs)


def failure_prob_bounds(N: int, M: int, S: int, n: int, k: int):
    """Natural-log exponents of the two union-bound failure probabilities.

    log_p1 = -(1/3)(1/M) S^2 + ln M + 2S + 2S ln(N/S)
    log_p2 = -(1/3)(1/M^2) S^2 + 2 ln M + 2k ln n + 2S + 2S ln(N/S)

    When check_existence_bound holds, both are below -1.
    """
    from mpmath import mp, mpf

    if N < 1 or M < 1 or n < 1 or k < 1 or S < 1:
        raise ParameterError("N, M, n, k, S must be >= 1")
    if S > N:
        raise ParameterError(f"S={S} exceeds N={N}")
    with mp.workdps(60):
        S2 = mpf(S) ** 2
        common = 2 * mpf(S) + 2 * S * mp.log(mpf(N) / S)
        log_p1 = -S2 / (3 * M) + mp.log(M) + common
        log_p2 = -S2 / (3 * mpf(M) ** 2) + 2 * mp.log(M) + 2 * k * mp.log(n) + common
        return log_p1, log_p2
