"""Condenser-style tables: colored-cell balance checks and extraction.

A two-source condenser viewed as an N x N table with M colors has a
weaker balance property than the strongly balanced tables in
``btable``: for every rectangle with both sides of size >= 2^(delta*n)
and every color subset A, the A-colored cell count is at most

    (|A|/M * 2^((delta * log2(1/epsilon))^c) + epsilon) * |B1 x B2|.

``verify_balance`` measures that property exactly at desk scale.  A
real condenser construction is out of scope here; ``standin_table``
provides a deterministic dense ``Table`` (field multiplication truncated
to m bits, built from ``gf2n.mul_bits``, for n <= DENSE_LIMIT_N) whose
conformance is measured, not assumed, which keeps the verifier's
negative paths exercisable.

The constant c is a configuration input with default c=2; no concrete
value is mandated by the interface it models.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from . import btable, stats
from .btable import Table, _ceil_log2, _check_budget, _check_dims
from .btable import _check_mode, _sampled_rects, _scan_blocks, _top_columns
from .errors import ParameterError
from .gf2n import field_params, mul_bits

DEFAULT_C = 2


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
        if not 0 < epsilon < 1:
            raise ParameterError(f"derived epsilon={epsilon} outside (0, 1)")
        if t < 1:
            raise ParameterError(f"derived t={t} < 1")


@dataclass(frozen=True)
class BalanceReport:
    """ok, the worst count/bound ratio seen, and a violating rectangle."""

    ok: bool
    worst_ratio: float
    witness: Optional[tuple] = None


def color_bound_fraction(
    n_colors_in_A: int, M: int, delta: float, epsilon: float, c: int
) -> float:
    """Per-cell bound fraction |A|/M * 2^((delta*log2(1/eps))^c) + eps.

    Monotone nondecreasing in |A|, directly from the formula.
    """
    try:
        factor = 2.0 ** ((delta * math.log2(1.0 / epsilon)) ** c)
    except OverflowError:  # past float range, so above every rectangle's size
        return math.inf if n_colors_in_A else epsilon
    return n_colors_in_A / M * factor + epsilon


def verify_balance(
    table: Table,
    delta: float,
    epsilon: float,
    c: int,
    colors: Iterable[int],
    mode: str = "exhaustive",
    *,
    trials: int = 1000,
    seed: Optional[int] = None,
    budget: Optional[int] = None,
) -> BalanceReport:
    """Check the A-colored cell bound on all rectangles with sides of
    size exactly ceil(2^(delta*n)); larger rectangles follow by the
    averaging argument.  Both modes run a ``btable`` kernel on the
    A-indicator grid: exhaustive mode the block scan, where worst_ratio
    and the witness come from the first row subset, lexicographically,
    that reaches the largest count; sampled mode the rectangle sampler,
    where they come from the first sampled rectangle that reaches it.

    Both modes stop as soon as the running maximum reaches the ceiling
    ``btable._marginal_bound`` gives for the indicator grid, which no
    rectangle's count can pass.  A later rectangle could at most tie,
    and ties keep the earlier witness, so the stop changes neither
    worst_ratio nor the witness; it ends at once, for instance, a scan
    of a table whose cells all lie in A.
    """
    if not 0 < delta <= 1:  # NaN fails each of these tests
        raise ParameterError(f"delta={delta} must be in (0, 1]")
    if not 0 < epsilon < 1:
        raise ParameterError(f"epsilon={epsilon} must be in (0, 1)")
    if not c >= 1:
        raise ParameterError(f"c={c} must be >= 1")
    N, M = table.N, table.M
    A = sorted(set(colors))
    for a in A:
        if not 0 <= a < M:
            raise ParameterError(f"color {a} not in 0..{M - 1}")
    R = math.ceil(2.0 ** (delta * table.n))  # <= N, since delta <= 1
    _check_mode(mode, trials, seed)  # before an infinite bound returns early
    bound = color_bound_fraction(len(A), M, delta, epsilon, c) * R * R
    if bound == math.inf:  # no count reaches it: nothing to scan
        return BalanceReport(True, 0.0)
    if mode == "exhaustive":
        _check_budget(N, R, budget, "colored-balance verification")
    indicator = np.isin(table.cells, np.array(A, dtype=np.uint32)).astype(np.int64)
    ceiling = btable._marginal_bound(indicator, R)  # no rectangle holds more of A

    best_count, best = 0, None
    if mode == "exhaustive":
        for subsets, tops in _scan_blocks(indicator[None], 2, R):  # label 1 marks A
            b = int(np.argmax(tops[0, :, 1]))
            if tops[0, b, 1] > best_count:
                best_count, B1 = int(tops[0, b, 1]), tuple(subsets[b].tolist())
                best = B1, _top_columns(indicator, B1, 1, R)
                if best_count >= ceiling:
                    break
    else:
        for B1, B2, counts in _sampled_rects(indicator, 2, R, trials, seed):
            if counts[1] > best_count:
                best_count, best = int(counts[1]), (B1, B2)
                if best_count >= ceiling:
                    break
    witness = best if best_count > bound else None
    return BalanceReport(witness is None, best_count / bound, witness)


def standin_table(n: int, m: int) -> Table:
    """Deterministic stand-in condenser table: truncated field products.

    It holds all 2^(2n) cells, so n > DENSE_LIMIT_N is a ResourceError.
    """
    if not 1 <= m <= n:
        raise ParameterError(f"need 1 <= m <= n, got m={m}, n={n}")
    _check_dims(n, m)
    params = field_params(n)
    N = 1 << n
    cells = np.zeros((N, N), dtype=np.uint32)
    # x*y is GF(2)-bilinear, so row 2^a follows from the basis products
    # 2^a * 2^b by doubling over columns, and row 2^a + k (k < 2^a) is
    # row 2^a XOR row k
    for a in range(n):
        row = 1 << a
        for b in range(n):
            col = 1 << b
            p = mul_bits(row, col, params)
            np.bitwise_xor(cells[row, :col], p, out=cells[row, col:2 * col])
        np.bitwise_xor(cells[1:row], cells[row], out=cells[row + 1:2 * row])
    cells &= (1 << m) - 1
    return Table(n, m, cells, "constructed(gf2n-mul-truncated)")


@dataclass(frozen=True)
class CondenseResult:
    """Extracted string plus the claimed complexity floor m - t.

    The floor is reported metadata only; nothing computable certifies it.
    """

    z: int
    claimed_floor: int


def apply_condenser(x: int, y: int, table: Table, schedule: CondenseSchedule) -> CondenseResult:
    """z = T(x, y) with the schedule's claimed floor attached."""
    if table.n != schedule.n:
        raise ParameterError(
            f"table is for n={table.n} but the schedule is for n={schedule.n}"
        )
    return CondenseResult(table.lookup(x, y), table.m - schedule.t)


def min_entropy_deficit(table: Table, rows: Sequence[int], cols: Sequence[int]) -> float:
    """m minus the min-entropy of T's output on uniform rows x cols.

    Exact distribution by enumeration; 0 means the restricted output is
    as spread out as an m-bit string can be.
    """
    rows = sorted(set(rows))
    cols = sorted(set(cols))
    if not rows or not cols:
        raise ParameterError("rows and cols must be nonempty")
    for v in itertools.chain(rows, cols):
        if not 0 <= v < table.N:
            raise ParameterError(f"index {v} outside 0..{table.N - 1}")
    values = table.cells[np.ix_(rows, cols)].ravel()
    counts = np.bincount(values, minlength=table.M)
    dist = stats.Dist(table.m, np.arange(len(counts)), counts)
    return table.m - stats.min_entropy(dist)
