"""Condenser-style tables: colored-cell balance checks and extraction.

A two-source condenser viewed as an N x N table with M colors has a
weaker balance property than the strongly balanced tables in
``btable``: for every rectangle with both sides of size >= 2^(delta*n)
and every color subset A, the A-colored cell count is at most

    (|A|/M * 2^((delta * log2(1/epsilon))^c) + epsilon) * |B1 x B2|.

``verify_balance`` measures that property exactly at desk scale.  A
real condenser construction is out of scope here; ``standin_table``
provides a deterministic dense ``Table`` (field multiplication truncated
to m bits, built by doubling rows in numpy, for n <= DENSE_LIMIT_N) whose
conformance is measured, not assumed, which keeps the verifier's
negative paths exercisable.  ``apply_condenser`` attaches the claimed
floor of a ``schedule.CondenseSchedule``, where the constant c has its
default ``schedule.DEFAULT_C``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from . import stats
from .btable import Table, check_dims, check_mode, richest_rectangle, row_subsets
from .errors import ParameterError
from .gf2n import field_params
from .schedule import CondenseSchedule


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
    averaging argument.  Both modes take ``btable.richest_rectangle`` of
    the A-indicator grid, where worst_ratio and the witness come from the
    first row subset that reaches the largest count, with its richest
    columns.  Exhaustive mode scans all row subsets in lexicographic
    order; sampled mode ``trials`` random ones keyed by the seed, so its
    worst_ratio only bounds the exhaustive one from below.  The budget
    (``btable.row_subsets``) is met before the grid is built.
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
    trials, seed = check_mode(mode, trials, seed)  # before an infinite bound returns early
    bound = color_bound_fraction(len(A), M, delta, epsilon, c) * R * R
    if bound == math.inf:  # no count reaches it: nothing to scan
        return BalanceReport(True, 0.0)
    rows = row_subsets(N, R, mode, trials, seed, budget, "colored-balance verification")
    indicator = np.isin(table.cells, np.array(A, dtype=np.uint32)).astype(np.int64)
    best_count, best = richest_rectangle(indicator, R, rows)
    witness = best if best_count > bound else None
    return BalanceReport(witness is None, best_count / bound, witness)


def standin_table(n: int, m: int) -> Table:
    """Deterministic stand-in condenser table: truncated field products.

    It holds all 2^(2n) cells, so n > DENSE_LIMIT_N is a ResourceError.
    """
    if not 1 <= m <= n:
        raise ParameterError(f"need 1 <= m <= n, got m={m}, n={n}")
    check_dims(n, m)
    modulus = field_params(n).modulus
    N = 1 << n
    cells = np.empty((N, N), dtype=np.uint32)
    cells[0] = 0
    basis = np.arange(N, dtype=np.uint32)
    # x*y is GF(2)-bilinear, so row 2^a (basis) is row 2^(a-1) times x:
    # shifted left, reduced where bit n is set; row 2^a + k (k < 2^a) is
    # row 2^a XOR row k, and truncation commutes with XOR
    for a in range(n):
        row = 1 << a
        if a:
            basis <<= 1
            basis ^= (basis >> n) * modulus
        np.bitwise_and(basis, (1 << m) - 1, out=cells[row])
        np.bitwise_xor(cells[1:row], cells[row], out=cells[row + 1:2 * row])
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
