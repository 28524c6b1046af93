"""Condenser-style tables: colored-cell balance checks and extraction.

A two-source condenser viewed as an N x N table with M colors has a
weaker balance property than the strongly balanced tables in
``btable``: for every rectangle with both sides of size >= 2^(delta*n)
and every color subset A, the A-colored cell count is at most

    (|A|/M * 2^((delta * log2(1/epsilon))^c) + epsilon) * |B1 x B2|.

``verify_balance`` measures that property exactly at desk scale.  A
real condenser construction is out of scope here; ``standin_table``
provides a deterministic concrete table (field multiplication truncated
to m bits) whose conformance is measured, not assumed, which keeps the
verifier's negative paths exercisable.

The constant c and the output-rate constant gamma (m = gamma*delta*n)
are configuration inputs with defaults c=2, gamma=1/4; no concrete
values are mandated by the interface they model.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from . import stats
from .btable import Table, _ceil_log2, _check_budget, _scan_blocks, _top_columns
from .errors import ParameterError, ResourceError
from .gf2n import field_params, mul_bits

DEFAULT_C = 2
DEFAULT_GAMMA = 0.25


@dataclass(frozen=True)
class CondenserParams:
    """Interface parameters of a two-source condenser table."""

    n: int
    delta: float
    epsilon: float
    c: int
    m: int

    def __post_init__(self):
        if not 0 < self.delta <= 1:
            raise ParameterError(f"delta={self.delta} must be in (0, 1]")
        if not 0 < self.epsilon < 1:
            raise ParameterError(f"epsilon={self.epsilon} must be in (0, 1)")
        if self.c < 1:
            raise ParameterError(f"c={self.c} must be >= 1")
        if not 1 <= self.m <= self.n:
            raise ParameterError(f"m={self.m} must be in 1..n={self.n}")

    @classmethod
    def derive(cls, n, delta, epsilon, c=DEFAULT_C, gamma=DEFAULT_GAMMA):
        """m = floor(gamma * delta * n) for the configured rate constant."""
        return cls(n, delta, epsilon, c, int(gamma * delta * n))


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
    epsilon: Fraction = None
    t: int = None

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
        t = (
            self.alpha
            + 10 * _ceil_log2(self.n)
            + math.ceil(((self.delta / 2) * log_inv_eps) ** self.c)
            + 3
        )
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
    factor = 2.0 ** ((delta * math.log2(1.0 / epsilon)) ** c)
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
    averaging argument.  Sampled mode checks random rectangles only.
    Exhaustive mode runs the ``btable`` scan kernel on the A-indicator
    grid; worst_ratio and the witness come from the first row subset,
    lexicographically, that reaches the largest count.
    """
    N, M = table.N, table.M
    A = sorted(set(colors))
    for a in A:
        if not 0 <= a < M:
            raise ParameterError(f"color {a} not in 0..{M - 1}")
    R = math.ceil(2.0 ** (delta * table.n))
    if R > N:
        raise ParameterError(
            f"threshold side ceil(2^(delta*n)) = {R} exceeds N = {N}"
        )
    bound = color_bound_fraction(len(A), M, delta, epsilon, c) * R * R
    indicator = np.isin(table.cells, np.array(A, dtype=np.uint32)).astype(np.int64)

    best_count, best = 0, None
    if mode == "exhaustive":
        _check_budget(N, R, budget, "colored-balance verification")
        for subsets, tops in _scan_blocks(indicator, 2, R):  # label 1 marks A
            b = int(np.argmax(tops[:, 1]))
            if tops[b, 1] > best_count:
                best_count, B1 = int(tops[b, 1]), tuple(subsets[b].tolist())
                best = B1, _top_columns(indicator, B1, 1, R)
    elif mode == "sampled":
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            B1 = tuple(sorted(rng.choice(N, size=R, replace=False).tolist()))
            B2 = tuple(sorted(rng.choice(N, size=R, replace=False).tolist()))
            count = int(indicator[np.ix_(B1, B2)].sum())
            if count > best_count:
                best_count, best = count, (B1, B2)
    else:
        raise ParameterError(f"unknown mode {mode!r}")
    witness = best if best_count > bound else None
    return BalanceReport(witness is None, best_count / bound, witness)


def standin_color(x: int, y: int, n: int, m: int) -> int:
    """Low m bits of the GF(2^n) product of x and y (0 passes through)."""
    return mul_bits(x, y, field_params(n)) & ((1 << m) - 1)


@dataclass(frozen=True)
class FnTable:
    """Function-backed table for pipelines too large to materialize."""

    n: int
    m: int
    fn: object
    provenance: str = "constructed(function)"

    @property
    def N(self):
        return 1 << self.n

    @property
    def M(self):
        return 1 << self.m

    def lookup(self, x: int, y: int) -> int:
        if not (0 <= x < self.N and 0 <= y < self.N):
            raise ParameterError(f"cell ({x}, {y}) outside the {self.N}x{self.N} grid")
        return self.fn(x, y)


def standin_table(n: int, m: int, dense: Optional[bool] = None):
    """Deterministic stand-in condenser table: truncated field products.

    Dense tables materialize all 2^(2n) cells (n <= 12); pass
    dense=False (automatic for larger n) to get a function-backed table
    usable by ``apply_condenser`` at any n up to 64.
    """
    if not 1 <= m <= n:
        raise ParameterError(f"need 1 <= m <= n, got m={m}, n={n}")
    if dense is None:
        dense = n <= 12
    provenance = "constructed(gf2n-mul-truncated)"
    if not dense:
        return FnTable(n, m, lambda x, y: standin_color(x, y, n, m), provenance)
    if n > 12:
        raise ResourceError(f"dense stand-in table needs n <= 12, got {n}")
    params = field_params(n)
    N = 1 << n
    mask = (1 << m) - 1
    cells = np.empty((N, N), dtype=np.uint32)
    cols = np.arange(N, dtype=np.int64)
    for x in range(N):
        # vectorized shift-and-XOR product of the scalar row value with
        # every column value
        acc = np.zeros(N, dtype=np.int64)
        a = x
        for bit in range(n):
            acc ^= np.where((cols >> bit) & 1, a, 0)
            a <<= 1
            if a >> n:
                a ^= params.modulus
        cells[x, :] = acc & mask
    return Table(n, m, cells, provenance)


@dataclass(frozen=True)
class CondenseResult:
    """Extracted string plus the claimed complexity floor m - t.

    The floor is reported metadata only; nothing computable certifies it.
    """

    z: int
    claimed_floor: int


def apply_condenser(x: int, y: int, table, schedule: CondenseSchedule) -> CondenseResult:
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
    dist = stats.Dist.from_counts(
        table.m, {v: int(c) for v, c in enumerate(counts) if c}
    )
    return table.m - stats.min_entropy(dist)
