"""Strongly balanced color tables: verification, search, and application.

A table colors the N x N grid (N = 2^n) with M = 2^m colors.  It is
(S, r)-strongly balanced when every rectangle B1 x B2 with both sides of
size >= S satisfies two bounds:

  * single-color: each color fills at most a 2/M fraction of the
    rectangle's cells;
  * shifted-pair: for every pair of distinct row shifts i != j in 1..r
    and every ordered color pair (a, b), the cells (x, y) with
    T(x+i, y) = a and T(x+j, y) = b fill at most a 2/M^2 fraction.
    Row shifts are integer addition modulo N.

Checking rectangles with sides of size exactly S suffices: a larger
rectangle's color fraction is the average of its size-S subrectangles'
fractions, so it cannot exceed a bound they all satisfy.

Shift pairs with i == j are excluded from the pair bound: distinct
colors at a single shifted cell never co-occur (count identically 0),
and the equal-color case is a single-cell event whose natural ceiling
is 2/M, not 2/M^2; including it would make the property unsatisfiable
for every table as soon as M >= 2.

One driver, ``_verify``, runs both verifiers: it gates its inputs once
(``BalanceSpec.check_fits``, the mode, then trials and seed when sampled
or the pair budget when exhaustive) and returns the first violation of
the checks ``_checks`` lists in verification order: the single-color
grid (skipped for M <= 2, where count <= S^2 <= 2S^2/M), then each shift
pair i != j in ``itertools.permutations`` order.  Before it scans or
samples a check, ``_verify`` tries a certificate: ``_marginal_bound``
bounds every label's count in every S x S rectangle from the label's
counts per row and per column alone, and a check whose bound is at
most its allowed count passes with no scan.  The answer is the OK the
scan would give, so no output changes.  ``search_table`` walks the same
list over stacks of candidate tables without the certificate: on random
tables at n=3, m=1, S=4 and at n=4, m=1, S=6 it closes none of 400
checks, so there it would only add cost.

Exhaustive verification walks every size-S row subset and, per label,
bounds the worst column subset by the sum of the S largest per-column
counts, which is exactly the maximum over all size-S column subsets.
``_scan_blocks`` does this for ``btable`` and ``condense`` on a stack of
T grids at once, in blocks of lexicographic row subsets that double up
to SCAN_BLOCK_ENTRIES counts; ``_first_violation`` drops each grid from
the stack at its first violation.  The verifiers and ``condense`` scan
one grid (T = 1).  ``search_table`` scans chunks of candidate tables
that double from one up to SCAN_BLOCK_ENTRIES cells (and one row
subset's pair counts), so a chunk shares the cost of each block.

What is left, on a 2-core Xeon: in a search at n=3, m=2, drawing each
trial from its own generator keyed by (seed, t), the price of
reproducible trials, is about a third of the time, and a block's S
fancy-index adds and its ``np.partition`` about a quarter and a sixth.
In verification, the certificate closes 76 of the 132 checks in the
benchmark's n=4, S=10-12 proofs (seed 2026).  What still scans is the
checks it misses (m=1 at S=10, and m=2 below S=12) and ``condense``
runs whose color set A covers less than half the colors, where the
ceiling of ``condense.verify_balance`` is rarely met.
Sampled verification draws its rectangles from ``_sampled_rects``, keyed
by the seed for the single-color check and by [seed, i, j] for pair (i, j).
"""

from __future__ import annotations

import itertools
import math
import secrets
from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np

from .errors import DecodeError, ParameterError, ResourceError

# Budgets: logical subset-pair count for exhaustive verification, table
# count for exhaustive search, the largest n a table is materialized
# densely for (2^(2n) cells), and the column counts a scan block holds
# (128 KiB; a block has at least one row subset, whatever N * K is),
# and the cells a KXTB read or write packs at a time (a multiple of 8,
# so every block starts on a byte boundary; ~2 MiB of bits per block).
# Colors are uint32 cells, and m <= MAX_M keeps pair labels a*M + b
# within int64.
DEFAULT_PAIR_BUDGET = 10**9
DEFAULT_TABLE_BUDGET = 1 << 16
DENSE_LIMIT_N = 12
SCAN_BLOCK_ENTRIES = 1 << 16
IO_BLOCK_CELLS = 1 << 16
MAX_M = 31

TABLE_MAGIC = b"KXTB"
TABLE_VERSION = 1


def _check_dims(n: int, m: int) -> None:
    """A dense table needs 1 <= n <= DENSE_LIMIT_N and 1 <= m <= MAX_M."""
    if n < 1:
        raise ParameterError(f"table needs n >= 1, got {n}")
    if n > DENSE_LIMIT_N:
        raise ResourceError(f"n={n} exceeds the dense-table limit n <= {DENSE_LIMIT_N}")
    if not 1 <= m <= MAX_M:
        raise ParameterError(f"table needs 1 <= m <= {MAX_M}, got {m}")


@dataclass(eq=False)
class Table:
    """An N x N grid of m-bit colors, immutable after construction.

    provenance is a short free-form record of where the cells came
    from: ``searched(...)``, ``loaded(...)`` or ``constructed(...)``.
    """

    n: int
    m: int
    cells: np.ndarray
    provenance: str = "constructed(unnamed)"

    def __post_init__(self):
        _check_dims(self.n, self.m)
        N = 1 << self.n
        cells = np.ascontiguousarray(self.cells, dtype=np.uint32)
        if cells.shape == (N * N,):
            cells = cells.reshape(N, N)
        if cells.shape != (N, N):
            raise ParameterError(
                f"cells shape {self.cells.shape} does not match N={N}"
            )
        if cells.size and int(cells.max()) >= (1 << self.m):
            raise ParameterError(f"cell color >= 2^{self.m}")
        cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)

    @property
    def N(self) -> int:
        return 1 << self.n

    @property
    def M(self) -> int:
        return 1 << self.m

    def lookup(self, x: int, y: int) -> int:
        if not (0 <= x < self.N and 0 <= y < self.N):
            raise ParameterError(f"cell ({x}, {y}) outside the {self.N}x{self.N} grid")
        return int(self.cells[x, y])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Table)
            and self.n == other.n
            and self.m == other.m
            and np.array_equal(self.cells, other.cells)
        )

    @classmethod
    def constant(cls, n, m, color, provenance="constructed(constant)"):
        N = 1 << n
        return cls(n, m, np.full((N, N), color, dtype=np.uint32), provenance)


@dataclass(frozen=True)
class BalanceSpec:
    """Balance parameters: minimum rectangle side S and maximum row shift."""

    S: int
    shift_bound: int

    def __post_init__(self):
        if self.S < 1:
            raise ParameterError(f"S must be >= 1, got {self.S}")
        if self.shift_bound < 1:
            raise ParameterError(f"shift_bound must be >= 1, got {self.shift_bound}")

    def check_fits(self, N: int) -> None:
        """Refuse S > N, and shift_bound > N: shifts are taken mod N, so
        past N a shift pair such as (1, N + 1) reads one row twice."""
        for name, v in (("S", self.S), ("shift_bound", self.shift_bound)):
            if v > N:
                raise ParameterError(f"{name}={v} exceeds N={N}")


@dataclass(frozen=True)
class VerifyResult:
    """ok plus, when not ok, the first violating witness found.

    Witness shape: (B1, B2, color) for the single-color bound and
    (B1, B2, a, b, i, j) for the shifted-pair bound.  count is the
    witness's cell count.
    """

    ok: bool
    witness: Optional[tuple] = None
    count: Optional[int] = None


@dataclass(frozen=True)
class SearchFailure:
    """Search exhausted its trials; nearest miss is the best ratio seen."""

    trials: int
    best_ratio: float
    best_trial: int
    best_condition: str

    def __str__(self):
        if self.best_trial < 0:
            return f"no balanced table among all {self.trials} candidates"
        return (
            f"no balanced table in {self.trials} trials; nearest miss at "
            f"trial {self.best_trial} ({self.best_condition} bound, "
            f"count/bound ratio {self.best_ratio:.4f})"
        )


def _check_budget(N: int, S: int, budget: Optional[int], what: str) -> None:
    pairs = math.comb(N, S) ** 2
    limit = DEFAULT_PAIR_BUDGET if budget is None else budget
    if pairs > limit:
        raise ResourceError(
            f"{what} needs {pairs} subset pairs, over budget {limit} "
            "(raise the budget to allow this)"
        )


def _scan_blocks(grids: np.ndarray, K: int, S: int):
    """Yield (subsets, tops) for all size-S row subsets of T stacked N x N
    grids, in blocks: subsets (B, S) in lexicographic order, tops (T, B, K)
    each grid's per-label sum of its S largest per-column counts over the
    subset's rows.  Sending back a (T,) boolean mask drops the grids it
    marks False from later blocks."""
    N = grids.shape[1]
    slots = grids.astype(np.intp) * N + np.arange(N)  # (t, x, y) -> label*N + y
    rows = itertools.combinations(range(N), S)
    size = 1
    while len(slots):
        largest = max(1, SCAN_BLOCK_ENTRIES // (len(slots) * N * K))
        block = itertools.chain.from_iterable(itertools.islice(rows, size))
        subsets = np.fromiter(block, np.intp).reshape(-1, S)
        if not len(subsets):
            return
        T, B = len(slots), len(subsets)
        counts = np.zeros((T, B, K, N), dtype=np.uint16)
        flat = counts.reshape(-1)
        base = np.arange(T * B).reshape(T, B, 1) * (N * K)
        for p in range(S):  # one row per subset, so no index repeats
            flat[base + slots[:, subsets[:, p]]] += 1
        top = np.partition(counts, N - S, axis=3)[..., N - S:]
        keep = yield subsets, top.sum(axis=3, dtype=np.int64)
        if keep is not None:
            slots = slots[keep]
        size = min(2 * size, largest)


def _top_columns(grid, B1, label, S: int) -> tuple:
    """A worst column subset: the S columns richest in label on rows B1."""
    counts = (grid[list(B1)] == label).sum(axis=0)
    order = sorted(range(len(counts)), key=lambda y: (-int(counts[y]), y))
    return tuple(sorted(order[:S]))


def _first_violation(grids, K, S, most) -> list:
    """Each grid's first (B1, label, count) with count > most in scan order
    (lexicographic B1, then label), else None; a grid leaves the scan at
    its first violation."""
    found = [None] * len(grids)
    live = np.arange(len(grids))
    blocks = _scan_blocks(grids, K, S)
    keep = None
    try:
        while len(live):
            subsets, tops = blocks.send(keep)
            over = (tops > most).reshape(len(live), -1)
            keep = None
            if over.any():
                hit = over.any(axis=1)
                first = over.argmax(axis=1)
                for t in np.flatnonzero(hit):
                    b, label = divmod(int(first[t]), K)
                    found[live[t]] = tuple(subsets[b].tolist()), label, int(tops[t, b, label])
                keep = ~hit
                live = live[keep]
    except StopIteration:
        pass
    return found


def _line_bounds(lines: np.ndarray, S: int) -> np.ndarray:
    """Per label of an N x N grid, in increasing label order: the sum of
    its S largest min(S, c) over the rows, c its count in a row.  Each
    ``del`` frees a grid-sized array before the next is made, so the peak
    stays near four copies of the grid."""
    labels = np.array(lines, order="C")
    labels.sort(axis=1)
    labels = labels.ravel()
    new = np.empty(labels.size, dtype=bool)
    new[0] = True
    np.not_equal(labels[1:], labels[:-1], out=new[1:])
    new[::lines.shape[1]] = True  # every row starts a run
    starts = np.flatnonzero(new)
    del new
    counts = np.diff(starts, append=labels.size)
    np.minimum(counts, S, out=counts)
    labels = labels[starts]
    del starts
    order = np.lexsort((counts, labels))  # by label, then by count
    labels = labels[order]
    counts = counts[order]
    del order
    ends = np.flatnonzero(np.append(labels[1:] != labels[:-1], True)) + 1
    del labels
    tops = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=tops[1:])
    del counts
    starts = np.append(0, ends[:-1])  # a label's runs, of which the last S count
    np.maximum(starts, ends - S, out=starts)
    sums = tops[ends]
    del ends
    sums -= tops[starts]
    return sums


def _marginal_bound(grid: np.ndarray, S: int) -> int:
    """The largest count any one label can reach in an S x S rectangle of
    an N x N label grid.  A rectangle holds at most min(S, c) of a label
    from a row where it occurs c times, so per label the count is at most
    the sum of its S largest min(S, c) over rows, and likewise over
    columns; the result is the largest, over labels, of the smaller sum.
    Labels are counted as runs of sorted rows, so memory is O(N^2)
    whatever the label range."""
    rows = _line_bounds(grid, S)
    np.minimum(rows, _line_bounds(grid.T, S), out=rows)  # the same labels, in order
    return int(rows.max())


def _check_trials(trials: int, seed) -> None:
    """Random trials need a positive count and a nonnegative seed."""
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if seed is not None and seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")


def _check_mode(mode: str, trials: int, seed) -> None:
    """A verifier runs exhaustive or sampled; sampled runs need trials and seed."""
    if mode not in ("exhaustive", "sampled"):
        raise ParameterError(f"unknown mode {mode!r}")
    if mode == "sampled":
        _check_trials(trials, seed)


def _sampled_rects(grid: np.ndarray, K: int, S: int, trials: int, seed):
    """Yield (B1, B2, counts) for ``trials`` random S x S rectangles: B1 then
    B2 drawn as sorted S-subsets of range(N), counts (K,) the cells of each
    label in B1 x B2."""
    N = grid.shape[0]
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        B1 = tuple(sorted(rng.choice(N, size=S, replace=False).tolist()))
        B2 = tuple(sorted(rng.choice(N, size=S, replace=False).tolist()))
        yield B1, B2, np.bincount(grid[np.ix_(B1, B2)].ravel(), minlength=K)


def _labels(cells: np.ndarray, M: int, pair) -> np.ndarray:
    """The label grid a check scans from (..., N, N) cells: the colors
    themselves (pair None), or T(x+i, y) * M + T(x+j, y) for pair (i, j)."""
    if pair is None:
        return cells
    rows = np.arange(cells.shape[-2])
    shifted = lambda k: cells[..., (rows + k) % len(rows), :].astype(np.int64)
    return shifted(pair[0]) * M + shifted(pair[1])


def _checks(M: int, spec: BalanceSpec, only: Optional[str] = None):
    """Yield (condition, K, pair, most) per check in verification order: K
    labels, pair None for single-color, and most the largest count allowed
    (count * K <= 2S^2, exact integers).  ``only`` keeps one condition."""
    S = spec.S
    pairs = itertools.permutations(range(1, spec.shift_bound + 1), 2)
    # M <= 2 needs no single-color scan: count <= S^2 <= 2S^2/M
    checks = itertools.chain(
        [] if M <= 2 else [("single-color", M, None)],
        (("shifted-pair", M * M, p) for p in pairs),
    )
    for condition, K, pair in checks:
        if only in (None, condition):
            yield condition, K, pair, 2 * S * S // K


def _verify(table, spec, condition, mode, trials, seed, budget) -> VerifyResult:
    """The balance-check driver behind both verifiers: gate the inputs,
    then run ``condition``'s checks in order to the first violation."""
    S, N, M = spec.S, table.N, table.M
    spec.check_fits(N)
    _check_mode(mode, trials, seed)
    if mode == "exhaustive":
        _check_budget(N, S, budget, f"{condition} verification")
    for _, K, pair, most in _checks(M, spec, condition):
        grid = _labels(table.cells, M, pair)
        if _marginal_bound(grid, S) <= most:  # no rectangle can exceed most
            continue
        hit = None
        if mode == "exhaustive":
            first = _first_violation(grid[None], K, S, most)[0]
            if first is not None:
                B1, label, count = first
                hit = B1, _top_columns(grid, B1, label, S), label, count
        else:  # the lowest label over ``most`` in the first such rectangle
            key = seed if pair is None or seed is None else [seed, *pair]
            for B1, B2, counts in _sampled_rects(grid, K, S, trials, key):
                over = np.flatnonzero(counts > most)
                if over.size:
                    hit = B1, B2, int(over[0]), int(counts[over[0]])
                    break
        if hit is not None:
            B1, B2, label, count = hit
            colors = (label,) if pair is None else (label // M, label % M, *pair)
            return VerifyResult(False, (B1, B2, *colors), count)
    return VerifyResult(True)


def verify_color_bound(
    table: Table,
    spec: BalanceSpec,
    mode: str = "exhaustive",
    *,
    trials: int = 1000,
    seed: Optional[int] = None,
    budget: Optional[int] = None,
) -> VerifyResult:
    """Check the single-color bound: count <= (2/M) * S^2 per rectangle.

    Exhaustive mode proves the bound for every size-S rectangle pair (and
    so for all larger rectangles); sampled mode only reports that no
    violation was found among ``trials`` random rectangles.
    """
    return _verify(table, spec, "single-color", mode, trials, seed, budget)


def verify_shift_pair_bound(
    table: Table,
    spec: BalanceSpec,
    mode: str = "exhaustive",
    *,
    trials: int = 1000,
    seed: Optional[int] = None,
    budget: Optional[int] = None,
) -> VerifyResult:
    """Check the shifted-pair bound: count <= (2/M^2) * S^2 per rectangle.

    Scans shift pairs (i, j) over [1..shift_bound]^2 with i != j (see the
    module docstring for why the diagonal carries no pair events); sampled
    mode keys each pair's rectangles by [seed, i, j].
    """
    return _verify(table, spec, "shifted-pair", mode, trials, seed, budget)


def _first_misses(cells: np.ndarray, M: int, spec: BalanceSpec) -> list:
    """Each stacked table's (count/bound ratio, condition) at its first
    violation in the verifiers' check order, else None: it passes."""
    S = spec.S
    misses = [None] * len(cells)
    live = list(range(len(cells)))
    for condition, K, pair, most in _checks(M, spec):
        if not live:
            break
        grids = _labels(cells[live], M, pair)
        for t, hit in zip(live, _first_violation(grids, K, S, most)):
            if hit is not None:
                misses[t] = hit[2] * K / (2 * S * S), condition
        live = [t for t in live if misses[t] is None]
    return misses


def search_table(
    n: int,
    m: int,
    spec: BalanceSpec,
    strategy: str = "random",
    *,
    trials: int = 10**4,
    seed: Optional[int] = None,
    table_budget: Optional[int] = None,
    pair_budget: Optional[int] = None,
) -> Union[Table, SearchFailure]:
    """Find a table passing exhaustive verification, or report failure.

    random strategy: fill cells i.i.d. uniform per trial; trial t draws
    from a generator keyed by (seed, t), so runs are reproducible and
    trials are independent jobs.  exhaustive strategy: enumerate all
    M^(N^2) cell arrays in lexicographic order and return the least
    passing one (or prove none exists).

    Candidates are verified in chunks that double from one table up to
    as many as fit in SCAN_BLOCK_ENTRIES cells and SCAN_BLOCK_ENTRIES pair
    counts of one row subset.  The first passing candidate wins; the
    nearest miss is the least ratio of a first violation's count to its
    bound, the earlier trial on ties.
    """
    _check_dims(n, m)
    N, M = 1 << n, 1 << m
    if strategy == "random":
        _check_trials(trials, seed)
        if seed is None:
            seed = secrets.randbits(63)
        candidates = (
            np.random.default_rng([seed, t]).integers(0, M, size=(N, N), dtype=np.uint32)
            for t in range(trials)
        )
        provenance = lambda t: f"searched(seed={seed},trial={t})"
    elif strategy == "exhaustive":
        total = M ** (N * N)
        limit = DEFAULT_TABLE_BUDGET if table_budget is None else table_budget
        if total > limit:
            raise ResourceError(
                f"exhaustive search over {total} tables exceeds budget {limit}"
            )
        candidates = itertools.product(range(M), repeat=N * N)
        provenance = lambda t: "searched(exhaustive)"
    else:
        raise ParameterError(f"unknown search strategy {strategy!r}")
    spec.check_fits(N)
    _check_budget(N, spec.S, pair_budget, "single-color verification")
    tried, best = 0, (math.inf, -1, "")
    size, largest = 1, max(1, SCAN_BLOCK_ENTRIES // (N * max(N, M * M)))
    while True:
        chunk = itertools.islice(candidates, size)
        cells = np.array(list(chunk), dtype=np.uint32).reshape(-1, N, N)
        if not len(cells):
            break
        for k, miss in enumerate(_first_misses(cells, M, spec)):
            if miss is None:
                return Table(n, m, cells[k].copy(), provenance(tried + k))
            if miss[0] < best[0]:
                best = miss[0], tried + k, miss[1]
        tried += len(cells)
        size = min(2 * size, largest)
    if strategy == "exhaustive":
        return SearchFailure(tried, math.inf, -1, "none")
    return SearchFailure(tried, *best)


def apply_table(x1: int, x2: int, table: Table, count: int) -> list[int]:
    """Outputs T(x1 + j, x2) for j = 1..count, row shifts modulo N.

    Shifts j and j + N name the same row, so count is at most N.
    """
    N = table.N
    for name, v in (("x1", x1), ("x2", x2)):
        if not 0 <= v < N:
            raise ParameterError(f"{name} does not fit in {table.n} bits")
    if not 1 <= count <= N:
        raise ParameterError(f"count must be in 1..{N}, got {count}")
    return [int(table.cells[(x1 + j) % N, x2]) for j in range(1, count + 1)]


# ---------------------------------------------------------------------------
# Parameter schedule for the table construction
# ---------------------------------------------------------------------------


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


# Largest n for derive_table_schedule: its S then has at most 2^24 bits.
MAX_SCHEDULE_N = 1 << 24


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
        raise ParameterError(
            f"derived output length m = {m} < 1; increase s or decrease k"
        )
    S = 1 << ((2 * s + 2) // 3)  # 2^ceil(2s/3)
    t = alpha + 7 * log_n
    return TableSchedule(n, k, s, alpha, m, S, t)


# ---------------------------------------------------------------------------
# Existence bound for strongly balanced tables
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Table file format
# ---------------------------------------------------------------------------
#
# Bit-exact layout: magic "KXTB", version byte 0x01, n and m as unsigned
# 8-bit ints, then ceil(2^(2n) * m / 8) bytes of colors packed row-major,
# least-significant bit first within each byte, with zero padding bits.
# Readers accept 1 <= n <= DENSE_LIMIT_N and 1 <= m <= MAX_M.


def _pack_cells(cells: np.ndarray, m: int) -> Iterator[np.ndarray]:
    """The packed body of flat uint32 cells, in byte-aligned chunks."""
    for start in range(0, len(cells), IO_BLOCK_CELLS):
        block = cells[start:start + IO_BLOCK_CELLS].astype("<u4", copy=False)
        bits = np.unpackbits(
            block.view(np.uint8).reshape(-1, 4), axis=1, count=m, bitorder="little"
        )
        yield np.packbits(bits, bitorder="little")


def _unpack_cells(body, m: int, count: int) -> np.ndarray:
    """``count`` m-bit cells from a packed body (a bytes-like object)."""
    data = np.frombuffer(body, dtype=np.uint8)
    cells = np.empty(count, dtype=np.uint32)
    for start in range(0, count, IO_BLOCK_CELLS):
        size = min(IO_BLOCK_CELLS, count - start)
        chunk = data[start * m // 8:((start + size) * m + 7) // 8]
        bits = np.zeros((size, 32), dtype=np.uint8)  # a little-endian uint32 per row
        low = np.unpackbits(chunk, count=size * m, bitorder="little")
        bits[:, :m] = low.reshape(size, m)
        cells[start:start + size] = np.packbits(bits, bitorder="little").view("<u4")
    return cells


def write_table(table: Table, path, sidecar_fields: Optional[dict] = None) -> None:
    """Write the binary table file plus a ``<path>.prov`` text sidecar."""
    with open(path, "wb") as fh:
        fh.write(TABLE_MAGIC + bytes([TABLE_VERSION, table.n, table.m]))
        for chunk in _pack_cells(table.cells.ravel(), table.m):
            fh.write(chunk)
    lines = [f"provenance={table.provenance}"]
    for key in sorted(sidecar_fields or {}):
        lines.append(f"{key}={sidecar_fields[key]}")
    with open(f"{path}.prov", "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_table(path) -> Table:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != TABLE_MAGIC:
        raise ParameterError(f"{path}: not a table file (bad magic)")
    if len(data) < 7:
        raise DecodeError(f"{path}: header truncated, {len(data)} of 7 bytes", len(data))
    if data[4] != TABLE_VERSION:
        raise ParameterError(f"{path}: unsupported version {data[4]}")
    n, m = data[5], data[6]
    if n < 1 or m < 1:
        raise ParameterError(f"{path}: invalid header n={n}, m={m}")
    if n > DENSE_LIMIT_N:
        raise DecodeError(f"{path}: n={n} exceeds the dense limit {DENSE_LIMIT_N}", 5)
    if m > MAX_M:
        raise DecodeError(f"{path}: m={m} exceeds the color limit {MAX_M}", 6)
    count = (1 << n) * (1 << n)
    expected = 7 + (count * m + 7) // 8
    if len(data) != expected:
        raise ParameterError(
            f"{path}: expected {expected} bytes for n={n}, m={m}, got {len(data)}"
        )
    if data[-1] >> (count * m % 8 or 8):  # bits past the last cell
        raise DecodeError(f"{path}: nonzero padding bits", len(data) - 1)
    cells = _unpack_cells(memoryview(data)[7:], m, count)
    return Table(n, m, cells, f"loaded({path})")


def read_provenance(path) -> Optional[str]:
    """Contents of the sidecar record written next to a table file, if any."""
    try:
        with open(f"{path}.prov") as fh:
            return fh.read()
    except FileNotFoundError:
        return None
