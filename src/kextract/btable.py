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
(``BalanceSpec.check_fits``, then the mode, trials and seed) and returns
the first violation of the checks ``_checks`` lists in verification
order: the single-color grid (skipped for M <= 2, where count <= S^2 <=
2S^2/M), then the shift pairs (1, 2)..(1, r), one per difference: a row
rotation and a color swap turn the (1, 1 + |j - i|) grid into the (i, j)
one.  Each check runs one plan in both modes: certificate, budget, scan.
``_marginal_bound`` bounds every label's count in every S x S rectangle
from the label's counts per row and per column alone; a check whose
bound is at most its allowed count passes with no scan, and only the
checks it leaves open meet the budget.  ``search_table`` walks the same
list over stacks of candidate tables, behind one budget gate and without
the certificate: on random tables it closes no pair check, and the
single-color scans it would spare are already cheap.

Both modes run one kernel, ``_scan_blocks``: per row subset B1 and
label, the sum of the S largest per-column counts, exactly the maximum
over all size-S column subsets.  The mode picks only the row subsets
(``row_subsets``, which holds the budget): all of them in lexicographic
order (exhaustive, a proof, and sampled runs with trials >= C(N, S)), or
``trials`` random ones keyed by the seed, or by [seed, i, j] for pair
(i, j) (sampled, which can only refute).  The walk over all of them
reads one ``itertools.combinations`` stream: ``_lex_subsets(N, S)``
holds all of it in one read-only uint8 table, kept in an LRU cache of
SUBSET_TABLE_CACHE tables, so the checks of one process that share
(N, S) build it once; a walk whose table would pass SUBSET_TABLE_ENTRIES
entries reads the stream block by block instead.
A witness is B1, its richest columns (``_top_columns``) and its exact
count.  The kernel scans a stack of T grids in blocks of row subsets
that start at SCAN_BLOCK_ENTRIES >> 4 counts and double up to
SCAN_BLOCK_ENTRIES, and refuses a stack whose one row subset needs over
SCAN_BLOCK_LIMIT; ``_first_violation`` drops each grid from the stack at
its first violation, and with fewer labels than columns it counts
columns only for the row subsets where some label's total over the rows
exceeds the allowed count.  The verifiers
and ``richest_rectangle``, the running maximum that ``condense`` takes
over its color-subset grid, scan one grid (T = 1).  ``search_table``
scans chunks of candidate tables that grow x4 from one table up to
SCAN_BLOCK_ENTRIES cells (and one row subset's pair counts), so a chunk
shares the fixed cost of each block and each check.
``_random_cells`` draws a chunk in one pass and gives the tables of
per-trial generators keyed by (seed, t): ``_seed_states`` runs each
step of numpy's SeedSequence hash on the whole chunk at once, and each
trial's PCG64 seeds itself from its row of those states and writes its
raw words straight into the chunk's cells.  A check
with more labels than its grids hold cells (wide colors, m up to 31)
scans only the labels present, which ``_first_violation`` renumbers in
order and maps back.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np

from .errors import DecodeError, ParameterError, ResourceError
from .schedule import derive_table_schedule  # bench/layers.py wraps btable.derive_table_schedule by name

# Budgets: logical subset-pair count for exhaustive verification, table
# count for exhaustive search, the largest n a table is materialized
# densely for (2^(2n) cells), the column counts a scan block holds
# (128 KiB) and may hold for its one row subset (256 MiB, an n=9, m=9
# pair check), the entries of the largest lexicographic row-subset table
# (C(N, S) * S; 256 KiB of uint8) and how many such tables stay cached,
# and the cells a KXTB read or write packs at a time (a multiple of 8, so
# every block starts on a byte boundary; ~2 MiB of bits per block).
# Colors are uint32 cells, and m <= MAX_M keeps pair labels a*M + b
# within int64.
DEFAULT_PAIR_BUDGET = 10**9
DEFAULT_TABLE_BUDGET = 1 << 16
DENSE_LIMIT_N = 12
SCAN_BLOCK_ENTRIES = 1 << 16
SCAN_BLOCK_LIMIT = 1 << 27
SUBSET_TABLE_ENTRIES = 1 << 18
SUBSET_TABLE_CACHE = 8
IO_BLOCK_CELLS = 1 << 16
MAX_M = 31

# numpy's SeedSequence constants (the entropy hash's, its mix's and the
# output hash's), which NEP 19 keeps stable across numpy versions.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MASK32 = (1 << 32) - 1

# the pool words SeedSequence mixes each pool word into, in order
_OTHER_WORDS = [np.array([d for d in range(4) if d != src]) for src in range(4)]

TABLE_MAGIC = b"KXTB"
TABLE_VERSION = 1


def check_dims(n: int, m: int) -> None:
    """A dense table needs 1 <= n <= DENSE_LIMIT_N and 1 <= m <= MAX_M."""
    if n < 1:
        raise ParameterError(f"table needs n >= 1, got {n}")
    if n > DENSE_LIMIT_N:
        raise ResourceError(f"n={n} exceeds the dense-table limit n <= {DENSE_LIMIT_N}")
    if not 1 <= m <= MAX_M:
        raise ParameterError(f"table needs 1 <= m <= {MAX_M}, got {m}")


def check_int(name: str, value) -> int:
    """value as a Python int (numpy integers too); a bool, a float or a
    string is a ParameterError that names it."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ParameterError(f"{name} must be an int, got {type(value).__name__} {value!r}")


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
        check_dims(self.n, self.m)
        N = 1 << self.n
        cells = self.cells
        if not isinstance(cells, np.ndarray):  # no cast yet, so no wrap and no truncation
            cells = np.array(cells, dtype=object)
        if cells.shape == (N * N,):
            cells = cells.reshape(N, N)
        if cells.shape != (N, N):
            raise ParameterError(f"cells shape {cells.shape} does not match N={N}")
        if cells.dtype.kind not in "iu":  # Python ints pass; bools, floats and strings do not
            cells = np.array([check_int("cell", v) for v in cells.flat], dtype=object).reshape(N, N)
        if cells.dtype.kind != "u" and cells.min() < 0:
            raise ParameterError(f"negative cell color {cells.min()}")
        if int(cells.max()) >= (1 << self.m):
            raise ParameterError(f"cell color >= 2^{self.m}")
        cells = np.ascontiguousarray(cells, dtype=np.uint32)
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
        return cls(n, m, np.full((N, N), color), provenance)  # color's own dtype, checked as cells


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


@functools.lru_cache(maxsize=SUBSET_TABLE_CACHE)
def _lex_subsets(N: int, S: int) -> np.ndarray:
    """All C(N, S) size-S subsets of range(N) in lexicographic order, one
    per row of a read-only uint8 array (uint16 for N > 256): the
    ``itertools.combinations`` stream that walks past the cap read, held
    whole."""
    dtype = np.uint8 if N <= 256 else np.uint16
    entries = itertools.chain.from_iterable(itertools.combinations(range(N), S))
    table = np.fromiter(entries, dtype, math.comb(N, S) * S).reshape(-1, S)
    table.setflags(write=False)
    return table


def _scan_blocks(grids: np.ndarray, K: int, S: int, rows=None, most=None):
    """Yield (subsets, tops) for T stacked N x N grids over the sorted
    size-S row subsets ``rows`` (default: all, lexicographic), in blocks:
    subsets (B, S), tops (T, B, K) each grid's per-label sum of its S
    largest per-column counts over the subset's rows.  Sending back a
    (T,) boolean mask drops the grids it marks False from later blocks.
    A stack that needs over SCAN_BLOCK_LIMIT counts a row subset is
    refused before anything is allocated.

    The default walk reads ``itertools.combinations``: as read-only
    slices of the cached ``_lex_subsets(N, S)`` while its C(N, S) * S
    entries are at most SUBSET_TABLE_ENTRIES, else straight from the
    stream, one block at a time.  The first block holds
    SCAN_BLOCK_ENTRIES >> 4 counts (at least one subset), so a scan that
    stops in it wastes at most that many, and each next block doubles up
    to SCAN_BLOCK_ENTRIES counts for the grids still in the scan.

    Every block is filled one way: the (grid, subset) entries that are
    open get their column counts, partitioned in place, and their tops.
    With no screen every entry is open.  Given ``most`` and K < N, an
    entry whose every label total over its rows is at most ``most`` is
    screened: it stays closed, and its tops are those totals, which bound
    the exact ones (a label's S richest columns hold at most all of it)
    and are at most ``most``.  So tops is exact wherever it exceeds
    ``most``.  Per-row label counts cost T*N*K, at most one grid; at K >=
    N the totals would cost what the counts they could skip cost, so
    there is no screen."""
    T, N = grids.shape[:2]
    if T * K * N > SCAN_BLOCK_LIMIT:
        raise ResourceError(f"a scan block needs {T * K * N} counts for one row subset, "
                            f"over the limit SCAN_BLOCK_LIMIT = {SCAN_BLOCK_LIMIT}")
    slots = grids.astype(np.intp)  # a copy, in place from here on
    lines = None
    if most is not None and K < N:  # (t, x, label) -> the label's count on row x
        offsets = K * np.arange(T * N).reshape(T, N, 1)
        slots += offsets
        lines = np.bincount(slots.ravel(), minlength=T * N * K).astype(np.uint16).reshape(T, N, K)
        slots -= offsets
    slots *= N
    slots += np.arange(N)  # (t, x, y) -> label*N + y
    table = None
    if rows is None and math.comb(N, S) * S <= SUBSET_TABLE_ENTRIES:
        table = _lex_subsets(N, S)
    rows = itertools.combinations(range(N), S) if rows is None else iter(rows)
    start, size = 0, max(1, (SCAN_BLOCK_ENTRIES >> 4) // (T * N * K))
    while len(slots):
        largest = max(1, SCAN_BLOCK_ENTRIES // (len(slots) * N * K))
        if table is None:
            block = itertools.chain.from_iterable(itertools.islice(rows, size))
            subsets = np.fromiter(block, np.intp).reshape(-1, S)
        else:
            subsets, start = table[start:start + size], start + size
        if not len(subsets):
            return
        T, B = len(slots), len(subsets)
        if lines is None:  # no screen: every (grid, subset) entry is open
            tops = np.empty((T, B, K), dtype=np.int64)
            fill = np.ones((T, B), dtype=bool)
        else:  # open only the entries whose label totals pass most
            rows_in = np.zeros((B, N), dtype=np.int64)
            rows_in[np.arange(B).reshape(-1, 1), subsets] = 1
            tops = rows_in @ lines  # (T, B, K) label totals over each subset's rows
            fill = (tops > most).any(axis=2)
        t, b = np.nonzero(fill)
        counts = np.zeros((len(t), K, N), dtype=np.uint16)
        flat = counts.reshape(-1)
        base = np.arange(len(t)).reshape(-1, 1) * (N * K)
        for p in range(S):  # one row per subset, so no index repeats
            flat[base + slots[t, subsets[b, p]]] += 1
        counts.partition(N - S, axis=-1)  # in place: np.partition would copy the block
        tops[t, b] = counts[..., N - S:].sum(axis=-1, dtype=np.int64)
        keep = yield subsets, tops
        if keep is not None:
            slots = slots[keep]
            if lines is not None:
                lines = lines[keep]
        size = min(2 * size, largest)


def _top_columns(grid, B1, label, S: int) -> tuple:
    """A worst column subset: the S columns richest in label on rows B1."""
    counts = (grid[list(B1)] == label).sum(axis=0)
    order = np.argsort(-counts, kind="stable")  # ties keep the lower column first
    return tuple(sorted(order[:S].tolist()))


def _first_violation(grids, K, S, most, rows=None) -> list:
    """Each grid's first (B1, label, count) with count > most in scan order
    (B1 in the order of ``rows``, lexicographic by default, then label),
    else None; a grid leaves the scan at its first violation.  The kernel
    screens row subsets by label totals against ``most``, which leaves
    every count over it exact.  With more labels K than the stack has
    cells (wide colors, m up to 31), the scan counts only the labels that
    occur, renumbered in increasing order so that its counts fit; the
    labels it returns are the caller's."""
    labels = range(K)
    if K > grids.size:
        labels, inverse = np.unique(grids, return_inverse=True)
        grids, K = inverse.reshape(grids.shape), len(labels)
    found = [None] * len(grids)
    live = np.arange(len(grids))
    blocks = _scan_blocks(grids, K, S, rows, most)
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
                    found[live[t]] = tuple(subsets[b].tolist()), int(labels[label]), int(tops[t, b, label])
                keep = ~hit
                live = live[keep]
    except StopIteration:
        pass
    return found


def richest_rectangle(indicator: np.ndarray, S: int, rows=None) -> tuple[int, Optional[tuple]]:
    """(count, (B1, B2)) for the first S x S rectangle, B1 in the order of
    ``rows`` (a ``row_subsets`` result), with the most 1-cells of a 0/1
    grid, B2 its richest columns; (0, None) if the grid holds no 1.  The
    scan stops once the count reaches the grid's ``_marginal_bound``,
    which no rectangle passes and a later one could only tie.  That
    ceiling only ends a scan, so callers meet the budget first."""
    ceiling = _marginal_bound(indicator, S)
    best_count, best = 0, None
    for subsets, tops in _scan_blocks(indicator[None], 2, S, rows):
        b = int(np.argmax(tops[0, :, 1]))
        if tops[0, b, 1] > best_count:
            best_count, B1 = int(tops[0, b, 1]), tuple(subsets[b].tolist())
            best = B1, _top_columns(indicator, B1, 1, S)
            if best_count >= ceiling:
                break
    return best_count, best


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


def check_mode(mode: str, trials: int, seed) -> tuple[int, Optional[int]]:
    """A check runs exhaustive or sampled; sampled (random) trials need a
    positive int count and a seed that is None or a nonnegative int,
    where a bool is not an int.  Returns (trials, seed), as Python ints
    when sampled."""
    if mode not in ("exhaustive", "sampled"):
        raise ParameterError(f"unknown mode {mode!r}")
    if mode != "sampled":
        return trials, seed
    trials = check_int("trials", trials)
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if seed is None:
        return trials, None
    seed = check_int("seed", seed)
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    return trials, seed


def row_subsets(N: int, S: int, mode: str, trials: int, seed, budget, what: str, pair=None):
    """The row subsets a check scans: None, the kernel's default of all of
    them in lexicographic order, when exhaustive (refused by
    ``_check_budget`` as ``what`` past ``budget`` subset pairs) or when
    sampled with trials >= C(N, S); else ``trials`` sorted random ones,
    drawn lazily as ``rng.choice(N, size=S, replace=False)`` from
    default_rng(seed), or from default_rng([seed, i, j]) for the shift
    pair (i, j)."""
    if mode == "exhaustive":
        _check_budget(N, S, budget, what)
    elif trials < math.comb(N, S):
        rng = np.random.default_rng(seed if pair is None or seed is None else [seed, *pair])
        return (sorted(rng.choice(N, size=S, replace=False).tolist()) for _ in range(trials))
    return None


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
    (count * K <= 2S^2, exact integers).  ``only`` keeps one condition.

    The pair checks are (1, 2)..(1, r): the (i + 1, j + 1) grid is the
    (i, j) grid with its rows rotated up by one, which permutes the size-S
    row subsets, and the (j, i) grid is the (i, j) one under the label
    bijection a*M + b -> b*M + a (same K, most).  So every pair's largest
    count is that of (1, 1 + |j - i|), and sampling the other pairs would
    only draw more row subsets, whose number ``trials`` sets."""
    S, r = spec.S, spec.shift_bound
    # M <= 2 needs no single-color scan: count <= S^2 <= 2S^2/M
    checks = itertools.chain(
        [] if M <= 2 else [("single-color", M, None)],
        (("shifted-pair", M * M, (1, j)) for j in range(2, r + 1)),
    )
    for condition, K, pair in checks:
        if only in (None, condition):
            yield condition, K, pair, 2 * S * S // K


def _verify(table, spec, condition, mode, trials, seed, budget) -> VerifyResult:
    """The balance-check driver behind both verifiers: gate the inputs,
    then run ``condition``'s checks in order to the first violation, each
    as one plan: the certificate, then the budget, then the scan.  The
    mode picks only the row subsets each check's scan walks."""
    S, N, M = spec.S, table.N, table.M
    spec.check_fits(N)
    trials, seed = check_mode(mode, trials, seed)
    for _, K, pair, most in _checks(M, spec, condition):
        grid = _labels(table.cells, M, pair)
        if _marginal_bound(grid, S) <= most:  # no rectangle can exceed most
            continue
        rows = row_subsets(N, S, mode, trials, seed, budget, f"{condition} verification", pair)
        first = _first_violation(grid[None], K, S, most, rows)[0]
        if first is not None:
            B1, label, count = first
            B2 = _top_columns(grid, B1, label, S)
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
    so for all larger rectangles); sampled mode checks ``trials`` random
    row subsets against all column subsets, so its ok proves nothing.
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

    Bounds every shift pair (i, j) over [1..shift_bound]^2 with i != j
    (see the module docstring for why the diagonal carries no pair
    events) by checking (1, 2)..(1, shift_bound), one pair per difference
    (``_checks``); sampled mode keys each pair's random row subsets by
    [seed, 1, j].
    """
    return _verify(table, spec, "shifted-pair", mode, trials, seed, budget)


def _first_misses(cells: np.ndarray, M: int, spec: BalanceSpec) -> list:
    """Each stacked table's (count/bound ratio, condition) at its first
    violation in check order, else None (it passes); every row subset is
    scanned."""
    S = spec.S
    misses = [None] * len(cells)
    live = list(range(len(cells)))
    for condition, K, pair, most in _checks(M, spec):
        if not live:
            break
        for t, hit in zip(live, _first_violation(_labels(cells[live], M, pair), K, S, most)):
            if hit is not None:
                misses[t] = hit[2] * K / (2 * S * S), condition
        live = [t for t in live if misses[t] is None]
    return misses


@functools.cache
def _hash_constants(init: int, mult: int, steps: int) -> np.ndarray:
    """A SeedSequence hash's constants as a (steps + 1, 1) uint32 column:
    init, then times mult per step; step k XORs with row k and multiplies
    by row k + 1."""
    h = [init]
    for _ in range(steps):
        h.append(h[-1] * mult & _MASK32)
    h = np.array(h, np.uint32)[:, None]
    h.flags.writeable = False  # shared by every caller
    return h


def _words(x: int) -> list:
    """x's 32-bit words, least significant first; none for 0."""
    return [x >> s & _MASK32 for s in range(0, x.bit_length(), 32)]


def _mix(pool: np.ndarray, word, h: np.ndarray, k: int) -> np.ndarray:
    """SeedSequence's ``mix(pool[i], hashmix(word))`` on each row i of
    pool, in place, the hashmixes taking steps k, k + 1, ... of h."""
    word = word ^ h[k:k + len(pool)]
    word *= h[k + 1:k + 1 + len(pool)]
    word ^= word >> 16
    word *= _MIX_R
    pool *= _MIX_L
    pool -= word
    pool ^= pool >> 16
    return pool


def _seed_states(seed: int, start: int, stop: int) -> np.ndarray:
    """The (stop - start, 4) uint64 rows of ``np.random.SeedSequence([seed,
    t]).generate_state(4, np.uint64)`` for t in start..stop-1.

    The entropy is seed's words, then t's (one word for 0): L words.
    Each step of numpy's ``mix_entropy`` runs on the whole chunk: pool
    word i starts as hashmix(entropy word i, or 0 past L), then each word
    is mixed into the other three in turn, then each entropy word past
    the fourth into all four.  The hashmixes take steps 0, 1, 2, ... of
    one constant chain, 16 + 4 * max(0, L - 4) in all, so the steps
    depend on L alone.  Between multiples of 2^32, t's first word runs on
    and its other words are fixed, so the chunk splits there.  The
    output hash runs over pool words 0-3 twice, with constants that run
    on from word to word, and its eight 32-bit words become four 64-bit
    ones as numpy converts them."""
    pools = np.empty((4, stop - start), np.uint32)
    low = start
    while low < stop:
        high = min(stop, ((low >> 32) + 1) << 32)
        first = np.arange(low & _MASK32, (high - 1 & _MASK32) + 1, dtype=np.uint32)
        entropy = [*(_words(seed) or [0]), first, *_words(low >> 32)]
        h = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * max(0, len(entropy) - 4))
        pool = pools[:, low - start:high - start]
        for i in range(4):
            pool[i] = entropy[i] if i < len(entropy) else 0
        pool ^= h[:4]
        pool *= h[1:5]
        pool ^= pool >> 16
        for src in range(4):
            others = _OTHER_WORDS[src]
            pool[others] = _mix(pool[others], pool[src], h, 4 + 3 * src)
        for i in range(4, len(entropy)):
            _mix(pool, entropy[i], h, 4 * i)
        low = high
    h = _hash_constants(_INIT_B, _MULT_B, 8)[:, 0]
    words = np.concatenate((pools, pools)).T.copy()
    words ^= h[:-1]
    words *= h[1:]
    words ^= words >> 16
    return words.astype("<u4").view("<u8").astype(np.uint64)


class _SeedState:
    """One row of ``_seed_states`` as the seed sequence a BitGenerator
    takes: PCG64 asks for ``generate_state(4, np.uint64)`` alone, which
    is the row.  ``_random_cells`` registers the class as numpy's
    ``ISeedSequence`` when it draws, so ``import kextract.btable`` does
    not load numpy.random."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.state


def _random_cells(seed: int, start: int, stop: int, N: int, m: int) -> np.ndarray:
    """The (stop - start, N, N) uint32 cells of trials start..stop-1, row
    t equal to ``np.random.default_rng([seed, t]).integers(0, 2**m,
    size=(N, N), dtype=np.uint32)``.  ``_seed_states`` hashes every
    trial's seed state at once; each trial's PCG64 then seeds itself
    from its row and writes its N*N/2 raw 64-bit words into its row of
    cells.  For a power-of-two range, ``integers``' Lemire path keeps
    the top m bits of each 32-bit half, low half first, and never
    rejects."""
    np.random.bit_generator.ISeedSequence.register(_SeedState)
    cells = np.empty((stop - start, N * N), "<u4")
    for row, state in zip(cells.view("<u8"), _seed_states(seed, start, stop)):
        row[:] = np.random.PCG64(_SeedState(state)).random_raw(N * N // 2)
    cells >>= 32 - m
    return cells.reshape(-1, N, N)


def search_table(
    n: int,
    m: int,
    spec: BalanceSpec,
    strategy: str = "random",
    *,
    trials: int = 10**4,
    seed: Optional[int] = None,
    budget: Optional[int] = None,
) -> Union[Table, SearchFailure]:
    """Find a table passing exhaustive verification, or report failure.

    random strategy: fill cells i.i.d. uniform per trial; trial t is the
    table ``np.random.default_rng([seed, t])`` draws, so runs are
    reproducible and trials are independent jobs.  exhaustive strategy:
    enumerate all M^(N^2) cell arrays in lexicographic order and return
    the least passing one (or prove none exists).  ``budget`` caps both
    the exhaustive candidate count and the verification's subset pairs;
    None means DEFAULT_TABLE_BUDGET and DEFAULT_PAIR_BUDGET.

    Candidates are drawn and verified in chunks of 1, 4, 16, ... tables,
    up to as many as fit in SCAN_BLOCK_ENTRIES cells and
    SCAN_BLOCK_ENTRIES pair counts of one row subset; every passing
    table in a chunk costs a full scan, so the first chunk holds one,
    and a hit at trial h scans at most about 4h tables.
    The random strategy draws a chunk in one call to ``_random_cells``,
    which hashes the chunk's per-trial seeds together in numpy: the same
    tables as the per-trial generators.  The first passing
    candidate wins; the nearest miss is the least ratio of a first
    violation's count to its bound, the earlier trial on ties.
    """
    check_dims(n, m)
    N, M = 1 << n, 1 << m
    if strategy == "random":
        trials, seed = check_mode("sampled", trials, seed)
        if seed is None:
            import secrets  # only a seedless search draws one

            seed = secrets.randbits(63)
        total = trials
        draw = lambda start, stop: _random_cells(seed, start, stop, N, m)
        provenance = lambda t: f"searched(seed={seed},trial={t})"
    elif strategy == "exhaustive":
        limit = DEFAULT_TABLE_BUDGET if budget is None else budget
        if m * N * N >= max(limit, 0).bit_length():  # 2^k > limit, without building 2^k
            raise ResourceError(
                f"exhaustive search over 2^{m * N * N} tables exceeds budget {limit}"
            )
        total = M ** (N * N)
        # table t's cells are t's base-M digits, most significant first,
        # the order of itertools.product(range(M), repeat=N * N)
        shifts = m * np.arange(N * N - 1, -1, -1)
        draw = lambda start, stop: (
            (np.arange(start, stop)[:, None] >> shifts & M - 1).astype(np.uint32).reshape(-1, N, N)
        )
        provenance = lambda t: "searched(exhaustive)"
    else:
        raise ParameterError(f"unknown search strategy {strategy!r}")
    spec.check_fits(N)
    _check_budget(N, spec.S, budget, "table search")
    best = (math.inf, -1, "")
    largest = max(1, SCAN_BLOCK_ENTRIES // (N * max(N, M * M)))
    start, size = 0, 1
    while start < total:
        stop = min(start + size, total)
        cells = draw(start, stop)
        for k, miss in enumerate(_first_misses(cells, M, spec)):
            if miss is None:
                return Table(n, m, cells[k].copy(), provenance(start + k))
            if miss[0] < best[0]:
                best = miss[0], start + k, miss[1]
        start, size = stop, min(4 * size, largest)
    if strategy == "exhaustive":
        return SearchFailure(total, math.inf, -1, "none")
    return SearchFailure(total, *best)


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

