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

Exhaustive verification walks every size-S row subset and, per color,
bounds the worst column subset by the sum of the S largest per-column
counts, which is exactly the maximum over all size-S column subsets.
``_scan_blocks`` does this for ``btable`` and ``condense`` in blocks of
lexicographic row subsets that double up to SCAN_BLOCK_ENTRIES counts.
For M <= 2 the single-color bound holds unscanned: count <= S^2 <= 2S^2/M.
"""

from __future__ import annotations

import itertools
import math
import secrets
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np
from mpmath import mp, mpf

from .errors import DecodeError, ParameterError, ResourceError

# Budgets: logical subset-pair count for exhaustive verification, table
# count for exhaustive search, the largest n a table is materialized
# densely for (2^(2n) cells), and the column counts a scan block holds
# (128 KiB; a block has at least one row subset, whatever N * K is).
DEFAULT_PAIR_BUDGET = 10**9
DEFAULT_TABLE_BUDGET = 1 << 16
DENSE_LIMIT_N = 12
SCAN_BLOCK_ENTRIES = 1 << 16

TABLE_MAGIC = b"KXTB"
TABLE_VERSION = 1


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
        if self.n < 1:
            raise ParameterError(f"table needs n >= 1, got {self.n}")
        if self.n > DENSE_LIMIT_N:
            raise ResourceError(
                f"n={self.n} exceeds the dense-table limit n <= {DENSE_LIMIT_N}"
            )
        if self.m < 1:
            raise ParameterError(f"table needs m >= 1, got {self.m}")
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
    """Balance parameters: minimum rectangle side S and maximum row shift.

    k and n_logical optionally record the exponent/base behind
    shift_bound for reporting; the checks only use S and shift_bound.
    """

    S: int
    shift_bound: int
    k: Optional[int] = None
    n_logical: Optional[int] = None

    def __post_init__(self):
        if self.S < 1:
            raise ParameterError(f"S must be >= 1, got {self.S}")
        if self.shift_bound < 1:
            raise ParameterError(f"shift_bound must be >= 1, got {self.shift_bound}")


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


def _scan_blocks(grid: np.ndarray, K: int, S: int):
    """Yield (subsets, tops) for all size-S row subsets, in blocks: subsets
    (B, S) in lexicographic order, tops (B, K) each label's sum of its S
    largest per-column counts over the subset's rows."""
    N = grid.shape[0]
    slots = grid.astype(np.intp) + np.arange(N) * K  # (x, y) -> y*K + label
    rows = itertools.combinations(range(N), S)
    size, largest = 1, max(1, SCAN_BLOCK_ENTRIES // (N * K))
    while True:
        block = itertools.chain.from_iterable(itertools.islice(rows, size))
        subsets = np.fromiter(block, np.intp).reshape(-1, S)
        if not len(subsets):
            return
        counts = np.zeros((len(subsets), N, K), dtype=np.uint16)
        flat = counts.reshape(-1)
        base = np.arange(len(subsets))[:, None] * (N * K)
        for p in range(S):  # one row per subset, so no index repeats
            flat[base + slots[subsets[:, p]]] += 1
        top = np.partition(counts, N - S, axis=1)[:, N - S:, :]
        yield subsets, top.sum(axis=1, dtype=np.int64)
        size = min(2 * size, largest)


def _top_columns(grid, B1, label, S: int) -> tuple:
    """A worst column subset: the S columns richest in label on rows B1."""
    counts = (grid[list(B1)] == label).sum(axis=0)
    order = sorted(range(len(counts)), key=lambda y: (-int(counts[y]), y))
    return tuple(sorted(order[:S]))


def _first_violation(grid, K, S, most):
    """First (B1, B2, label, count) with count > most in scan order, else None."""
    for subsets, tops in _scan_blocks(grid, K, S):
        hits = np.flatnonzero(tops > most)
        if hits.size:
            b, label = divmod(int(hits[0]), K)
            B1 = tuple(subsets[b].tolist())
            return B1, _top_columns(grid, B1, label, S), label, int(tops[b, label])
    return None


def _sampled_scan(colored, K, S, most, trials, seed):
    N = colored.shape[0]
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        B1 = tuple(sorted(rng.choice(N, size=S, replace=False).tolist()))
        B2 = tuple(sorted(rng.choice(N, size=S, replace=False).tolist()))
        counts = np.bincount(
            colored[np.ix_(B1, B2)].ravel(), minlength=K
        )
        for color in range(K):
            if int(counts[color]) > most:
                return B1, B2, color, int(counts[color])
    return None


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
    S, N, M = spec.S, table.N, table.M
    if S > N:
        raise ParameterError(f"S={S} exceeds N={N}")
    most = 2 * S * S // M  # count * M <= 2 S^2, exact integers
    if mode == "exhaustive":
        _check_budget(N, S, budget, "single-color verification")
        hit = None if M <= 2 else _first_violation(table.cells, M, S, most)
    elif mode == "sampled":
        hit = _sampled_scan(table.cells, M, S, most, trials, seed)
    else:
        raise ParameterError(f"unknown mode {mode!r}")
    if hit is None:
        return VerifyResult(True)
    B1, B2, color, count = hit
    return VerifyResult(False, (B1, B2, color), count)


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
    module docstring for why the diagonal carries no pair events).
    """
    S, N, M = spec.S, table.N, table.M
    if S > N:
        raise ParameterError(f"S={S} exceeds N={N}")
    if mode not in ("exhaustive", "sampled"):
        raise ParameterError(f"unknown mode {mode!r}")
    most = 2 * S * S // (M * M)  # count * M^2 <= 2 S^2, exact integers
    if mode == "exhaustive":
        _check_budget(N, S, budget, "shifted-pair verification")
    shifted = lambda k: table.cells[(np.arange(N) + k) % N].astype(np.int64)
    for i, j in itertools.permutations(range(1, spec.shift_bound + 1), 2):
        paired = shifted(i) * M + shifted(j)  # label T(x+i, y) * M + T(x+j, y)
        if mode == "exhaustive":
            hit = _first_violation(paired, M * M, S, most)
        else:
            hit = _sampled_scan(
                paired, M * M, S, most, trials,
                None if seed is None else [seed, i, j],
            )
        if hit is not None:
            B1, B2, pair_color, count = hit
            a, b = pair_color // M, pair_color % M
            return VerifyResult(False, (B1, B2, a, b, i, j), count)
    return VerifyResult(True)


def verify_table(table, spec, mode="exhaustive", **kw) -> tuple[VerifyResult, VerifyResult]:
    """Both balance checks; the table passes iff both results are ok."""
    return (
        verify_color_bound(table, spec, mode, **kw),
        verify_shift_pair_bound(table, spec, mode, **kw),
    )


def _miss_ratio(result: VerifyResult, spec: BalanceSpec, M: int) -> float:
    mult = M if len(result.witness) == 3 else M * M
    return result.count * mult / (2 * spec.S * spec.S)


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
    """
    N, M = 1 << n, 1 << m
    if strategy == "random":
        if seed is None:
            seed = secrets.randbits(63)
        best = (math.inf, -1, "")
        for t in range(trials):
            rng = np.random.default_rng([seed, t])
            cells = rng.integers(0, M, size=(N, N), dtype=np.uint32)
            table = Table(n, m, cells, f"searched(seed={seed},trial={t})")
            r1 = verify_color_bound(table, spec, budget=pair_budget)
            if not r1.ok:
                ratio = _miss_ratio(r1, spec, M)
                best = min(best, (ratio, t, "single-color"), key=lambda b: b[0])
                continue
            r2 = verify_shift_pair_bound(table, spec, budget=pair_budget)
            if not r2.ok:
                ratio = _miss_ratio(r2, spec, M)
                best = min(best, (ratio, t, "shifted-pair"), key=lambda b: b[0])
                continue
            return table
        return SearchFailure(trials, best[0], best[1], best[2])
    if strategy == "exhaustive":
        total = M ** (N * N)
        limit = DEFAULT_TABLE_BUDGET if table_budget is None else table_budget
        if total > limit:
            raise ResourceError(
                f"exhaustive search over {total} tables exceeds budget {limit}"
            )
        tried = 0
        for flat in itertools.product(range(M), repeat=N * N):
            tried += 1
            table = Table(
                n, m, np.array(flat, dtype=np.uint32), "searched(exhaustive)"
            )
            r1, r2 = verify_table(table, spec, budget=pair_budget)
            if r1.ok and r2.ok:
                return table
        return SearchFailure(tried, math.inf, -1, "none")
    raise ParameterError(f"unknown search strategy {strategy!r}")


def apply_table(
    x1: int,
    x2: int,
    table: Table,
    count: int,
    *,
    shift_mode: str = "modn",
) -> list[int]:
    """Outputs T(x1 + j, x2) for j = 1..count.

    The row shift x1 + j is integer addition modulo N by default;
    shift_mode="xor" instead offsets the row by XOR for experimentation.
    """
    N = table.N
    for name, v in (("x1", x1), ("x2", x2)):
        if not 0 <= v < N:
            raise ParameterError(f"{name} does not fit in {table.n} bits")
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    if shift_mode == "modn":
        rows = ((x1 + j) % N for j in range(1, count + 1))
    elif shift_mode == "xor":
        if count > N - 1:
            raise ParameterError(
                f"count {count} exceeds {N - 1}, the number of nonzero offsets"
            )
        rows = (x1 ^ j for j in range(1, count + 1))
    else:
        raise ParameterError(f"unknown shift_mode {shift_mode!r}")
    return [int(table.cells[r, x2]) for r in rows]


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


def derive_table_schedule(n: int, k: int, s: int, alpha: int) -> TableSchedule:
    """Output length m, rectangle side S and slack t from (n, k, s, alpha).

    m = floor(s/3) - (2k+5) * ceil(log2 n); S = 2^ceil(2s/3);
    t = alpha + 7 * ceil(log2 n).  Rounding is conservative: a smaller m
    and a larger S only strengthen the balance requirement.
    """
    if n < 1 or k < 1 or alpha < 0:
        raise ParameterError("need n >= 1, k >= 1, alpha >= 0")
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
# least-significant bit first within each byte.


def _pack_cells(cells_flat: Iterable[int], m: int, count: int) -> bytes:
    out = bytearray()
    acc = 0
    accbits = 0
    for v in cells_flat:
        acc |= int(v) << accbits
        accbits += m
        while accbits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            accbits -= 8
    if accbits:
        out.append(acc & 0xFF)
    expected = (count * m + 7) // 8
    assert len(out) == expected
    return bytes(out)


def _unpack_cells(data: bytes, m: int, count: int) -> np.ndarray:
    cells = np.empty(count, dtype=np.uint32)
    acc = 0
    accbits = 0
    pos = 0
    mask = (1 << m) - 1
    for idx in range(count):
        while accbits < m:
            acc |= data[pos] << accbits
            pos += 1
            accbits += 8
        cells[idx] = acc & mask
        acc >>= m
        accbits -= m
    return cells


def write_table(table: Table, path, sidecar_fields: Optional[dict] = None) -> None:
    """Write the binary table file plus a ``<path>.prov`` text sidecar."""
    count = table.N * table.N
    header = TABLE_MAGIC + bytes([TABLE_VERSION, table.n, table.m])
    body = _pack_cells(table.cells.ravel(), table.m, count)
    with open(path, "wb") as fh:
        fh.write(header + body)
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
    count = (1 << n) * (1 << n)
    expected = 7 + (count * m + 7) // 8
    if len(data) != expected:
        raise ParameterError(
            f"{path}: expected {expected} bytes for n={n}, m={m}, got {len(data)}"
        )
    cells = _unpack_cells(data[7:], m, count)
    return Table(n, m, cells, f"loaded({path})")


def read_provenance(path) -> Optional[str]:
    """Contents of the sidecar record written next to a table file, if any."""
    try:
        with open(f"{path}.prov") as fh:
            return fh.read()
    except FileNotFoundError:
        return None
