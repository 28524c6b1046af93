"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written the slow, obvious way (schoolbook
polynomial arithmetic, literal nested loops over subset pairs) so that it
shares no code path with the implementations under test.
"""

import itertools
import math

import numpy as np


# -- GF(2^n) schoolbook arithmetic -----------------------------------------


def clmul(a: int, b: int) -> int:
    """Carry-less product, schoolbook."""
    r = 0
    for i in range(b.bit_length()):
        if (b >> i) & 1:
            r ^= a << i
    return r


def poly_mod(a: int, mod: int) -> int:
    while a.bit_length() >= mod.bit_length():
        a ^= mod << (a.bit_length() - mod.bit_length())
    return a


def gf_mul(a: int, b: int, modulus: int) -> int:
    """Multiply-then-reduce, independent of the interleaved reduction."""
    return poly_mod(clmul(a, b), modulus)


def poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly_mod(a, b)
    return a


def rabin_irreducible(f: int) -> bool:
    """Rabin's irreducibility test for a binary polynomial."""
    n = f.bit_length() - 1
    if n <= 0:
        return False

    def xpow2k(k: int) -> int:
        r = poly_mod(0b10, f)
        for _ in range(k):
            r = poly_mod(clmul(r, r), f)
        return r

    if xpow2k(n) != poly_mod(0b10, f):
        return False
    factors = set()
    d, rest = 2, n
    while d * d <= rest:
        while rest % d == 0:
            factors.add(d)
            rest //= d
        d += 1
    if rest > 1:
        factors.add(rest)
    for q in factors:
        h = xpow2k(n // q) ^ poly_mod(0b10, f)
        if h == 0 or poly_gcd(f, h) != 1:
            return False
    return True


# -- balanced-table reference verifiers ------------------------------------


def color_count(cells, B1, B2, color) -> int:
    return sum(1 for x in B1 for y in B2 if cells[x][y] == color)


def shift_pair_count(cells, B1, B2, a, b, i, j) -> int:
    N = len(cells)
    return sum(
        1
        for x in B1
        for y in B2
        if cells[(x + i) % N][y] == a and cells[(x + j) % N][y] == b
    )


def naive_color_verdict(cells, S, M):
    """(ok, witness, count) for the single-color bound, nested loops only."""
    N = len(cells)
    for B1 in itertools.combinations(range(N), S):
        for B2 in itertools.combinations(range(N), S):
            counts = [0] * M
            for x in B1:
                row = cells[x]
                for y in B2:
                    counts[row[y]] += 1
            for a in range(M):
                if counts[a] * M > 2 * S * S:
                    return False, (B1, B2, a), counts[a]
    return True, None, None


def naive_shift_pair_verdict(cells, S, M, shift_bound):
    """(ok, witness, count) for the shifted-pair bound, nested loops only."""
    N = len(cells)
    for i in range(1, shift_bound + 1):
        for j in range(1, shift_bound + 1):
            if i == j:
                continue
            rows_i = [cells[(x + i) % N] for x in range(N)]
            rows_j = [cells[(x + j) % N] for x in range(N)]
            for B1 in itertools.combinations(range(N), S):
                for B2 in itertools.combinations(range(N), S):
                    counts = [[0] * M for _ in range(M)]
                    for x in B1:
                        ri, rj = rows_i[x], rows_j[x]
                        for y in B2:
                            counts[ri[y]][rj[y]] += 1
                    for a in range(M):
                        for b in range(M):
                            if counts[a][b] * M * M > 2 * S * S:
                                return False, (B1, B2, a, b, i, j), counts[a][b]
    return True, None, None


def _allsizes_grid_ok(grid: np.ndarray, K: int, S: int, mult: int) -> bool:
    """Every rectangle with both sides >= S satisfies count * mult <= 2*s1*s2.

    Exact, but vectorized per row subset: for each size-s1 row subset the
    worst size-s2 column subset per color is the top-s2 column-count sum.
    """
    N = grid.shape[0]
    onehot = grid[:, :, None] == np.arange(K)[None, None, :]
    for s1 in range(S, N + 1):
        for B1 in itertools.combinations(range(N), s1):
            colcounts = onehot[list(B1)].sum(axis=0)  # (N, K)
            prefix = np.sort(colcounts, axis=0)[::-1].cumsum(axis=0)
            for s2 in range(S, N + 1):
                if (prefix[s2 - 1] * mult > 2 * s1 * s2).any():
                    return False
    return True


def allsizes_color_ok(cells, S, M) -> bool:
    return _allsizes_grid_ok(np.array(cells, dtype=np.int64), M, S, M)


def allsizes_shift_pair_ok(cells, S, M, shift_bound) -> bool:
    arr = np.array(cells, dtype=np.int64)
    N = arr.shape[0]
    rows = np.arange(N)
    for i in range(1, shift_bound + 1):
        for j in range(1, shift_bound + 1):
            if i == j:
                continue
            paired = arr[(rows + i) % N, :] * M + arr[(rows + j) % N, :]
            if not _allsizes_grid_ok(paired, M * M, S, M * M):
                return False
    return True


# -- colored-cell balance reference ----------------------------------------


def naive_balance(cells, colors, R, M, delta, epsilon, c):
    """(ok, worst_ratio, worst_count) over all R x R rectangles."""
    N = len(cells)
    A = set(colors)
    bound = (
        len(A) / M * 2.0 ** ((delta * math.log2(1.0 / epsilon)) ** c) + epsilon
    ) * R * R
    ok = True
    worst_count = 0
    for B1 in itertools.combinations(range(N), R):
        for B2 in itertools.combinations(range(N), R):
            count = sum(1 for x in B1 for y in B2 if cells[x][y] in A)
            worst_count = max(worst_count, count)
            if count > bound:
                ok = False
    return ok, worst_count / bound, worst_count


# -- row-subset-at-a-time scans: references for the block scan kernel ------
#
# These are the library's earlier exhaustive scans, kept unchanged so the
# block kernel can be held to the same witnesses, counts and ratios.


def lex_exhaustive_scan(colored, K, S, violates):
    """First witness (B1, B2, color, count) with violates(count), else None.

    Deterministic: row subsets in lexicographic order, colors ascending.
    """
    N = colored.shape[0]
    onehot = colored[:, :, None] == np.arange(K)[None, None, :]
    for B1 in itertools.combinations(range(N), S):
        colcounts = onehot[list(B1), :, :].sum(axis=0)  # (N cols, K)
        part = np.sort(colcounts, axis=0)[::-1][:S, :].sum(axis=0)  # (K,)
        for color in range(K):
            count = int(part[color])
            if violates(count):
                cols = sorted(
                    range(N), key=lambda y: (-int(colcounts[y, color]), y)
                )[:S]
                return B1, tuple(sorted(cols)), color, count
    return None


def lex_balance_scan(cells, colors, R, bound):
    """(ok, worst_ratio, witness) of the colored-cell bound over R x R
    rectangles, one row subset at a time in lexicographic order."""
    cells = np.asarray(cells)
    N = cells.shape[0]
    indicator = np.isin(cells, np.array(sorted(set(colors)), dtype=cells.dtype))
    indicator = indicator.astype(np.int64)
    worst = 0.0
    witness = None
    best_count = -1
    for B1 in itertools.combinations(range(N), R):
        colsums = indicator[list(B1), :].sum(axis=0)
        order = sorted(range(N), key=lambda y: (-int(colsums[y]), y))
        count = int(sum(colsums[y] for y in order[:R]))
        if count > best_count:
            best_count = count
            worst = count / bound
            if count > bound:
                witness = (B1, tuple(sorted(order[:R])))
    return witness is None, worst, witness
