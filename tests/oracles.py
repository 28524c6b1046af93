"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written the slow, obvious way (schoolbook
polynomial arithmetic, literal nested loops over subset pairs) so that it
shares no code path with the implementations under test.
"""

import itertools
import math
from fractions import Fraction

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


# -- one-rectangle-at-a-time samplers: references for _sampled_rects -------
#
# The library's earlier sampled checks, kept unchanged so the shared
# rectangle sampler can be held to the same rectangles, witnesses and counts.


def sampled_scan(colored, K, S, most, trials, seed):
    """First sampled (B1, B2, color, count) with count > most, else None."""
    N = colored.shape[0]
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        B1 = tuple(sorted(rng.choice(N, size=S, replace=False).tolist()))
        B2 = tuple(sorted(rng.choice(N, size=S, replace=False).tolist()))
        counts = np.bincount(colored[np.ix_(B1, B2)].ravel(), minlength=K)
        for color in range(K):
            if int(counts[color]) > most:
                return B1, B2, color, int(counts[color])
    return None


def sampled_balance(cells, colors, R, bound, trials, seed):
    """(ok, worst_ratio, witness) of the colored-cell bound over sampled
    R x R rectangles; the witness is the first one at the largest count."""
    cells = np.asarray(cells)
    N = cells.shape[0]
    indicator = np.isin(cells, np.array(sorted(set(colors)), dtype=cells.dtype))
    indicator = indicator.astype(np.int64)
    rng = np.random.default_rng(seed)
    best_count, best = 0, None
    for _ in range(trials):
        B1 = tuple(sorted(rng.choice(N, size=R, replace=False).tolist()))
        B2 = tuple(sorted(rng.choice(N, size=R, replace=False).tolist()))
        count = int(indicator[np.ix_(B1, B2)].sum())
        if count > best_count:
            best_count, best = count, (B1, B2)
    witness = best if best_count > bound else None
    return witness is None, best_count / bound, witness


# -- KXTB bit loops: references for the chunked numpy pack/unpack ----------
#
# The library's earlier cell packing, one cell at a time through an
# integer accumulator, least-significant bit first.


def pack_cells(cells_flat, m: int, count: int) -> bytes:
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
    assert len(out) == (count * m + 7) // 8
    return bytes(out)


def unpack_cells(data: bytes, m: int, count: int) -> np.ndarray:
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


# -- Fraction-per-outcome distributions: references for stats.Dist --------
#
# The library's earlier exact distributions, one Fraction per outcome,
# kept unchanged so the integer-count Dist can be held to the same text,
# min-entropy, statistical distance and epsilon-closeness.


class FractionDist:
    """{outcome: Fraction} on {0,1}^domain_bits, summing to 1."""

    def __init__(self, domain_bits, probs):
        limit = 1 << domain_bits
        total = Fraction(0)
        for outcome, p in probs.items():
            if not 0 <= outcome < limit:
                raise ValueError(f"outcome {outcome:#x} does not fit")
            if p < 0:
                raise ValueError("negative probability")
            total += p
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")
        self.domain_bits = domain_bits
        self.probs = dict(probs)

    @classmethod
    def uniform(cls, domain_bits):
        p = Fraction(1, 1 << domain_bits)
        return cls(domain_bits, {v: p for v in range(1 << domain_bits)})


def fraction_pushforward(fn, n, out_bits):
    counts = {}
    N = 1 << n
    for x1 in range(N):
        for x2 in range(N):
            v = fn(x1, x2)
            counts[v] = counts.get(v, 0) + 1
    evals = N * N
    return FractionDist(out_bits, {v: Fraction(c, evals) for v, c in counts.items()})


def fraction_min_entropy(d):
    p = max(d.probs.values())
    return math.log2(p.denominator) - math.log2(p.numerator)


def fraction_statistical_distance(d1, d2):
    outcomes = set(d1.probs) | set(d2.probs)
    zero = Fraction(0)
    l1 = sum(abs(d1.probs.get(v, zero) - d2.probs.get(v, zero)) for v in outcomes)
    return l1 / 2


def fraction_epsilon_close(d, k_bits):
    if float(k_bits).is_integer():
        cap = Fraction(1, 1 << int(k_bits))
    else:
        cap = Fraction(2.0 ** -float(k_bits))
    zero = Fraction(0)
    return sum((p - cap for p in d.probs.values() if p > cap), zero)


def fraction_dist_to_text(d):
    width = max(1, (d.domain_bits + 3) // 4)
    lines = [f"bits {d.domain_bits}"]
    for outcome in sorted(d.probs):
        p = d.probs[outcome]
        lines.append(f"{outcome:0{width}x} {p.numerator}/{p.denominator}")
    return "\n".join(lines) + "\n"


def extend_outputs(x1: int, x2: int, count: int, modulus: int) -> tuple:
    """z_i = x1 + i*x2 for i = 1..count, one schoolbook product each."""
    return tuple(x1 ^ gf_mul(i, x2, modulus) for i in range(1, count + 1))


# -- one-trial-at-a-time search: reference for the chunked search ----------
#
# The library's earlier search loop, kept unchanged so the chunked search
# can be held to the same hits, provenance and nearest misses.  It verifies
# one table at a time with the library's verifiers, whose scans are held
# to the row-subset-at-a-time references above.


def per_trial_search(
    n, m, spec, strategy="random", *, trials=10**4, seed=None,
    table_budget=None, pair_budget=None,
):
    from kextract.btable import (
        DEFAULT_TABLE_BUDGET, SearchFailure, Table, verify_color_bound,
        verify_shift_pair_bound, verify_table,
    )

    def miss_ratio(result, M):
        mult = M if len(result.witness) == 3 else M * M
        return result.count * mult / (2 * spec.S * spec.S)

    N, M = 1 << n, 1 << m
    if strategy == "random":
        best = (math.inf, -1, "")
        for t in range(trials):
            rng = np.random.default_rng([seed, t])
            cells = rng.integers(0, M, size=(N, N), dtype=np.uint32)
            table = Table(n, m, cells, f"searched(seed={seed},trial={t})")
            r1 = verify_color_bound(table, spec, budget=pair_budget)
            if not r1.ok:
                ratio = miss_ratio(r1, M)
                best = min(best, (ratio, t, "single-color"), key=lambda b: b[0])
                continue
            r2 = verify_shift_pair_bound(table, spec, budget=pair_budget)
            if not r2.ok:
                ratio = miss_ratio(r2, M)
                best = min(best, (ratio, t, "shifted-pair"), key=lambda b: b[0])
                continue
            return table
        return SearchFailure(trials, best[0], best[1], best[2])
    total = M ** (N * N)
    limit = DEFAULT_TABLE_BUDGET if table_budget is None else table_budget
    assert total <= limit
    tried = 0
    for flat in itertools.product(range(M), repeat=N * N):
        tried += 1
        table = Table(n, m, np.array(flat, dtype=np.uint32), "searched(exhaustive)")
        r1, r2 = verify_table(table, spec, budget=pair_budget)
        if r1.ok and r2.ok:
            return table
    return SearchFailure(tried, math.inf, -1, "none")
