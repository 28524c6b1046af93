"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written the slow, obvious way (schoolbook
polynomial arithmetic, literal nested loops over subset pairs) so that it
shares no code path with the implementations under test.
"""

import itertools
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np

from kextract.errors import DecodeError


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


def dict_first_violation(grid, S, most):
    """First (B1, B2, label, count) with count > most over the S x S
    rectangles of a label grid (a list of rows), else None: row subsets
    in lexicographic order, labels ascending, the S columns richest in
    the label (lowest first on ties).  Counts live in dicts, so labels
    may be as wide as the caller likes."""
    N = len(grid)
    for B1 in itertools.combinations(range(N), S):
        cols = {}
        for x in B1:
            for y, label in enumerate(grid[x]):
                cols.setdefault(label, [0] * N)[y] += 1
        for label in sorted(cols):
            best = sorted(range(N), key=lambda y: (-cols[label][y], y))[:S]
            count = sum(cols[label][y] for y in best)
            if count > most:
                return B1, tuple(sorted(best)), label, count
    return None


def naive_first_miss(cells, S, M, shift_bound):
    """(count/bound ratio, condition) at a table's first violation, else
    None: the condition, pair and B1 from the nested-loop verdicts over
    every ordered pair, the count from a dict scan of that one grid."""
    N = len(cells)
    ok, witness, _ = naive_color_verdict(cells, S, M)
    K, grid, condition = M, cells, "single-color"
    if ok:
        ok, witness, _ = naive_shift_pair_verdict(cells, S, M, shift_bound)
        if ok:
            return None
        i, j = witness[4:]
        K, condition = M * M, "shifted-pair"
        grid = [[cells[(x + i) % N][y] * M + cells[(x + j) % N][y] for y in range(N)] for x in range(N)]
    B1, _, _, count = dict_first_violation(grid, S, 2 * S * S // K)
    assert B1 == witness[0]
    return count * K / (2 * S * S), condition


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


# -- readers of what the library writes, which only tests read back ---------


def read_provenance(path):
    """Contents of the sidecar record written next to a table file, if any."""
    try:
        with open(f"{path}.prov") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def concat_decode(s: str) -> tuple[str, str]:
    """Inverse of ``kproxy.concat_encode``; rejects malformed input with its position."""
    for pos, ch in enumerate(s):
        if ch not in "01":
            raise DecodeError(f"non-bit character {ch!r}", pos)
    pos = 0
    length_bits = []
    while True:
        pair = s[pos : pos + 2]
        if len(pair) < 2:
            raise DecodeError("truncated length prefix", pos)
        if pair == "01":
            pos += 2
            break
        if pair[0] != pair[1]:
            raise DecodeError("unpaired length prefix bits", pos)
        length_bits.append(pair[0])
        pos += 2
    if not length_bits:
        raise DecodeError("empty length field", 0)
    if length_bits[0] != "1":
        raise DecodeError("length field has a leading zero", 0)
    len_a = int("".join(length_bits), 2)
    if len(s) - pos < len_a:
        raise DecodeError(
            f"payload shorter than declared length {len_a}", pos
        )
    return s[pos : pos + len_a], s[pos + len_a :]


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


# -- random row subsets: references for sampled mode -----------------------
#
# Sampled mode scans ``trials`` random row subsets B1, each drawn as
# sorted(rng.choice(N, size=S, replace=False)) from default_rng(seed), and
# checks each against all its column subsets: per label, the sum of the
# label's S largest column counts on B1, the columns richest in it first
# and the lower index first on ties.


def sampled_rows(N, S, trials, seed):
    """The row subsets a sampled check draws, in order: all of them in
    lexicographic order when trials reach their number."""
    if trials >= math.comb(N, S):
        yield from itertools.combinations(range(N), S)
        return
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        yield tuple(sorted(int(x) for x in rng.choice(N, size=S, replace=False)))


def richest_columns(rows, B1, S, hit):
    """(count, B2): the S columns with the most cells x in B1 for which
    hit(rows[x][y]) holds, and the number of such cells in B1 x B2."""
    N = len(rows[0])
    colcounts = [sum(1 for x in B1 if hit(rows[x][y])) for y in range(N)]
    cols = sorted(range(N), key=lambda y: (-colcounts[y], y))[:S]
    return sum(colcounts[y] for y in cols), tuple(sorted(cols))


def sampled_scan(colored, K, S, most, trials, seed):
    """First sampled (B1, B2, label, count) with count > most, lowest
    label first within a row subset, else None."""
    rows = np.asarray(colored).tolist()
    for B1 in sampled_rows(len(rows), S, trials, seed):
        for label in range(K):
            count, B2 = richest_columns(rows, B1, S, lambda v: v == label)
            if count > most:
                return B1, B2, label, count
    return None


def sampled_balance(cells, colors, R, bound, trials, seed):
    """(ok, worst_ratio, witness) of the colored-cell bound over sampled
    row subsets, each against its R columns richest in A; the witness is
    the first row subset at the largest count."""
    rows = np.asarray(cells).tolist()
    A = set(colors)
    best_count, best = 0, None
    for B1 in sampled_rows(len(rows), R, trials, seed):
        count, B2 = richest_columns(rows, B1, R, lambda v: v in A)
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


# -- dict-of-counts distributions: reference for the array-backed Dist -----
#
# The library's earlier integer-count layer, kept as it was (a Counter
# pushforward, a writer and a line-by-line parser over {outcome: count}
# dicts), so the array-backed Dist can be held to the same counts, text
# bytes and DecodeError positions.  ``limits=True`` adds the array
# layer's documented limits to the parser: bits above 64 at the header,
# a numerator or denominator above 2^63 - 1 at its line, and a common
# denominator above 2^63 - 1 one past the last line.

INT64_MAX = (1 << 63) - 1


def dict_pushforward(fn, n):
    """{outcome: count} of fn over all pairs of n-bit inputs."""
    return dict(Counter(itertools.starmap(fn, itertools.product(range(1 << n), repeat=2))))


def dict_dist_to_text(bits, counts):
    """The text of {outcome: count}, each mass in lowest terms."""
    t = sum(counts.values())
    mass = {}
    for c in set(counts.values()):
        g = math.gcd(c, t)
        mass[c] = f"{c // g}/{t // g}"
    line = f"%0{max(1, (bits + 3) // 4)}x %s"
    lines = [f"bits {bits}"]
    lines += [line % (v, mass[c]) for v, c in sorted(counts.items())]
    return "\n".join(lines) + "\n"


_DICT_HEADER = re.compile(r"bits\s+([0-9]+)")
_DICT_LINE = re.compile(r"([0-9a-f]+)\s+([0-9]+)/([0-9]+)")


def _dict_decimal(digits, idx, limits):
    try:
        value = int(digits)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise DecodeError(f"{len(digits)}-digit number is too long", idx) from None
    if limits and value > INT64_MAX:
        raise DecodeError(f"{digits} exceeds 2^63 - 1", idx)
    return value


def dict_dist_from_text(text, limits=False):
    """(bits, {outcome: count over the lcm of the denominators}), or
    DecodeError at the index among nonblank lines (header 0)."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    header = _DICT_HEADER.fullmatch(lines[0]) if lines else None
    if header is None:
        raise DecodeError("missing or unreadable 'bits <n>' header", 0)
    domain_bits = _dict_decimal(header[1], 0, False)
    if limits and domain_bits > 64:
        raise DecodeError("outcomes wider than 64 bits are not supported", 0)
    masses = {}
    for idx, line in enumerate(lines[1:], start=1):
        m = _DICT_LINE.fullmatch(line)
        if m is None:
            raise DecodeError(f"unreadable distribution line {line!r}", idx)
        outcome = int(m[1], 16)
        if outcome >> domain_bits:
            raise DecodeError(f"outcome {m[1]} does not fit in {domain_bits} bits", idx)
        if outcome in masses:
            raise DecodeError(f"outcome {m[1]} listed twice", idx)
        den = _dict_decimal(m[3], idx, limits)
        if den == 0:
            raise DecodeError(f"zero denominator in {line!r}", idx)
        masses[outcome] = _dict_decimal(m[2], idx, limits), den
    total = math.lcm(*(den for _, den in masses.values()))
    if limits and total > INT64_MAX:
        raise DecodeError("the masses' common denominator exceeds 2^63 - 1", len(lines))
    counts = {v: num * (total // den) for v, (num, den) in masses.items()}
    mass = sum(counts.values())
    if mass != total:
        raise DecodeError(f"probabilities sum to {Fraction(mass, total)}, not 1", len(lines))
    return domain_bits, counts


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
    n, m, spec, strategy="random", *, trials=10**4, seed=None, budget=None,
):
    from kextract.btable import (
        DEFAULT_TABLE_BUDGET, SearchFailure, Table, verify_color_bound,
        verify_shift_pair_bound,
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
            r1 = verify_color_bound(table, spec, budget=budget)
            if not r1.ok:
                ratio = miss_ratio(r1, M)
                best = min(best, (ratio, t, "single-color"), key=lambda b: b[0])
                continue
            r2 = verify_shift_pair_bound(table, spec, budget=budget)
            if not r2.ok:
                ratio = miss_ratio(r2, M)
                best = min(best, (ratio, t, "shifted-pair"), key=lambda b: b[0])
                continue
            return table
        return SearchFailure(trials, best[0], best[1], best[2])
    total = M ** (N * N)
    limit = DEFAULT_TABLE_BUDGET if budget is None else budget
    assert total <= limit
    tried = 0
    for flat in itertools.product(range(M), repeat=N * N):
        tried += 1
        table = Table(n, m, np.array(flat, dtype=np.uint32), "searched(exhaustive)")
        r1 = verify_color_bound(table, spec, budget=budget)
        r2 = verify_shift_pair_bound(table, spec, budget=budget)
        if r1.ok and r2.ok:
            return table
    return SearchFailure(tried, math.inf, -1, "none")
