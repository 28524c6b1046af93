import itertools
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mpf

import oracles
from kextract import btable, condense
from kextract.btable import (
    BalanceSpec,
    SearchFailure,
    Table,
    VerifyResult,
    apply_table,
    read_table,
    search_table,
    verify_color_bound,
    verify_shift_pair_bound,
    write_table,
)
from kextract.cli import main
from kextract.errors import DecodeError, ParameterError, ResourceError
from kextract.schedule import (
    TableSchedule,
    check_existence_bound,
    derive_table_schedule,
    failure_prob_bounds,
)

SPEC34 = BalanceSpec(S=4, shift_bound=2)


def verify_both(table, spec):
    return verify_color_bound(table, spec), verify_shift_pair_bound(table, spec)


def first_hit(grid, K, S, most, rows=None):
    """One grid's first (B1, B2, label, count) with count > most over the
    row subsets ``rows`` (all of them by default), else None."""
    hit = btable._first_violation(grid[None], K, S, most, rows)[0]
    return hit and (hit[0], btable._top_columns(grid, hit[0], hit[1], S), *hit[1:])


def random_table(n, m, seed):
    rng = np.random.default_rng(seed)
    N = 1 << n
    return Table(n, m, rng.integers(0, 1 << m, size=(N, N), dtype=np.uint32))


class TestTableType:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ParameterError):
            Table(2, 1, np.zeros((3, 4), dtype=np.uint32))

    def test_rejects_color_overflow(self):
        cells = np.zeros((4, 4), dtype=np.uint32)
        cells[1, 2] = 2
        with pytest.raises(ParameterError):
            Table(2, 1, cells)

    @pytest.mark.parametrize("cells,message", [
        (np.array([[2**32 + 1, 0], [0, 1]]), r"cell color >= 2\^2"),
        ([[2**40, 0], [0, 1]], r"cell color >= 2\^2"),
        ([[2**70, 0], [0, 1]], r"cell color >= 2\^2"),
        (np.array([[-1, 0], [0, 1]]), "negative cell color -1"),
        ([[-1, 0], [0, 1]], "negative cell color -1"),
        (np.array([[0.7, 1.9], [0, 1]]), "cell must be an int, got float64"),
        ([[0, 1.0], [0, 1]], "cell must be an int, got float 1.0"),
        ([["1", 0], [0, 1]], "cell must be an int, got str '1'"),
        (np.array([[True, False], [False, True]]), "cell must be an int, got bool"),
        ([[0, 1], [True, 0]], "cell must be an int, got bool True"),
    ])
    def test_takes_only_int_colors(self, cells, message):
        # checked before the uint32 cast, which would wrap, truncate or
        # parse these, or overflow on them
        with pytest.raises(ParameterError, match=message):
            Table(1, 2, cells)

    @pytest.mark.parametrize("color,message", [
        (1.7, "cell must be an int, got float64"), (True, "cell must be an int, got bool"),
        (-1, "negative cell color -1"), (4, r"cell color >= 2\^2"), (2**70, r"cell color >= 2\^2"),
    ])
    def test_constant_takes_only_int_colors(self, color, message):
        with pytest.raises(ParameterError, match=message):
            Table.constant(1, 2, color)
        t = Table.constant(1, 2, np.uint8(3))
        assert t.cells.dtype == np.uint32 and t.cells.tolist() == [[3, 3], [3, 3]]

    def test_takes_any_int_dtype_and_python_ints(self):
        want = np.array([[3, 0], [1, 2]], dtype=np.uint32)
        for cells in ([[3, 0], [1, 2]], [3, 0, np.int8(1), np.uint64(2)], want.astype(np.int64), want.astype(np.uint8)):
            got = Table(1, 2, cells).cells
            assert got.dtype == np.uint32 and np.array_equal(got, want)

    def test_rejects_oversized_n(self):
        with pytest.raises(ResourceError):
            Table(13, 1, np.zeros(2, dtype=np.uint32))

    def test_rejects_colors_wider_than_uint32_pairs(self):
        with pytest.raises(ParameterError):
            Table(1, 32, np.zeros(4, dtype=np.uint32))
        assert Table(1, 31, np.full(4, 2**31 - 1, dtype=np.uint32)).M == 2**31

    def test_cells_are_frozen(self):
        t = Table.constant(2, 1, 0)
        with pytest.raises(ValueError):
            t.cells[0, 0] = 1

    def test_lookup_bounds(self):
        t = Table.constant(2, 1, 1)
        assert t.lookup(3, 3) == 1
        with pytest.raises(ParameterError):
            t.lookup(4, 0)

    def test_accepts_flat_cells(self):
        t = Table(1, 1, np.array([0, 1, 1, 0], dtype=np.uint32))
        assert t.lookup(0, 1) == 1 and t.lookup(1, 0) == 1

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            BalanceSpec(S=0, shift_bound=1)
        with pytest.raises(ParameterError):
            BalanceSpec(S=1, shift_bound=0)


class TestVerify:
    def test_constant_table_m1_color_bound_holds_at_boundary(self):
        # bound is (2/M)|rect| = |rect| for M = 2 and the count equals it
        r = verify_color_bound(Table.constant(3, 1, 0), SPEC34)
        assert r.ok

    def test_constant_table_m2_color_bound_fails(self):
        r = verify_color_bound(Table.constant(3, 2, 1), SPEC34)
        assert not r.ok
        B1, B2, a = r.witness
        assert a == 1
        assert oracles.color_count(
            Table.constant(3, 2, 1).cells.tolist(), B1, B2, a
        ) * 4 > 2 * 16

    def test_constant_table_m1_pair_bound_fails(self):
        r = verify_shift_pair_bound(Table.constant(3, 1, 0), SPEC34)
        assert not r.ok
        B1, B2, a, b, i, j = r.witness
        assert (a, b) == (0, 0) and i != j
        assert r.count == 16

    def test_searched_table_passes_fresh_verifier(self):
        result = search_table(3, 1, SPEC34, "random", trials=2000, seed=2026)
        assert isinstance(result, Table)
        r1, r2 = verify_both(result, SPEC34)
        assert r1.ok and r2.ok

    def test_unknown_mode_rejected(self):
        t = Table.constant(2, 1, 0)
        for fn in (verify_color_bound, verify_shift_pair_bound):
            with pytest.raises(ParameterError):
                fn(t, BalanceSpec(S=2, shift_bound=1), "oracular")

    def test_s_larger_than_table_rejected(self):
        t = Table.constant(2, 1, 0)
        with pytest.raises(ParameterError):
            verify_color_bound(t, BalanceSpec(S=5, shift_bound=1))

    def test_budget_exceeded_names_budget(self):
        # m=2: the single-color check is open, its bound 13 over most = 8
        t = random_table(3, 2, 7)
        assert btable._marginal_bound(t.cells, 4) > 8
        with pytest.raises(ResourceError, match=r"^single-color verification needs 4900 subset pairs, over budget 10 "):
            verify_color_bound(t, SPEC34, budget=10)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_agrees_with_naive_oracle(self, m, seed):
        t = random_table(3, m, seed)
        cells = t.cells.tolist()
        r1 = verify_color_bound(t, SPEC34)
        ok1, _, _ = oracles.naive_color_verdict(cells, 4, t.M)
        assert r1.ok == ok1
        if not r1.ok:
            B1, B2, a = r1.witness
            assert oracles.color_count(cells, B1, B2, a) * t.M > 2 * 16
        r2 = verify_shift_pair_bound(t, SPEC34)
        ok2, _, _ = oracles.naive_shift_pair_verdict(cells, 4, t.M, 2)
        assert r2.ok == ok2
        if not r2.ok:
            B1, B2, a, b, i, j = r2.witness
            count = oracles.shift_pair_count(cells, B1, B2, a, b, i, j)
            assert count == r2.count
            assert count * t.M**2 > 2 * 16

    def test_passing_table_agrees_with_full_oracle_scan(self):
        t = search_table(3, 1, SPEC34, "random", trials=2000, seed=2026)
        cells = t.cells.tolist()
        assert oracles.naive_color_verdict(cells, 4, 2) == (True, None, None)
        assert oracles.naive_shift_pair_verdict(cells, 4, 2, 2) == (True, None, None)

    @pytest.mark.parametrize("n,S", [(2, 2), (3, 4), (3, 6)])
    def test_exact_size_verdict_extends_to_all_sizes(self, n, S):
        # averaging: larger rectangles inherit the bound from size-S ones
        spec = BalanceSpec(S=S, shift_bound=2)
        for seed in range(6):
            t = random_table(n, 1, seed + 10)
            cells = t.cells.tolist()
            exact1 = verify_color_bound(t, spec).ok
            exact2 = verify_shift_pair_bound(t, spec).ok
            assert exact1 == oracles.allsizes_color_ok(cells, S, t.M)
            assert exact2 == oracles.allsizes_shift_pair_ok(cells, S, t.M, 2)

    def test_degenerate_full_size_rectangle(self):
        # S = N: both checks reduce to global counts
        t = Table(2, 1, np.array([[0, 1, 0, 1]] * 4, dtype=np.uint32))
        spec = BalanceSpec(S=4, shift_bound=1)
        assert verify_color_bound(t, spec).ok

    def test_single_shift_leaves_pair_bound_vacuous(self):
        # shift_bound=1 offers no distinct-shift pairs: equal shifts with
        # different colors never co-occur, so even a constant table passes
        r = verify_shift_pair_bound(
            Table.constant(3, 1, 0), BalanceSpec(S=4, shift_bound=1)
        )
        assert r.ok

    def test_witness_shifts_are_always_distinct(self):
        for seed in range(8):
            r = verify_shift_pair_bound(random_table(3, 1, seed + 50), SPEC34)
            if not r.ok:
                *_, i, j = r.witness
                assert i != j

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_shift_bound_past_N_rejected(self, mode):
        # shifts are taken mod N: at N=8 the pair (1, 9) reads row x+1
        # twice, so its grid holds only the labels {0, 3} and the table
        # that passes at shift_bound 2 would count 9 > 8 on it
        t = search_table(3, 1, SPEC34, "random", trials=1000, seed=2026)
        assert verify_shift_pair_bound(t, SPEC34, mode, trials=50, seed=1).ok
        for verify in (verify_shift_pair_bound, verify_color_bound):
            with pytest.raises(ParameterError, match="shift_bound=9 exceeds N=8"):
                verify(t, BalanceSpec(S=4, shift_bound=9), mode, trials=50, seed=1)
        # N itself is a valid bound: shifts 1..N are distinct mod N
        at_n = verify_shift_pair_bound(t, BalanceSpec(S=4, shift_bound=8), mode, trials=5, seed=1)
        assert isinstance(at_n, VerifyResult)

    def test_sampled_mode_finds_gross_violation(self):
        r = verify_shift_pair_bound(
            Table.constant(3, 1, 0), SPEC34, "sampled", trials=20, seed=5
        )
        assert not r.ok

    def test_sampled_mode_passes_balanced_table(self):
        t = search_table(3, 1, SPEC34, "random", trials=2000, seed=2026)
        r = verify_color_bound(t, SPEC34, "sampled", trials=50, seed=9)
        assert r.ok


class TestScanKernel:
    """The block kernel against the row-subset-at-a-time reference scan.

    N = 16 with S in 4..8 gives 1820-12870 row subsets, tens of blocks.
    """

    @settings(max_examples=20)
    @given(
        seed=st.integers(0, 2**32 - 1),
        K=st.sampled_from([2, 4, 16]),
        S=st.integers(4, 8),
        data=st.data(),
    )
    def test_same_first_witness_as_reference(self, seed, K, S, data):
        grid = np.random.default_rng(seed).integers(0, K, size=(16, 16))
        # a threshold just under the grid's largest count puts the first
        # violation deep in the scan; at the largest count the scan passes
        peak = max(int(t.max()) for _, t in btable._scan_blocks(grid[None], K, S))
        most = peak - data.draw(st.integers(0, 3), label="below_peak")
        got = first_hit(grid, K, S, most)
        want = oracles.lex_exhaustive_scan(grid, K, S, lambda c: c > most)
        assert got == want

    @pytest.mark.parametrize("K,S", [(2, 8), (4, 6), (16, 4)])
    def test_violation_in_last_subset(self, K, S):
        # only the last S rows hold an all-one-label S x S rectangle
        grid = np.random.default_rng(K).integers(0, K, size=(16, 16))
        grid[16 - S:, 3:3 + S] = K - 1
        got = first_hit(grid, K, S, S * S - 1)
        assert got == oracles.lex_exhaustive_scan(
            grid, K, S, lambda c: c > S * S - 1
        )
        assert got[0] == tuple(range(16 - S, 16)) and got[2:] == (K - 1, S * S)

    @settings(max_examples=20)
    @given(
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=6),
        K=st.sampled_from([2, 4, 16]),
        S=st.integers(4, 8),
        data=st.data(),
    )
    def test_stacked_grids_match_one_at_a_time(self, seeds, K, S, data):
        # one threshold for the whole stack, just under the lowest peak:
        # grids resolve at different depths, or pass
        grids = np.stack([
            np.random.default_rng(s).integers(0, K, size=(16, 16)) for s in seeds
        ])
        peaks = [
            max(int(t.max()) for _, t in btable._scan_blocks(g[None], K, S))
            for g in grids
        ]
        most = min(peaks) - data.draw(st.integers(0, 3), label="below_peak")
        want = [oracles.lex_exhaustive_scan(g, K, S, lambda c: c > most) for g in grids]
        want = [w and (w[0], w[2], w[3]) for w in want]
        assert btable._first_violation(grids, K, S, most) == want

    def test_stacked_grids_resolve_in_different_blocks(self):
        # grid 0 violates in the first subset, grid 1 only in the last,
        # grid 2 midway, grid 3 nowhere; blocks start at 16 subsets and double
        K, S = 4, 6
        rng = np.random.default_rng(7)
        grids = rng.integers(0, K, size=(4, 16, 16)) % 2  # labels 0 and 1
        grids[0, :S, :S] = 3
        grids[1, 16 - S:, 10:] = 3
        grids[2, [0, 5, 6, 7, 8, 9], :S] = 3
        most = S * S - 1
        blocks = list(btable._scan_blocks(grids, K, S))
        depth = [
            next((k for k, (_, tops) in enumerate(blocks) if tops[t].max() > most), None)
            for t in range(4)
        ]
        assert depth[0] == 0 and depth[1] == len(blocks) - 1
        assert 0 < depth[2] < depth[1] and depth[3] is None
        got = btable._first_violation(grids, K, S, most)
        want = [oracles.lex_exhaustive_scan(g, K, S, lambda c: c > most) for g in grids]
        assert got == [w and (w[0], w[2], w[3]) for w in want]
        assert got[0][0] == tuple(range(S)) and got[1][0] == tuple(range(16 - S, 16))
        assert got[2][0] == (0, 5, 6, 7, 8, 9) and got[3] is None

    def test_resolved_grids_leave_the_scan(self):
        # after grid 0 resolves in the first block, later blocks hold grid 1
        # only; the first block holds SCAN_BLOCK_ENTRIES >> 4 counts, 64
        # row subsets of 2 grids x 16 rows x 2 labels, and the next doubles
        grids = np.zeros((2, 16, 16), dtype=np.int64)
        grids[1] = np.arange(16) % 2
        blocks = btable._scan_blocks(grids, 2, 3)
        _, tops = next(blocks)
        assert tops.shape == (2, (btable.SCAN_BLOCK_ENTRIES >> 4) // (2 * 16 * 2), 2) == (2, 64, 2)
        _, tops = blocks.send(np.array([False, True]))
        assert tops.shape == (1, 128, 2)

    @settings(max_examples=40, deadline=None)
    @given(
        N=st.sampled_from([8, 16]),
        K=st.sampled_from([2, 4, 8, 16, 64]),
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
        data=st.data(),
    )
    def test_screened_scan_matches_reference(self, N, K, seeds, data):
        # K on both sides of N, S on both sides of N/2 (at most C(16, 4) =
        # 1820 row subsets); grids with fewer labels resolve earlier, and
        # a threshold under some grids' peaks leaves the others passing
        S = data.draw(st.integers(1, N).filter(lambda S: math.comb(N, S) <= 1820), label="S")
        grids = np.stack([
            np.random.default_rng(s).integers(0, 1 + s % K, size=(N, N)) for s in seeds
        ])
        plain = list(btable._scan_blocks(grids, K, S))
        peaks = [max(int(tops[t].max()) for _, tops in plain) for t in range(len(seeds))]
        most = data.draw(st.sampled_from(peaks), label="peak") - data.draw(st.integers(0, 3), label="below")
        want = [oracles.lex_exhaustive_scan(g, K, S, lambda c: c > most) for g in grids]
        assert btable._first_violation(grids, K, S, most) == [w and (w[0], w[2], w[3]) for w in want]
        # every entry over most is exact, and every other one is at most most
        for (rows, exact), (got_rows, tops) in zip(plain, btable._scan_blocks(grids, K, S, None, most)):
            assert np.array_equal(rows, got_rows)
            over = exact > most
            assert np.array_equal(tops > most, over) and np.array_equal(tops[over], exact[over])
            assert (tops >= exact).all()
            if K >= N:  # no screen: the kernel as without a threshold
                assert np.array_equal(tops, exact)

    @pytest.mark.parametrize("S", range(1, 9))
    def test_two_colors_certified_without_scan(self, S):
        # M = 2: no rectangle can exceed 2/M of its cells
        for seed in range(3):
            t = random_table(3, 1, 100 + seed)
            r = verify_color_bound(t, BalanceSpec(S, 1))
            assert r.ok
            assert oracles.naive_color_verdict(t.cells.tolist(), S, 2)[0]

    @settings(max_examples=20)
    @given(
        seed=st.integers(0, 2**32 - 1),
        K=st.sampled_from([2, 4, 16]),
        S=st.integers(1, 8),
        data=st.data(),
    )
    def test_sampled_same_first_witness_as_reference(self, seed, K, S, data):
        # the same kernel as exhaustive mode, over the 40 drawn row subsets,
        # or over all 16 at S=1, where None asks the kernel for every one
        grid = np.random.default_rng(seed).integers(0, K, size=(16, 16))
        rows = lambda: btable.row_subsets(16, S, "sampled", 40, seed, None, "test")
        assert (rows() is None) == (S == 1)
        drawn = itertools.combinations(range(16), S) if S == 1 else rows()
        assert [tuple(r) for r in drawn] == list(oracles.sampled_rows(16, S, 40, seed))
        peak = max(int(t.max()) for _, t in btable._scan_blocks(grid[None], K, S, rows()))
        most = peak - data.draw(st.integers(0, 3), label="below_peak")
        got = first_hit(grid, K, S, most, rows())
        assert got == oracles.sampled_scan(grid, K, S, most, 40, seed)

    @settings(max_examples=20)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 3),
        S=st.integers(1, 5),
        shift_bound=st.integers(1, 3),
    )
    def test_sampled_verifiers_match_reference(self, seed, m, S, shift_bound):
        t = random_table(3, m, seed)
        spec = BalanceSpec(S, shift_bound)
        M, rows = t.M, np.arange(t.N)
        hit = oracles.sampled_scan(t.cells, M, S, 2 * S * S // M, 40, seed)
        want = VerifyResult(hit is None, hit and hit[:3], hit and hit[3])
        assert verify_color_bound(t, spec, "sampled", trials=40, seed=seed) == want
        want = VerifyResult(True)
        for i, j in ((1, j) for j in range(2, shift_bound + 1)):
            shifted = [t.cells[(rows + k) % t.N].astype(np.int64) for k in (i, j)]
            hit = oracles.sampled_scan(
                shifted[0] * M + shifted[1], M * M, S, 2 * S * S // (M * M), 40,
                [seed, i, j],
            )
            if hit is not None:
                B1, B2, label, count = hit
                want = VerifyResult(False, (B1, B2, label // M, label % M, i, j), count)
                break
        assert verify_shift_pair_bound(t, spec, "sampled", trials=40, seed=seed) == want

    @pytest.mark.parametrize("trials,seed", [(0, 1), (-5, 1), (5, -1)])
    def test_sampled_verifiers_need_trials_and_seed_in_range(self, trials, seed):
        t = random_table(3, 2, 0)
        for check in (verify_color_bound, verify_shift_pair_bound):
            with pytest.raises(ParameterError):
                check(t, SPEC34, "sampled", trials=trials, seed=seed)

    @pytest.mark.parametrize("seed,shown", [(1.5, "float 1.5"), ("7", "str '7'"), (True, "bool True")])
    def test_sampled_verify_refuses_a_seed_that_is_not_an_int(self, seed, shown):
        t = random_table(3, 2, 0)
        with pytest.raises(ParameterError, match=f"seed must be an int, got {shown}"):
            verify_color_bound(t, SPEC34, "sampled", trials=5, seed=seed)

    @pytest.mark.parametrize("trials,shown", [(2.5, "float 2.5"), ("3", "str '3'"), (True, "bool True")])
    def test_sampled_verify_refuses_trials_that_are_not_an_int(self, trials, shown):
        t = random_table(3, 2, 0)
        with pytest.raises(ParameterError, match=f"trials must be an int, got {shown}"):
            verify_shift_pair_bound(t, SPEC34, "sampled", trials=trials, seed=1)

    def test_sampled_verify_takes_numpy_integer_trials(self):
        t = random_table(3, 2, 0)
        got = verify_shift_pair_bound(t, BalanceSpec(3, 2), "sampled", trials=np.int64(5), seed=1)
        assert got == verify_shift_pair_bound(t, BalanceSpec(3, 2), "sampled", trials=5, seed=1)

    def test_sampled_verify_takes_numpy_integer_seeds(self):
        t = random_table(3, 2, 0)
        for seed in (np.int64(9), np.uint64(2**64 - 1)):
            got = verify_color_bound(t, BalanceSpec(3, 1), "sampled", trials=5, seed=seed)
            assert got == verify_color_bound(t, BalanceSpec(3, 1), "sampled", trials=5, seed=int(seed))

    def test_sampled_gate_runs_before_any_check(self):
        # shift_bound 1 leaves no shift pair and M = 2 no single-color
        # check, so nothing is sampled, yet trials and seed are still refused
        t = random_table(2, 1, 0)
        for check in (verify_color_bound, verify_shift_pair_bound):
            for trials, seed in ((0, 1), (5, -3)):
                with pytest.raises(ParameterError):
                    check(t, BalanceSpec(2, 1), "sampled", trials=trials, seed=seed)
            assert check(t, BalanceSpec(2, 1), "sampled", trials=1, seed=0).ok

    def test_checks_in_verification_order(self):
        # one shift pair per difference, (1, 2)..(1, r), in both modes
        spec = BalanceSpec(S=3, shift_bound=3)
        pairs = [(1, 2), (1, 3)]
        color = ("single-color", 4, None, 4)
        assert list(btable._checks(4, spec)) == [color] + [
            ("shifted-pair", 16, p, 1) for p in pairs
        ]
        assert list(btable._checks(2, spec)) == [("shifted-pair", 4, p, 4) for p in pairs]
        assert list(btable._checks(2, BalanceSpec(3, 5), "shifted-pair")) == [
            ("shifted-pair", 4, (1, j), 4) for j in range(2, 6)
        ]
        assert list(btable._checks(4, spec, "single-color")) == [color]
        assert list(btable._checks(2, spec, "single-color")) == []
        assert list(btable._checks(8, BalanceSpec(3, 1), "shifted-pair")) == []

    def test_memory_bounded_for_many_labels(self):
        # n=6, m=8: M^2 = 65536 pair labels; one (N, N, M^2) one-hot array
        # alone would take 256 MiB
        t = random_table(6, 8, 11)
        spec = BalanceSpec(S=1, shift_bound=2)
        tracemalloc.start()
        try:
            r = verify_shift_pair_bound(t, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert not r.ok
        B1, B2, a, b, i, j = r.witness
        count = oracles.shift_pair_count(t.cells.tolist(), B1, B2, a, b, i, j)
        assert count == r.count
        assert count * t.M**2 > 2 * spec.S**2

    def test_memory_bounded_for_m12_pair_labels(self):
        # n=8, m=12: 2^24 pair labels, renumbered to the at most 2^16 that
        # occur, on 256 columns; one row subset's counts fill 32 MiB, and
        # np.partition's copy of them would double that
        t = random_table(8, 12, 5)
        tracemalloc.start()
        try:
            r = verify_shift_pair_bound(t, BalanceSpec(S=1, shift_bound=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20
        B1, B2, a, b, i, j = r.witness
        assert (i, j) == (1, 2) and r.count == 1
        assert oracles.shift_pair_count(t.cells.tolist(), B1, B2, a, b, i, j) == 1


class TestLexSubsetTable:
    """The walk over all row subsets slices one cached lexicographic
    table per (N, S) up to SUBSET_TABLE_ENTRIES entries, and streams
    itertools.combinations past it; both give the same subsets in the
    same blocks."""

    @settings(max_examples=60, deadline=None)
    @given(N=st.integers(1, 20), data=st.data())
    def test_walk_is_combinations_in_doubling_blocks(self, N, data):
        S = data.draw(st.integers(1, N), label="S")
        total = math.comb(N, S)
        cap = data.draw(st.sampled_from([0, total * S - 1, total * S, btable.SUBSET_TABLE_ENTRIES]), label="cap")
        T = data.draw(st.integers(1, 3), label="T")
        # subsets per block for the full stack, at most ~256 blocks
        per_block = data.draw(st.integers(1, 64), label="per_block") * max(1, total >> 8)
        grids = np.random.default_rng(N * S).integers(0, 2, size=(T, N, N))
        entries = per_block * T * N * 2
        # the first block holds entries >> 4 counts, or one subset
        blocks, live, size = [], T, max(1, (entries >> 4) // (T * N * 2))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(btable, "SUBSET_TABLE_ENTRIES", cap)
            mp.setattr(btable, "SCAN_BLOCK_ENTRIES", entries)
            walk, keep, walked = btable._scan_blocks(grids, 2, S), None, 0
            while walked < total:
                subsets, tops = walk.send(keep)
                assert len(subsets) == min(size, total - walked)  # the doubling schedule
                assert tops.shape == (live, len(subsets), 2)
                blocks.append(subsets)
                walked += len(subsets)
                size = min(2 * size, max(1, per_block * T // live))
                drop = data.draw(st.integers(0, live - 1), label="drop")  # grids leaving the scan
                keep, live = np.arange(live) >= drop, live - drop
        btable._lex_subsets.cache_clear()  # the lowered cap let tables past the real one in
        got = np.concatenate(blocks).tolist()
        assert got == [list(c) for c in itertools.combinations(range(N), S)]

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        N=st.sampled_from([8, 16]),
        K=st.sampled_from([2, 4, 16]),
        data=st.data(),
    )
    def test_first_violation_matches_reference_on_both_sides_of_the_cap(self, seed, N, K, data):
        S = data.draw(st.integers(1, N).filter(lambda S: math.comb(N, S) <= 1820), label="S")
        grid = np.random.default_rng(seed).integers(0, K, size=(N, N))
        peak = max(int(t.max()) for _, t in btable._scan_blocks(grid[None], K, S))
        most = peak - data.draw(st.integers(0, 3), label="below_peak")
        want = oracles.lex_exhaustive_scan(grid, K, S, lambda c: c > most)
        for cap in (btable.SUBSET_TABLE_ENTRIES, math.comb(N, S) * S - 1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(btable, "SUBSET_TABLE_ENTRIES", cap)
                assert first_hit(grid, K, S, most) == want

    def test_cached_table_is_read_only(self):
        table = btable._lex_subsets(6, 3)
        assert btable._lex_subsets(6, 3) is table
        assert table.dtype == np.uint8 and not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 5
        subsets, _ = next(btable._scan_blocks(np.zeros((1, 6, 6), dtype=int), 2, 3))
        with pytest.raises(ValueError, match="read-only"):
            subsets[0, 0] = 5
        assert table[0].tolist() == [0, 1, 2]

    def test_rows_past_256_are_uint16(self):
        wide = btable._lex_subsets(300, 1)
        assert wide.dtype == np.uint16 and wide[:, 0].tolist() == list(range(300))
        assert btable._lex_subsets(256, 2).dtype == np.uint8

    def test_cache_holds_at_most_its_size_times_the_cap(self):
        # the largest and next largest uint8 tables for S = 3..8: twelve
        # keys near the cap, more than the cache holds
        cap = btable.SUBSET_TABLE_ENTRIES
        keys = []
        for S in range(3, 9):
            N = max(N for N in range(S, 257) if math.comb(N, S) * S <= cap)
            keys += [(N, S), (N - 1, S)]
        btable._lex_subsets.cache_clear()
        tracemalloc.start()
        try:
            for N, S in keys:
                btable._lex_subsets(N, S)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert btable._lex_subsets.cache_info().currsize == btable.SUBSET_TABLE_CACHE
        btable._lex_subsets.cache_clear()
        kept = sum(math.comb(N, S) * S for N, S in keys[-btable.SUBSET_TABLE_CACHE:])  # uint8 bytes
        assert kept <= held <= btable.SUBSET_TABLE_CACHE * cap

    @pytest.mark.parametrize("S", [2, 3, 4, 6, 8, 12])
    def test_build_at_the_cap_peaks_under_twice_its_bytes(self, S):
        # N is the largest with C(N, S) * S entries within the cap (N = 512
        # at S = 2, uint16); the build writes the stream into an array of its size
        cap = btable.SUBSET_TABLE_ENTRIES
        N = max(N for N in range(S, 1025) if math.comb(N, S) * S <= cap)
        tracemalloc.start()
        try:
            table = btable._lex_subsets.__wrapped__(N, S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.shape == (math.comb(N, S), S)
        assert table.tolist() == [list(c) for c in itertools.combinations(range(N), S)]
        assert peak < 2 * table.nbytes

    def test_walk_past_the_cap_builds_no_table(self):
        # C(64, 6) * 6 entries would be a 450 MB table; the first 20
        # blocks stream from itertools.combinations
        grid = np.random.default_rng(4).integers(0, 2, size=(64, 64))
        misses = btable._lex_subsets.cache_info().misses
        tracemalloc.start()
        try:
            walk = btable._scan_blocks(grid[None], 2, 6)
            first = [subsets.tolist() for subsets, _ in itertools.islice(walk, 20)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert btable._lex_subsets.cache_info().misses == misses
        assert peak < 8 * 2**20  # the blocks and their lists, not the table
        want = itertools.islice(itertools.combinations(range(64), 6), sum(map(len, first)))
        assert [s for block in first for s in block] == [list(c) for c in want]


class TestSampledMode:
    """Sampled mode runs the exhaustive kernel over random row subsets, so
    it can refute a bound, but never where exhaustive mode proves it."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3),
        m=st.integers(1, 2),
        r=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_sound_against_exhaustive(self, n, m, r, seed, data):
        N, M = 1 << n, 1 << m
        S = data.draw(st.integers(1, N), label="S")
        used = data.draw(st.integers(1, M), label="used")  # few colors: violations
        cells = np.random.default_rng(seed).integers(0, used, size=(N, N))
        t = Table(n, m, cells.astype(np.uint32))
        spec = BalanceSpec(S, min(r, N))
        trials = data.draw(st.integers(1, 30), label="trials")
        rows = cells.tolist()
        for verify, K in ((verify_color_bound, M), (verify_shift_pair_bound, M * M)):
            sampled = verify(t, spec, "sampled", trials=trials, seed=seed)
            if not sampled.ok:
                count = (oracles.color_count if K == M else oracles.shift_pair_count)(
                    rows, *sampled.witness
                )
                assert count == sampled.count and count * K > 2 * S * S
            assert sampled.ok or not verify(t, spec).ok
        delta = data.draw(st.sampled_from([0.25, 0.5, 0.75, 1.0]), label="delta")
        A = sorted(set(data.draw(st.lists(st.integers(0, M - 1), min_size=1), label="A")))
        R = math.ceil(2.0 ** (delta * n))
        bound = condense.color_bound_fraction(len(A), M, delta, 0.25, 1) * R * R
        exhaustive = condense.verify_balance(t, delta, 0.25, 1, A)
        sampled = condense.verify_balance(t, delta, 0.25, 1, A, "sampled", trials=trials, seed=seed)
        assert sampled.worst_ratio <= exhaustive.worst_ratio
        assert sampled.ok or not exhaustive.ok
        if not sampled.ok:
            B1, B2 = sampled.witness
            count = sum(oracles.color_count(rows, B1, B2, a) for a in A)
            assert count / bound == sampled.worst_ratio > 1

    @pytest.mark.parametrize("n,m,S,r", [(3, 1, 4, 2), (3, 2, 2, 3), (4, 1, 2, 4), (3, 2, 7, 3)])
    def test_trials_past_the_subsets_walk_them_all(self, n, m, S, r):
        # with trials >= C(N, S) a sampled run is the exhaustive scan, once
        N = 1 << n
        every = math.comb(N, S)
        assert btable.row_subsets(N, S, "sampled", every, 1, 0, "test") is None
        assert btable.row_subsets(N, S, "sampled", every - 1, 1, 0, "test") is not None
        for seed in range(4):
            t = random_table(n, m, seed)
            spec = BalanceSpec(S, r)
            for verify in (verify_color_bound, verify_shift_pair_bound):
                assert verify(t, spec, "sampled", trials=every, seed=seed) == verify(t, spec)
            for colors in ([0], [0, 1]):  # delta = 1/n: R = 2
                check = lambda *mode, **kw: condense.verify_balance(t, 1 / n, 0.25, 1, colors, *mode, **kw)
                assert check("sampled", trials=math.comb(N, 2), seed=seed) == check()

    def test_refutes_most_violating_tables(self):
        # 34 of these 40 random n=4, m=1 tables break the pair bound at
        # S=8, r=2; one random S x S rectangle a trial refuted 4 of them
        violating = refuted = 0
        for t in range(40):
            cells = np.random.default_rng([99, 4, 1, 8, t]).integers(0, 2, (16, 16), dtype=np.uint32)
            table = Table(4, 1, cells)
            spec = BalanceSpec(8, 2)
            exhaustive = verify_shift_pair_bound(table, spec)
            sampled = verify_shift_pair_bound(table, spec, "sampled", trials=1000, seed=t)
            assert sampled.ok or not exhaustive.ok
            violating += not exhaustive.ok
            refuted += not sampled.ok
        assert violating == 34
        assert refuted >= 25

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_block_over_limit_refused_before_allocating(self, mode):
        # n=10, m=10, S=1: K = 2^20 pair labels on 2^10 columns would need
        # one 2 GiB block of uint16 counts for a single row subset
        t = random_table(10, 10, 3)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match=r"over the limit SCAN_BLOCK_LIMIT = 134217728"):
                verify_shift_pair_bound(t, BalanceSpec(1, 2), mode, trials=5, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2**20

    def test_block_at_limit_still_scans(self, monkeypatch):
        # T * K * N = 2 * 4 * 8 = 64 counts for one row subset
        grids = np.zeros((2, 8, 8), dtype=np.int64)
        monkeypatch.setattr(btable, "SCAN_BLOCK_LIMIT", 64)
        assert btable._first_violation(grids, 4, 3, 8) == [((0, 1, 2), 0, 9)] * 2
        monkeypatch.setattr(btable, "SCAN_BLOCK_LIMIT", 63)
        with pytest.raises(ResourceError, match="needs 64 counts"):
            btable._first_violation(grids, 4, 3, 8)


def few_color_cells(N, used, flipped, seed):
    """Random N x N cells in colors 0..used-1; flipped makes row x + 2 row
    x with the low color bit flipped, so a pair check at difference 2
    sees each color only next to its flip."""
    cells = np.random.default_rng(seed).integers(0, used, size=(N, N)).astype(np.uint32)
    if flipped:
        x = np.arange(N)
        cells = cells[x % 2] ^ (x // 2 % 2).astype(np.uint32)[:, None]
    return cells


class TestDifferenceClasses:
    """The (i + 1, j + 1) pair grid is the (i, j) one with its rows rotated
    by one, and the (j, i) grid is the (i, j) one with its color pairs
    swapped, so a run that walks every row subset scans one pair per
    difference, (1, 2)..(1, r)."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The pairs whose grids ``_labels`` builds, in order."""
        built = []
        labels = btable._labels
        monkeypatch.setattr(btable, "_labels", lambda cells, M, pair: built.append(pair) or labels(cells, M, pair))
        return built

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 3), m=st.integers(1, 2), r=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
    def test_pair_grids_rotate_and_swap(self, n, m, r, seed):
        N, M = 1 << n, 1 << m
        cells = np.random.default_rng(seed).integers(0, M, size=(N, N)).astype(np.uint32)
        for i, j in itertools.permutations(range(1, r + 1), 2):
            grid = btable._labels(cells, M, (i, j))
            assert np.array_equal(btable._labels(cells, M, (i + 1, j + 1)), np.roll(grid, -1, axis=0))
            assert np.array_equal(btable._labels(cells, M, (j, i)), grid % M * M + grid // M)

    def test_both_modes_build_one_grid_per_difference(self, built):
        # a passing n=4, m=1 table at S=10, r=4 reaches every check
        table = search_table(4, 1, BalanceSpec(10, 4), "random", trials=1, seed=0)
        assert isinstance(table, Table)
        for r in (3, 4):
            spec = BalanceSpec(10, r)
            # sampled runs too, with row subsets keyed by [seed, 1, j],
            # or all C(16, 10) = 8008 of them once trials reach that
            for kw in ({}, {"mode": "sampled", "seed": 1}, {"mode": "sampled", "trials": 8008, "seed": 1}):
                built.clear()
                assert verify_shift_pair_bound(table, spec, **kw).ok
                assert built == [(1, j) for j in range(2, r + 1)]

    def test_search_builds_one_grid_per_difference(self, built):
        # trial 2 passes, so some chunk reaches every check
        hit = search_table(3, 1, BalanceSpec(6, 4), "random", trials=200, seed=0)
        assert hit_trial(hit) == 2 and set(built) == {(1, 2), (1, 3), (1, 4)}

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 3),
        m=st.integers(1, 2),
        r=st.integers(1, 4),
        S=st.integers(1, 8),
        used=st.integers(1, 4),  # few colors: violations
        flipped=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # first violations at pairs (1, 3) and (1, 4)
    @example(n=2, m=1, r=4, S=2, used=1, flipped=True, seed=0)
    @example(n=2, m=2, r=4, S=4, used=3, flipped=False, seed=0)
    @example(n=3, m=2, r=4, S=8, used=4, flipped=False, seed=4)
    def test_same_verdicts_as_naive_loops(self, n, m, r, S, used, flipped, seed):
        N, M = 1 << n, 1 << m
        assume(S <= N and math.comb(N, S) <= 56 and used <= M)
        cells = few_color_cells(N, used, flipped, seed)
        spec = BalanceSpec(S, min(r, N))
        got = verify_shift_pair_bound(Table(n, m, cells), spec)
        rows = cells.tolist()
        ok, witness, _ = oracles.naive_shift_pair_verdict(rows, S, M, spec.shift_bound)
        assert got.ok == ok
        if not ok:  # the same pair and B1; the richest columns from the dict scan
            B1, _, _, _, i, j = witness
            paired = [[rows[(x + i) % N][y] * M + rows[(x + j) % N][y] for y in range(N)] for x in range(N)]
            B1, B2, label, count = oracles.dict_first_violation(paired, S, 2 * S * S // (M * M))
            assert B1 == witness[0]
            assert got == VerifyResult(False, (B1, B2, label // M, label % M, i, j), count)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 3),
        m=st.integers(1, 2),
        r=st.integers(1, 4),
        S=st.integers(1, 8),
        used=st.lists(st.integers(1, 4), min_size=1, max_size=3),  # per table
        flipped=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # first violations at (1, 3) twice, and at (1, 4) around a pass
    @example(n=2, m=1, r=4, S=2, used=[2, 1], flipped=True, seed=0)
    @example(n=3, m=2, r=4, S=8, used=[4, 4, 4], flipped=False, seed=4)
    def test_search_misses_match_naive_loops(self, n, m, r, S, used, flipped, seed):
        # the oracle walks every ordered pair, so it shares no pair rule
        N, M = 1 << n, 1 << m
        assume(S <= N and math.comb(N, S) <= 28 and max(used) <= M)
        cells = np.array([few_color_cells(N, u, flipped, seed + k) for k, u in enumerate(used)])
        spec = BalanceSpec(S, min(r, N))
        want = [oracles.naive_first_miss(t.tolist(), S, M, spec.shift_bound) for t in cells]
        assert btable._first_misses(cells, M, spec) == want

    @pytest.mark.parametrize("n,m,S,trials", [(2, 1, 2, 40), (3, 1, 4, 60), (3, 2, 2, 20), (4, 1, 8, 20)])
    def test_search_at_three_shifts_matches_per_trial_loop(self, n, m, S, trials):
        spec = BalanceSpec(S, 3)
        assert_same_search(
            search_table(n, m, spec, "random", trials=trials, seed=11),
            oracles.per_trial_search(n, m, spec, "random", trials=trials, seed=11),
        )

    def test_memory_bounded_for_wide_pair_labels(self):
        # n=8, m=8: 65536 pair labels on 256 columns, so no label-total
        # screen, whose per-row counts alone would hold N * K = 2^24
        # entries, as many as the pair grid
        t = random_table(8, 8, 11)
        tracemalloc.start()
        try:
            r = verify_shift_pair_bound(t, BalanceSpec(S=1, shift_bound=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 70 * 2**20
        B1, B2, a, b, i, j = r.witness
        assert (i, j) == (1, 2) and r.count == 1
        assert oracles.shift_pair_count(t.cells.tolist(), B1, B2, a, b, i, j) == 1


class TestPlan:
    """Each check runs certificate, then budget, then scan, in both modes:
    the budget gates only the checks the certificate leaves open."""

    @pytest.fixture
    def n5(self):
        # n=5, m=1: no single-color check; at S=20 the marginal bound
        # closes both pair grids (192 <= 200), at S=16 it does not
        cells = np.random.default_rng(3).integers(0, 2, (32, 32))
        return Table(5, 1, cells.astype(np.uint32))

    def test_steps_in_order(self, monkeypatch):
        # n=3, m=2, S=4, r=3: every check is open and passes nowhere
        steps = []
        for name in ("_marginal_bound", "_check_budget", "_first_violation"):
            step = getattr(btable, name)
            monkeypatch.setattr(btable, name, lambda *a, step=step, name=name: steps.append(name) or step(*a))
        t = random_table(3, 2, 7)
        plan = ["_marginal_bound", "_check_budget", "_first_violation"]
        verify_color_bound(t, BalanceSpec(4, 3))
        assert steps == plan
        steps.clear()
        assert not verify_shift_pair_bound(t, BalanceSpec(4, 3)).ok
        assert steps == plan  # the first pair check fails
        steps.clear()
        verify_shift_pair_bound(t, BalanceSpec(4, 3), "sampled", trials=5, seed=1)
        assert steps[:2] == ["_marginal_bound", "_first_violation"]

    @pytest.mark.parametrize("r", [2, 3])
    def test_certificate_closes_an_over_budget_run(self, n5, r):
        # C(32, 20)^2 = 5.1e16 subset pairs, far over the default budget
        assert verify_shift_pair_bound(n5, BalanceSpec(20, r)) == VerifyResult(True)
        assert verify_color_bound(n5, BalanceSpec(20, r), budget=0) == VerifyResult(True)

    def test_open_check_over_budget_refused(self, n5):
        with pytest.raises(ResourceError, match=(
            r"^shifted-pair verification needs 361297635242552100 subset pairs, over budget 1000000000 "
        )):
            verify_shift_pair_bound(n5, BalanceSpec(16, 2))

    def test_no_check_needs_no_budget(self):
        # M <= 2 has no single-color check, r = 1 no pair check; the m=2
        # table's open single-color check still meets the budget
        t1, t2 = random_table(4, 1, 0), random_table(4, 2, 0)
        assert verify_color_bound(t1, BalanceSpec(8, 2), budget=0).ok
        for t in (t1, t2):
            assert verify_shift_pair_bound(t, BalanceSpec(8, 1), budget=0).ok
        with pytest.raises(ResourceError, match="over budget 0"):
            verify_color_bound(t2, BalanceSpec(8, 1), budget=0)


class TestMarginalBound:
    """The row and column count certificate in front of the scans."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3),
        K=st.integers(2, 16),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_bound_is_at_least_every_rectangle_count(self, n, K, seed, data):
        N = 1 << n
        S = data.draw(st.integers(1, N), label="S")
        used = data.draw(st.integers(1, K), label="used")  # 1 label: the bound is S^2
        grid = np.random.default_rng(seed).integers(0, used, size=(N, N))
        bound = btable._marginal_bound(grid, S)
        assert oracles.lex_exhaustive_scan(grid, K, S, lambda c: c > bound) is None
        assert bound <= S * S

    @staticmethod
    def _on_and_off(t, spec, colors, mode):
        """Every verifier's result with the certificate, then without it:
        a bound above any count leaves the scan-only path."""
        kw = dict(trials=30, seed=5) if mode == "sampled" else {}

        def results():
            return (
                verify_color_bound(t, spec, mode, **kw),
                verify_shift_pair_bound(t, spec, mode, **kw),
                condense.verify_balance(t, 0.34, 0.1, 1, colors, mode, **kw),
                condense.verify_balance(t, 0.75, 0.25, 1, colors, mode, **kw),
            )

        on = results()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(btable, "_marginal_bound", lambda grid, S: S * S + 1)
            return on, results()

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 4),
        m=st.integers(1, 3),
        kind=st.sampled_from(["random", "constant", "rows"]),
        seed=st.integers(0, 2**32 - 1),
        mode=st.sampled_from(["exhaustive", "sampled"]),
        data=st.data(),
    )
    def test_same_results_with_the_certificate_off(self, n, m, kind, seed, mode, data):
        N, M = 1 << n, 1 << m
        rng = np.random.default_rng(seed)
        used = data.draw(st.integers(1, M), label="used")
        if kind == "random":
            cells = rng.integers(0, used, size=(N, N))
        elif kind == "constant":
            cells = np.full((N, N), used - 1)
        else:  # constant rows: pair labels repeat along each row
            cells = np.repeat(rng.integers(0, used, size=(N, 1)), N, axis=1)
        t = Table(n, m, cells.astype(np.uint32))
        # at most C(16, 4) = 1820 row subsets a scan
        S = data.draw(st.integers(1, N).filter(lambda S: math.comb(N, S) <= 1820), label="S")
        spec = BalanceSpec(S, data.draw(st.integers(1, min(N, 3)), label="r"))
        # all of A, at least half of the colors, or any nonempty subset
        size = data.draw(st.sampled_from([M, max(1, M // 2), 1]), label="|A|")
        colors = sorted(rng.choice(M, size=size, replace=False).tolist())
        on, off = self._on_and_off(t, spec, colors, mode)
        assert on == off

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_condense_ceiling_keeps_ratio_and_witness(self, m):
        # n=4, |A| = M/2: the running maximum climbs over several row
        # subsets before it meets the ceiling, or never meets it
        M = 1 << m
        for seed in range(8):
            t = random_table(4, m, seed)
            for mode in ("exhaustive", "sampled"):
                on, off = self._on_and_off(t, BalanceSpec(1, 1), list(range(M // 2)), mode)
                assert on == off

    def test_closed_checks_never_scan(self, monkeypatch, tmp_path, capsys):
        # n=4, m=1, S=12, r=2: each shift pair's bound is 63 <= most = 72
        t = random_table(4, 1, 0)
        spec = BalanceSpec(12, 2)
        for pair in ((1, 2), (2, 1)):
            assert btable._marginal_bound(btable._labels(t.cells, 2, pair), 12) <= 72

        def no_scan(*args):
            raise AssertionError("scanned a check the bound closes")

        monkeypatch.setattr(btable, "_first_violation", no_scan)
        assert verify_shift_pair_bound(t, spec) == VerifyResult(True)
        write_table(t, tmp_path / "t.ktb")
        code = main(["table", "verify", "--table", str(tmp_path / "t.ktb"),
                     "--S", "12", "--shift-bound", "2"])
        assert (code, capsys.readouterr().out) == (0, "OK\n")

    def test_memory_independent_of_label_count(self):
        # n=6, m=8: K = 2^16 pair labels; a dense (N, K) count array would
        # take 32 MiB, against the 32 KiB label grid
        peaks = {}
        for m in (1, 8):
            grid = btable._labels(random_table(6, m, 11).cells, 1 << m, (1, 2))
            tracemalloc.start()
            try:
                btable._marginal_bound(grid, 10)
                peaks[m] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8] <= 6 * grid.nbytes
        assert peaks[1] <= 6 * grid.nbytes


def assert_same_search(got, want):
    """The same hit (cells and provenance) or the same failure, every field."""
    if isinstance(want, Table):
        assert isinstance(got, Table) and got == want
        assert got.provenance == want.provenance
    else:
        assert isinstance(got, SearchFailure) and got == want


class TestRichestRectangle:
    """The running maximum of one label that ``condense`` scans for."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), S=st.integers(1, 8),
           density=st.sampled_from([0.0, 0.1, 0.4, 0.9]))
    def test_first_richest_rectangle_in_lexicographic_order(self, seed, S, density):
        grid = (np.random.default_rng(seed).random((8, 8)) < density).astype(np.int64)
        # bound 1/2 makes the reference's witness its first row subset at the largest count
        _, worst, witness = oracles.lex_balance_scan(grid, [1], S, 0.5)
        assert btable.richest_rectangle(grid, S) == (round(worst / 2), witness)

    def test_stops_at_the_marginal_ceiling(self, monkeypatch):
        # every cell is 1, so the first row subset reaches S^2, the ceiling
        scanned = []

        def counted(*args):
            for block in walk(*args):
                scanned.append(len(block[0]))
                yield block

        walk = btable._scan_blocks
        monkeypatch.setattr(btable, "_scan_blocks", counted)
        got = btable.richest_rectangle(np.ones((16, 16), dtype=np.int64), 4)
        first = (btable.SCAN_BLOCK_ENTRIES >> 4) // (16 * 2)  # row subsets in the first block
        assert got == (16, ((0, 1, 2, 3), (0, 1, 2, 3))) and scanned == [first] == [128]


def hit_trial(table: Table) -> int:
    return int(table.provenance.rsplit("trial=", 1)[1].rstrip(")"))


class TestSearch:
    @pytest.mark.parametrize("strategy", ["random", "exhaustive"])
    def test_shift_bound_past_N_rejected(self, strategy):
        with pytest.raises(ParameterError, match="shift_bound=5 exceeds N=4"):
            search_table(2, 1, BalanceSpec(S=2, shift_bound=5), strategy, trials=3, seed=0)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 4),
        m=st.integers(1, 3),
        r=st.integers(1, 3),
        seed=st.integers(0, 2**128 - 1),
        trials=st.integers(1, 240),
        data=st.data(),
    )
    def test_random_search_matches_per_trial_loop(self, n, m, r, seed, trials, data):
        # chunks grow x4 from one trial, so 1..240 trials straddle the
        # chunk boundaries at 1, 5, 21 and 85; seeds past 2^64 take
        # three or more entropy words
        S = data.draw(st.integers(1, 1 << n), label="S")
        spec = BalanceSpec(S, r)
        assert_same_search(
            search_table(n, m, spec, "random", trials=trials, seed=seed),
            oracles.per_trial_search(n, m, spec, "random", trials=trials, seed=seed),
        )

    @pytest.mark.parametrize(
        "n,m,S,r,seed,h",
        [(3, 1, 6, 2, 5, 0), (2, 1, 3, 2, 1, 1), (4, 1, 8, 2, 3, 10), (3, 1, 4, 2, 2026, 332),
         (4, 1, 8, 2, 54, 24), (3, 1, 4, 2, 227, 341), (3, 1, 4, 2, 520, 342)],
    )
    def test_hit_at_first_and_last_trial(self, n, m, S, r, seed, h):
        # h is the first passing trial; the chunks start at trials 0, 1, 5,
        # 21, 85 and 341, so 10 lies in the third chunk, 24 in the fourth,
        # 332 in the fifth, 341 starts the sixth and 342 is past its start
        spec = BalanceSpec(S, r)
        hit = oracles.per_trial_search(n, m, spec, "random", trials=400, seed=seed)
        assert hit_trial(hit) == h
        # the hit as the last trial, and the search one trial short of it
        for trials in (h + 1, h) if h else (1,):
            assert_same_search(
                search_table(n, m, spec, "random", trials=trials, seed=seed),
                oracles.per_trial_search(n, m, spec, "random", trials=trials, seed=seed),
            )

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("S,r", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3)])
    def test_exhaustive_search_matches_per_table_loop(self, m, S, r):
        spec = BalanceSpec(S, r)
        if r > 2:  # past N = 2, where shifts mod N would read one row twice
            with pytest.raises(ParameterError, match="shift_bound=3 exceeds N=2"):
                search_table(1, m, spec, "exhaustive")
            return
        assert_same_search(
            search_table(1, m, spec, "exhaustive"),
            oracles.per_trial_search(1, m, spec, "exhaustive"),
        )

    def test_chunks_grow_x4_up_to_largest(self, monkeypatch):
        # at n=3, m=2 a chunk holds at most 65536 // (8 * 16) = 512 tables
        # (the pair counts of one row subset), so a 1000-trial miss draws
        # chunks of 1, 4, 16, 64, 256, 512 and the 147 trials left
        chunks = []
        random_cells = btable._random_cells

        def recorded(seed, start, stop, N, m):
            chunks.append((start, stop))
            return random_cells(seed, start, stop, N, m)

        monkeypatch.setattr(btable, "_random_cells", recorded)
        got = search_table(3, 2, BalanceSpec(6, 2), "random", trials=1000, seed=0)
        assert isinstance(got, SearchFailure) and btable.SCAN_BLOCK_ENTRIES // (8 * 16) == 512
        assert chunks == [(0, 1), (1, 5), (5, 21), (21, 85), (85, 341), (341, 853), (853, 1000)]

    @pytest.mark.parametrize(
        "n,m,spec", [(6, 8, BalanceSpec(1, 2)), (9, 1, BalanceSpec(1, 3)), (4, 4, BalanceSpec(2, 2))]
    )
    def test_search_memory_bounded(self, n, m, spec):
        # a chunk holds at most SCAN_BLOCK_ENTRIES cells and pair counts of
        # one row subset, however many trials remain
        tracemalloc.start()
        try:
            got = search_table(n, m, spec, "random", trials=40, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        want = oracles.per_trial_search(n, m, spec, "random", trials=40, seed=3)
        assert_same_search(got, want)

    def test_hit_at_trial_zero_scans_one_table(self, monkeypatch):
        # every passing table in a chunk costs a full scan, so a search
        # whose first trial passes must not scan a chunk of others with it
        scanned = []
        first_misses = btable._first_misses
        monkeypatch.setattr(
            btable, "_first_misses",
            lambda cells, M, spec: scanned.append(len(cells)) or first_misses(cells, M, spec),
        )
        hit = search_table(3, 1, BalanceSpec(6, 2), "random", trials=300, seed=5)
        assert hit_trial(hit) == 0 and scanned == [1]

    def test_draw_memory_no_higher_than_per_trial_generators(self, monkeypatch):
        # a draw holds its chunk and one table's raw words, never a
        # (T, N*N) temporary; per-trial generators hold a chunk twice, as
        # a list of tables and as their stacked copy
        def peak(fn, *args):
            tracemalloc.start()
            try:
                return fn(*args), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        btable._random_cells(5, 0, 1, 2, 1)  # first-call set-up, outside the measurement
        got, ours = peak(btable._random_cells, 5, 0, 8, 256, 1)
        want, theirs = peak(per_trial_cells, 5, 0, 8, 256, 1)
        assert np.array_equal(got, want) and ours <= theirs
        # n=10: one 4 MiB table per chunk, so the scan sets the peak
        search = lambda: search_table(10, 1, BalanceSpec(1, 2), "random", trials=2, seed=5)
        search()  # fill first-call caches outside both measurements
        got, ours = peak(search)
        monkeypatch.setattr(btable, "_random_cells", per_trial_cells)
        want, theirs = peak(search)
        assert ours <= theirs + 2**12  # Python objects' noise; a table is 4 MiB
        assert_same_search(got, want)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_random_search_needs_a_trial(self, trials):
        with pytest.raises(ParameterError, match="trials must be >= 1"):
            search_table(3, 1, SPEC34, "random", trials=trials, seed=1)

    def test_random_search_rejects_negative_seed(self):
        with pytest.raises(ParameterError, match="seed must be >= 0"):
            search_table(3, 1, SPEC34, "random", trials=5, seed=-1)

    @pytest.mark.parametrize("seed,shown", [(1.5, "float 1.5"), ("7", "str '7'"), (True, "bool True")])
    def test_random_search_refuses_a_seed_that_is_not_an_int(self, seed, shown):
        with pytest.raises(ParameterError, match=f"seed must be an int, got {shown}"):
            search_table(3, 1, BalanceSpec(4, 2), trials=3, seed=seed)

    @pytest.mark.parametrize("trials,shown", [(2.5, "float 2.5"), ("3", "str '3'"), (True, "bool True")])
    def test_random_search_refuses_trials_that_are_not_an_int(self, trials, shown):
        with pytest.raises(ParameterError, match=f"trials must be an int, got {shown}"):
            search_table(3, 1, BalanceSpec(4, 2), trials=trials, seed=1)

    def test_random_search_takes_numpy_integer_trials(self):
        # the failure reports its trials as a Python int
        got = search_table(3, 2, BalanceSpec(6, 2), "random", trials=np.int64(3), seed=1)
        assert_same_search(got, search_table(3, 2, BalanceSpec(6, 2), "random", trials=3, seed=1))
        assert type(got.trials) is int and str(got).startswith("no balanced table in 3 trials")

    def test_random_search_takes_numpy_integer_seeds(self):
        # the seed reaches the pool hash and the provenance as a Python int
        for seed in (np.int64(5), np.uint64(2**64 - 1)):
            got = search_table(3, 1, BalanceSpec(6, 2), "random", trials=300, seed=seed)
            assert_same_search(got, search_table(3, 1, BalanceSpec(6, 2), "random", trials=300, seed=int(seed)))

    def test_search_checks_dimensions_before_drawing(self):
        with pytest.raises(ParameterError, match="n >= 1"):
            search_table(-1, 1, SPEC34)
        with pytest.raises(ResourceError, match="dense-table limit"):
            search_table(13, 1, SPEC34, "exhaustive")
        with pytest.raises(ParameterError, match="exceeds N=4"):
            search_table(2, 1, BalanceSpec(5, 1), trials=1, seed=0)

    def test_search_budget_message(self):
        with pytest.raises(ResourceError, match="table search needs 4900 subset pairs"):
            search_table(3, 1, SPEC34, "random", trials=3, seed=0, budget=4899)

    def test_random_search_reproducible(self):
        a = search_table(3, 1, SPEC34, "random", trials=2000, seed=2026)
        b = search_table(3, 1, SPEC34, "random", trials=2000, seed=2026)
        assert isinstance(a, Table) and a == b
        assert a.provenance == b.provenance == "searched(seed=2026,trial=332)"

    def test_single_cell_rectangles_unsatisfiable_for_m2(self):
        # a lone cell is a full color, above 2/M of the rectangle for M = 4
        spec = BalanceSpec(S=1, shift_bound=1)
        result = search_table(2, 2, spec, "random", trials=30, seed=0)
        assert isinstance(result, SearchFailure)
        assert result.trials == 30
        assert "nearest miss" in str(result)

    def test_exhaustive_search_returns_lex_least(self):
        spec = BalanceSpec(S=2, shift_bound=2)
        a = search_table(1, 1, spec, "exhaustive")
        b = search_table(1, 1, spec, "exhaustive")
        assert isinstance(a, Table) and a == b
        flat = a.cells.ravel().tolist()
        # no lexicographically smaller table passes
        for candidate in itertools.product(range(2), repeat=4):
            if list(candidate) >= flat:
                break
            t = Table(1, 1, np.array(candidate, dtype=np.uint32))
            r1, r2 = verify_both(t, spec)
            assert not (r1.ok and r2.ok)

    def test_exhaustive_search_budget(self):
        with pytest.raises(ResourceError, match=r"over 2\^32 tables exceeds budget 65536"):
            search_table(2, 2, BalanceSpec(S=2, shift_bound=1), "exhaustive")

    def test_exhaustive_budget_boundary(self):
        # n=1, m=1: 2^4 candidate tables, and the refusal is exact at 2^4
        spec = BalanceSpec(S=2, shift_bound=2)
        assert isinstance(search_table(1, 1, spec, "exhaustive", budget=16), Table)
        for budget in (15, 0, -3):
            with pytest.raises(ResourceError, match=rf"over 2\^4 tables exceeds budget {budget}$"):
                search_table(1, 1, spec, "exhaustive", budget=budget)

    def test_exhaustive_refusal_builds_no_table_count(self):
        # 2^(31 * 4096^2) is a 65 MB integer, and its decimal form is past
        # Python's int-to-string limit: the refusal compares exponents only
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match=r"over 2\^520093696 tables exceeds budget 65536$"):
                search_table(12, 31, SPEC34, "exhaustive")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_unknown_strategy(self):
        with pytest.raises(ParameterError):
            search_table(1, 1, BalanceSpec(S=1, shift_bound=1), "quantum")


class TestWideLabels:
    """Checks with more labels than their grids hold cells count only the
    labels present, renumbered in order, and give the same answers."""

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    @pytest.mark.parametrize(
        "m,S,r,check,want",
        [
            # exhaustive: recorded before the renumbering, when the scans
            # counted all 4096 (m=12, single-color) or 256 (m=4, pair)
            # labels; sampled: recorded when sampled mode began to check
            # each random row subset against its richest columns
            (12, 2, 2, "single-color", {
                "exhaustive": VerifyResult(False, ((0, 1), (0, 4), 263), 1),
                "sampled": VerifyResult(False, ((0, 5), (0, 4), 263), 1),
            }),
            (4, 6, 3, "shifted-pair", {
                "exhaustive": VerifyResult(False, ((0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 6), 0, 14, 1, 2), 1),
                "sampled": VerifyResult(False, ((0, 1, 2, 4, 6, 7), (0, 1, 2, 3, 4, 6), 0, 14, 1, 2), 1),
            }),
        ],
    )
    def test_verify_unchanged(self, mode, m, S, r, check, want):
        rng = np.random.default_rng(m)
        table = Table(3, m, rng.integers(0, 1 << m, (8, 8), dtype=np.uint32))
        spec = BalanceSpec(S, r)
        verify = verify_color_bound if check == "single-color" else verify_shift_pair_bound
        kw = {"trials": 5, "seed": 3} if mode == "sampled" else {}
        got = verify(table, spec, mode, **kw)
        assert got == want[mode]
        # and the earlier one-hot scans agree, on the same label grid
        M = table.M
        K = M if check == "single-color" else M * M
        grid = btable._labels(table.cells.astype(np.int64), M, None if check == "single-color" else (1, 2))
        if mode == "exhaustive":
            ref = oracles.lex_exhaustive_scan(grid, K, S, lambda c: c > 2 * S * S // K)
        else:
            ref = oracles.sampled_scan(grid, K, S, 2 * S * S // K, 5, 3 if check == "single-color" else [3, 1, 2])
        B1, B2, label, count = ref
        colors = (label,) if check == "single-color" else (label // M, label % M, 1, 2)
        assert got == VerifyResult(False, (B1, B2, *colors), count)

    @pytest.mark.parametrize(
        "n,m,S,r,trials,want",
        [  # recorded before the renumbering
            (3, 12, 2, 2, 20, SearchFailure(20, 512.0, 0, "single-color")),
            (3, 4, 3, 2, 40, SearchFailure(40, 32 / 18, 0, "single-color")),
            (2, 3, 2, 2, 40, SearchFailure(40, 2.0, 1, "single-color")),
        ],
    )
    def test_search_unchanged(self, n, m, S, r, trials, want):
        spec = BalanceSpec(S, r)
        got = search_table(n, m, spec, "random", trials=trials, seed=4)
        assert got == want
        assert got == oracles.per_trial_search(n, m, spec, "random", trials=trials, seed=4)

    def test_few_labels_skip_the_renumbering(self, monkeypatch):
        # K at most the stack's cells (64: one 8 x 8 grid, or four 4 x 4
        # grids): the scan runs on the labels as given
        grid = random_table(3, 2, 1).cells.astype(np.int64)
        stack = np.random.default_rng(2).integers(0, 6, size=(4, 4, 4))
        want = [oracles.lex_exhaustive_scan(grid, K, 3, lambda c: c > 1) for K in (16, 64)]
        want_stack = [oracles.dict_first_violation(g.tolist(), 2, 1) for g in stack]

        def no_unique(*args, **kwargs):
            raise AssertionError("np.unique called: the labels were renumbered")

        monkeypatch.setattr(np, "unique", no_unique)
        for K, w in zip((16, 64), want):
            assert btable._first_violation(grid[None], K, 3, 1) == [(w[0], w[2], w[3])]
        assert btable._first_violation(stack, 64, 2, 1) == [w and (w[0], w[2], w[3]) for w in want_stack]

    def test_many_labels_come_back_in_the_callers_numbering(self):
        # K = 2^62 pair labels on 2 x 16 cells: the scan counts the three
        # labels that occur, renumbered, and returns them as given
        palette = np.array([5, 2**40 + 3, 2**61 + 7], np.int64)
        grids = palette[np.random.default_rng(3).integers(0, 3, size=(2, 4, 4))]
        grids[1] = palette[2]  # grid 1 holds only the last label
        want = [oracles.dict_first_violation(g.tolist(), 2, 0) for g in grids]
        got = btable._first_violation(grids, 1 << 62, 2, 0)
        assert got == [(w[0], w[2], w[3]) for w in want]
        assert {label for _, label, _ in got} <= set(palette.tolist())

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_31_bit_colors(self, mode):
        # 2^31 colors and 2^62 pair labels on 64 cells; a few wide colors
        # repeat, so the witness counts are more than one cell
        palette = np.array([7, 2**30 + 5, 2**31 - 1], np.uint32)
        cells = palette[np.random.default_rng(8).integers(0, 3, (8, 8))]
        table = Table(3, 31, cells)
        spec = BalanceSpec(3, 2)
        kw = {"trials": 20, "seed": 1} if mode == "sampled" else {}
        M, rows = table.M, cells.tolist()
        single = verify_color_bound(table, spec, mode, **kw)
        pair = verify_shift_pair_bound(table, spec, mode, **kw)
        B1, B2, a = single.witness
        assert single.count == oracles.color_count(rows, B1, B2, a) > 0
        B1, B2, a, b, i, j = pair.witness
        assert pair.count == oracles.shift_pair_count(rows, B1, B2, a, b, i, j) > 0
        if mode == "exhaustive":
            B1, B2, a, count = oracles.dict_first_violation(rows, 3, 0)
            assert single == VerifyResult(False, (B1, B2, a), count)
            paired = [[rows[(x + 1) % 8][y] * M + rows[(x + 2) % 8][y] for y in range(8)] for x in range(8)]
            B1, B2, label, count = oracles.dict_first_violation(paired, 3, 0)
            assert pair == VerifyResult(False, (B1, B2, label // M, label % M, 1, 2), count)


def per_trial_cells(seed, start, stop, N, m):
    """``btable._random_cells`` as one generator per trial."""
    cells = [
        np.random.default_rng([seed, t]).integers(0, 2**m, size=(N, N), dtype=np.uint32)
        for t in range(start, stop)
    ]
    return np.array(cells, dtype=np.uint32).reshape(-1, N, N)


class TestRandomCells:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**130),
        start=st.integers(0, 2**40),
        size=st.integers(1, 40),
        n=st.integers(1, 6),
        m=st.integers(1, btable.MAX_M),
    )
    @example(seed=0, start=0, size=3, n=1, m=1)
    @example(seed=1, start=0, size=2, n=2, m=btable.MAX_M)
    @example(seed=2**32 - 1, start=0, size=33, n=3, m=2)
    @example(seed=2**32, start=7, size=5, n=2, m=5)
    @example(seed=2**63 - 1, start=0, size=4, n=3, m=1)
    @example(seed=2**64, start=0, size=4, n=2, m=3)
    @example(seed=2**96 + 5, start=0, size=4, n=2, m=17)
    @example(seed=2**130, start=2**40, size=3, n=2, m=9)
    @example(seed=2**256 + 3, start=0, size=3, n=2, m=4)
    @example(seed=2**256 + 3, start=2**32 - 2, size=5, n=2, m=11)
    def test_matches_per_trial_generators(self, seed, start, size, n, m):
        # entropy [seed, t] is seed's 32-bit words then t's: 2 to 7 words,
        # so some run past SeedSequence's 4-word pool
        got = btable._random_cells(seed, start, start + size, 1 << n, m)
        assert got.dtype == np.uint32
        np.testing.assert_array_equal(got, per_trial_cells(seed, start, start + size, 1 << n, m))

    @pytest.mark.parametrize("seed", [0, 2026, 2**64 + 5, 2**96 + 5])
    def test_chunk_across_two_to_the_32(self, seed):
        # t = 2^32 - 1 is one word and t = 2^32 two, in one chunk
        start = 2**32 - 3
        got = btable._random_cells(seed, start, start + 6, 4, 3)
        np.testing.assert_array_equal(got, per_trial_cells(seed, start, start + 6, 4, 3))

    def test_builds_no_seed_sequence(self, monkeypatch):
        # the chunk's pools are hashed in numpy, never by numpy's SeedSequence
        cases = [(2026, 0, 40, 8, 2), (2**96 + 5, 2**32 - 3, 2**32 + 3, 4, 3), (2**256 + 3, 7, 12, 2, 31)]
        want = [per_trial_cells(*case) for case in cases]

        def refused(*args, **kwargs):
            raise AssertionError("_random_cells built a SeedSequence")

        monkeypatch.setattr(np.random, "SeedSequence", refused)
        for case, cells in zip(cases, want):
            np.testing.assert_array_equal(btable._random_cells(*case), cells)

    def test_integers_keeps_the_top_bits_of_raw_words(self):
        # _random_cells rebuilds Generator.integers from PCG64's raw words:
        # for a range 2^m, the top m bits of each 32-bit half, low half first
        for m in range(1, btable.MAX_M + 1):
            drawn = np.random.default_rng([1, 0]).integers(0, 2**m, 64, np.uint32)
            raw = np.random.PCG64([1, 0]).random_raw(32).astype("<u8").view("<u4") >> (32 - m)
            assert np.array_equal(drawn, raw), (
                f"m={m}: Generator.integers no longer keeps the top bits of PCG64's "
                "32-bit halves.  NEP 19 keeps bit-generator streams stable across "
                "numpy versions, but not Generator methods; btable._random_cells "
                "must follow the new integers algorithm"
            )


class TestApply:
    def test_constant_table(self):
        t = Table.constant(3, 2, 3)
        assert apply_table(0, 0, t, 4) == [3, 3, 3, 3]

    def test_matches_direct_indexing(self):
        t = random_table(3, 2, 42)
        x1, x2, L = 5, 3, 6
        expected = [int(t.cells[(x1 + j) % 8, x2]) for j in range(1, L + 1)]
        assert apply_table(x1, x2, t, L) == expected

    def test_row_wraparound(self):
        t = random_table(2, 1, 1)
        assert apply_table(3, 0, t, 2) == [int(t.cells[0, 0]), int(t.cells[1, 0])]

    def test_validation(self):
        t = random_table(2, 1, 2)
        with pytest.raises(ParameterError):
            apply_table(4, 0, t, 1)
        with pytest.raises(ParameterError):
            apply_table(0, 0, t, 0)

    def test_count_is_at_most_N(self):
        # shifts j and j + N name the same row: count = N is the whole
        # column, rotated to start below x1, and N + 1 is refused
        t = random_table(3, 2, 44)
        x1, x2 = 5, 6
        column = [int(v) for v in t.cells[:, x2]]
        assert apply_table(x1, x2, t, 8) == column[x1 + 1:] + column[:x1 + 1]
        with pytest.raises(ParameterError, match="count must be in 1..8"):
            apply_table(x1, x2, t, 9)


class TestSchedule:
    def test_reference_point(self):
        sched = derive_table_schedule(1024, 1, 1024, alpha=12)
        assert sched.m == 1024 // 3 - 7 * 10 == 271
        assert sched.S == 1 << math.ceil(2 * 1024 / 3)
        assert sched.t == 12 + 7 * 10

    def test_boundary_rejected(self):
        # s equal to (6k+15)*ceil(log2 n) violates the strict hypothesis
        with pytest.raises(ParameterError):
            derive_table_schedule(1024, 1, 21 * 10, alpha=0)

    def test_s_above_n_rejected(self):
        with pytest.raises(ParameterError):
            derive_table_schedule(1024, 1, 1025, alpha=0)

    def test_small_s_rejected(self):
        with pytest.raises(ParameterError):
            derive_table_schedule(64, 1, 64, alpha=0)

    def test_m_below_one_rejected(self):
        # hypothesis holds (211 > 210) but m = 70 - 70 = 0
        with pytest.raises(ParameterError, match="m"):
            derive_table_schedule(1024, 1, 211, alpha=0)

    def test_type_is_plain_record(self):
        sched = derive_table_schedule(1024, 2, 1024, alpha=3)
        assert isinstance(sched, TableSchedule)
        assert sched.m == 1024 // 3 - 9 * 10


class TestExistenceBound:
    def test_zero_s_fails(self):
        assert not check_existence_bound(16, 2, 0, 4, 1).holds

    def test_m1_formula(self):
        # ln M = 0 collapses the bound; compare against a direct evaluation
        N, M, S, n, k = 1 << 10, 1, 1 << 8, 10, 2
        got = check_existence_bound(N, M, S, n, k)
        rhs = 6 * k * math.log(n) + 12 * S + 6 * S * math.log(N / S) + 3
        assert float(got.rhs) == pytest.approx(rhs, rel=1e-12)
        assert got.holds == (S * S > rhs)

    def test_minimal_satisfying_s_by_binary_search(self):
        N, M, n, k = 1 << 20, 2, 20, 1
        lo, hi = 1, N
        while lo < hi:
            mid = (lo + hi) // 2
            if check_existence_bound(N, M, mid, n, k).holds:
                hi = mid
            else:
                lo = mid + 1
        assert check_existence_bound(N, M, lo, n, k).holds
        assert not check_existence_bound(N, M, lo - 1, n, k).holds
        # direct float evaluation agrees at the crossover
        def rhs(S):
            return (
                3 * M**2 * math.log(M)
                + 6 * M**2 * k * math.log(n)
                + 12 * S * M**2
                + 6 * S * M**2 * math.log(N / S)
                + 3 * M**2
            )
        assert lo * lo > rhs(lo)
        assert (lo - 1) ** 2 <= rhs(lo - 1)

    def test_huge_parameters_do_not_overflow(self):
        S = 1 << 683
        got = check_existence_bound(1 << 1024, 1 << 271, S, 1024, 1)
        assert got.holds == (got.lhs > got.rhs)
        assert got.lhs == mpf(S) ** 2

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            check_existence_bound(4, 2, 5, 2, 1)
        with pytest.raises(ParameterError):
            check_existence_bound(0, 2, 0, 2, 1)


class TestFailureProbBounds:
    def test_full_rectangle_direct_value(self):
        N, M, S, n, k = 16, 2, 16, 4, 1
        p1, p2 = failure_prob_bounds(N, M, S, n, k)
        expect1 = -(1 / 3) * (1 / M) * S**2 + math.log(M) + 2 * S
        expect2 = (
            -(1 / 3) * (1 / M**2) * S**2
            + 2 * math.log(M)
            + 2 * k * math.log(n)
            + 2 * S
        )
        assert float(p1) == pytest.approx(expect1, rel=1e-12)
        assert float(p2) == pytest.approx(expect2, rel=1e-12)

    def test_holds_implies_exponents_below_minus_one(self):
        for n in (8, 12, 16, 20):
            N = 1 << n
            for m in (1, 2, 4):
                M = 1 << m
                for S in (1 << (n // 2), 1 << (n - 2), N):
                    if check_existence_bound(N, M, S, n, 1).holds:
                        p1, p2 = failure_prob_bounds(N, M, S, n, 1)
                        assert p1 < -1 and p2 < -1

    def test_doubling_s_decreases_exponents_when_s2_dominates(self):
        N, M, n, k = 1 << 20, 2, 20, 1
        prev = None
        for S in (1 << 10, 1 << 11, 1 << 12, 1 << 13):
            cur = failure_prob_bounds(N, M, S, n, k)
            if prev is not None:
                assert cur[0] < prev[0] and cur[1] < prev[1]
            prev = cur


class TestFileFormat:
    @pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (3, 1), (3, 2), (2, 5)])
    def test_round_trip_bit_exact(self, tmp_path, n, m, seed=0):
        t = random_table(n, m, seed + n * 8 + m)
        path = tmp_path / "t.ktb"
        write_table(t, path, {"seed": seed})
        back = read_table(path)
        assert back == t
        assert back.provenance.startswith("loaded(")
        prov = oracles.read_provenance(path)
        assert "seed=0" in prov

    def test_header_layout(self, tmp_path):
        t = Table(1, 1, np.array([0, 1, 1, 0], dtype=np.uint32))
        path = tmp_path / "t.ktb"
        write_table(t, path)
        data = path.read_bytes()
        # magic, version, n, m, then 4 cells * 1 bit packed LSB-first
        assert data[:7] == b"KXTB\x01\x01\x01"
        assert data[7] == 0b0110
        assert len(data) == 8

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ktb"
        path.write_bytes(b"XXXX\x01\x01\x01\x00")
        with pytest.raises(ParameterError):
            read_table(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "short.ktb"
        path.write_bytes(b"KXTB\x01\x02\x01")
        with pytest.raises(ParameterError):
            read_table(path)

    @pytest.mark.parametrize("header", [b"KXTB", b"KXTB\x01\x02"])
    def test_truncated_header_is_decode_error(self, tmp_path, header):
        path = tmp_path / "short.ktb"
        path.write_bytes(header)
        with pytest.raises(DecodeError) as info:
            read_table(path)
        assert info.value.position == len(header)

    @pytest.mark.parametrize(
        "data,position",
        [
            (b"KXTB\x01\x01\x28" + bytes(20), 6),  # m=40: cells are uint32
            (b"KXTB\x01\x01\x28" + b"\xff" * 20, 6),
            (b"KXTB\x01\x0d\x01", 5),  # n=13, above DENSE_LIMIT_N
            (b"KXTB\x01\x01\x01\xf0", 7),  # 4 cells of 1 bit, 4 padding bits set
            (b"KXTB\x01\x01\x03\x00\x80", 8),
        ],
    )
    def test_strict_header_is_decode_error(self, tmp_path, data, position):
        path = tmp_path / "bad.ktb"
        path.write_bytes(data)
        with pytest.raises(DecodeError) as info:
            read_table(path)
        assert info.value.position == position

    def test_zero_padding_and_widest_colors_read_back(self, tmp_path):
        path = tmp_path / "ok.ktb"
        path.write_bytes(b"KXTB\x01\x01\x01\x0f")
        assert read_table(path) == Table.constant(1, 1, 1)
        t = random_table(1, 31, 3)
        write_table(t, path)
        assert read_table(path) == t

    def _check_against_loops(self, tmp_path, t):
        path = tmp_path / "t.ktb"
        write_table(t, path)
        count = t.N * t.N
        body = oracles.pack_cells(t.cells.ravel(), t.m, count)
        assert path.read_bytes() == b"KXTB\x01" + bytes([t.n, t.m]) + body
        back = read_table(path)
        assert np.array_equal(back.cells.ravel(), oracles.unpack_cells(body, t.m, count))
        assert back == t

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_width_matches_bit_loops(self, tmp_path, n):
        # random cells, then the widest color, for every m the format allows
        for m in range(1, btable.MAX_M + 1):
            self._check_against_loops(tmp_path, random_table(n, m, 31 * n + m))
            self._check_against_loops(tmp_path, Table.constant(n, m, (1 << m) - 1))

    def test_n10_matches_bit_loops(self, tmp_path):
        self._check_against_loops(tmp_path, random_table(10, 3, 11))

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 6),
        m=st.integers(1, btable.MAX_M),
        seed=st.integers(0, 2**32 - 1),
        top=st.integers(0, btable.MAX_M),
    )
    def test_random_cells_match_bit_loops(self, n, m, seed, top):
        # colors drawn below 2^min(top, m), so high bits are often all zero
        rng = np.random.default_rng(seed)
        N = 1 << n
        cells = rng.integers(0, 1 << min(top, m), size=(N, N), dtype=np.uint64)
        with tempfile.TemporaryDirectory() as tmp:
            self._check_against_loops(Path(tmp), Table(n, m, cells.astype(np.uint32)))

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(0, 14),
        m=st.integers(0, 40),
        extra=st.integers(-3, 3),
        body=st.binary(max_size=64),
        head=st.sampled_from([b"KXTB\x01", b"KXTB\x02", b"KXTC\x01", b"KXTB"]),
    )
    def test_fuzz_read_decodes_or_raises_decode_error(self, n, m, extra, body, head):
        # bodies near the right length for small n, so padding and
        # length checks and successful reads are all reached
        size = max(((4**n) * m + 7) // 8 + extra if n <= 3 else len(body), 0)
        data = head + bytes([n, m]) + (body * (size // max(len(body), 1) + 1))[:size]
        with tempfile.TemporaryDirectory() as tmp:
            path, again = Path(tmp) / "fuzz.ktb", Path(tmp) / "again.ktb"
            for cut in (len(data), 6, 5):
                path.write_bytes(data[:cut])
                try:
                    t = read_table(path)
                except (DecodeError, ParameterError):
                    continue
                write_table(t, again)
                assert again.read_bytes() == data[:cut]

    @pytest.mark.parametrize("op", ["read", "write"])
    def test_io_memory_is_file_plus_cells_plus_blocks(self, tmp_path, op):
        t = random_table(10, 31, 5)
        path = tmp_path / "big.ktb"
        write_table(t, path)
        file_bytes = path.stat().st_size
        tracemalloc.start()
        try:
            if op == "read":
                back = read_table(path)
            else:
                write_table(t, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= file_bytes + t.cells.nbytes + 8 * 2**20
        if op == "read":
            assert back == t

    def test_missing_provenance_sidecar(self, tmp_path):
        t = Table.constant(1, 1, 0)
        path = tmp_path / "t.ktb"
        write_table(t, path)
        (tmp_path / "t.ktb.prov").unlink()
        assert oracles.read_provenance(path) is None
        assert read_table(path) == t
