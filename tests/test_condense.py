import itertools
import math
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from kextract import btable, condense, stats
from kextract.btable import DENSE_LIMIT_N, Table
from kextract.condense import (
    BalanceReport,
    apply_condenser,
    color_bound_fraction,
    min_entropy_deficit,
    standin_table,
    verify_balance,
)
from kextract.errors import KextractError, ParameterError, ResourceError
from kextract.gf2n import field_params, multiples, mul_bits
from kextract.schedule import CondenseSchedule


def random_table(n, m, seed):
    rng = np.random.default_rng(seed)
    N = 1 << n
    return Table(n, m, rng.integers(0, 1 << m, size=(N, N), dtype=np.uint32))


def cap_memory():
    """Cap a child's address space at 3 GiB, so that an array with 2^31
    entries fails fast with MemoryError instead of taking 16 GiB."""
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


# n=1, m=31: four distinct colors on the 2 x 2 grid, one of them 2^31 - 1
WIDE_COLOR_CHECKS = """
import numpy as np
from kextract.btable import Table
from kextract.condense import min_entropy_deficit, verify_balance
t = Table(1, 31, np.array([[0, 5], [2**31 - 1, 7]], np.uint32))
print(verify_balance(t, 1, 0.25, 2, None))
print(min_entropy_deficit(t, range(2), range(2)))
"""


def test_wide_colors_need_no_array_per_color():
    # every color of an m=31 table, and the deficit on all of it, under a
    # 3 GiB cap: a 2^31-entry color set, indicator list or count array
    # would raise MemoryError
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", WIDE_COLOR_CHECKS], capture_output=True, text=True,
        timeout=60, env=env, preexec_fn=cap_memory,
    )
    assert proc.returncode == 0, proc.stderr
    # R = 2 and the bound (1 * 2^(2^2) + 1/4) * 4 = 65 on 4 cells of A
    assert proc.stdout.splitlines() == [str(BalanceReport(True, 4 / 65, None)), "29.0"]


class TestCondenseSchedule:
    def test_reference_point(self):
        sched = CondenseSchedule(n=256, delta=0.5, alpha=16, c=2)
        assert sched.epsilon == Fraction(1, 8 * 256**10 * 16)
        log_inv = math.log2(8 * 256**10 * 16)
        assert log_inv == 87.0
        assert sched.t == 16 + 10 * 8 + math.ceil((0.25 * 87) ** 2) + 3

    def test_epsilon_exactness(self):
        sched = CondenseSchedule(n=3, delta=1.0, alpha=2, c=1)
        assert sched.epsilon == Fraction(1, 8 * 3**10 * 2)

    def test_slack_past_float_range_is_parameter_error(self):
        with pytest.raises(ParameterError, match="float range"):
            CondenseSchedule(n=4, delta=0.5, alpha=2, c=400)

    def test_validation(self):
        with pytest.raises(ParameterError):
            CondenseSchedule(n=8, delta=0.5, alpha=0, c=2)
        with pytest.raises(ParameterError):
            CondenseSchedule(n=8, delta=1.5, alpha=1, c=2)
        with pytest.raises(ParameterError):
            CondenseSchedule(n=0, delta=0.5, alpha=1, c=2)


class TestVerifyBalance:
    def test_full_color_set_always_ok(self):
        t = random_table(3, 2, 0)
        rep = verify_balance(t, 2 / 3, 0.25, 1, range(4))
        assert rep.ok
        assert rep.worst_ratio <= 1.0

    def test_empty_color_set(self):
        t = random_table(3, 2, 1)
        rep = verify_balance(t, 2 / 3, 0.25, 1, [])
        assert rep.ok and rep.worst_ratio == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_naive_oracle(self, seed):
        t = random_table(3, 2, seed)
        cells = t.cells.tolist()
        delta, epsilon, c = 2 / 3, 1 / 4, 1
        R = math.ceil(2.0 ** (delta * 3))
        for A in ([0], [1, 3], [0, 2, 3]):
            rep = verify_balance(t, delta, epsilon, c, A)
            ok, worst_ratio, _ = oracles.naive_balance(
                cells, A, R, t.M, delta, epsilon, c
            )
            assert rep.ok == ok
            assert rep.worst_ratio == pytest.approx(worst_ratio, rel=1e-9)

    def test_violation_reports_witness(self):
        # one color everywhere with a sub-1 bound fraction: every
        # rectangle violates
        t = Table.constant(3, 2, 2)
        rep = verify_balance(t, 1 / 3, 1 / 2, 1, [2])
        assert not rep.ok
        B1, B2 = rep.witness
        count = sum(1 for x in B1 for y in B2 if t.cells[x, y] == 2)
        bound = color_bound_fraction(1, 4, 1 / 3, 1 / 2, 1) * len(B1) * len(B2)
        assert count > bound
        assert rep.worst_ratio > 1.0

    def test_sampled_mode(self):
        t = Table.constant(3, 2, 2)
        rep = verify_balance(t, 1 / 3, 1 / 2, 1, [2], "sampled", trials=20, seed=3)
        assert not rep.ok

    def test_bad_color_rejected(self):
        with pytest.raises(ParameterError):
            verify_balance(random_table(2, 1, 0), 0.5, 0.5, 1, [2])

    @pytest.mark.parametrize("colors,shown", [([1.5], "float 1.5"), ([0, True], "bool True"), (["1"], "str '1'")])
    def test_colors_must_be_ints(self, colors, shown):
        # checked before the set, where True and 1.5 would count color 1
        with pytest.raises(ParameterError, match=f"color must be an int, got {shown}"):
            verify_balance(random_table(2, 1, 0), 0.5, 0.5, 1, colors)

    def test_colors_take_numpy_integers(self):
        t = random_table(3, 2, 0)
        got = verify_balance(t, 2 / 3, 0.25, 1, [np.int64(1), np.uint8(3)])
        assert got == verify_balance(t, 2 / 3, 0.25, 1, [1, 3])

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_every_color_answers_from_its_bound(self, monkeypatch, mode):
        # every R x R rectangle holds R^2 cells of all M colors, and the
        # bound is at least R^2, so no grid is scanned; the budget still
        # refuses first
        t = random_table(4, 2, 3)
        want = verify_balance(t, 0.5, 0.25, 1, range(4), mode, trials=5, seed=1)
        bound = color_bound_fraction(4, 4, 0.5, 0.25, 1) * 16

        def scanned(*args):
            raise AssertionError("scanned a grid")

        monkeypatch.setattr(condense, "richest_rectangle", scanned)
        got = verify_balance(t, 0.5, 0.25, 1, None, mode, trials=5, seed=1)
        assert got == want == BalanceReport(True, 16 / bound)
        with pytest.raises(ResourceError, match="over budget 1"):
            verify_balance(t, 0.5, 0.25, 1, None, budget=1)

    def test_threshold_side_too_large(self):
        with pytest.raises(ParameterError):
            verify_balance(random_table(2, 1, 0), 1.5, 0.5, 1, [0])

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    @pytest.mark.parametrize(
        "delta,epsilon,c",
        [(math.nan, 0.25, 1), (0.0, 0.25, 1), (1.5, 0.25, 1), (0.5, math.nan, 1),
         (0.5, 0.0, 1), (0.5, 1.0, 1), (0.5, 0.25, 0), (0.5, 0.25, -1), (0.5, 0.25, math.nan)],
    )
    def test_parameters_range_checked(self, mode, delta, epsilon, c):
        # NaN fails each of the range tests
        t = standin_table(4, 2)
        with pytest.raises(ParameterError, match="must be"):
            verify_balance(t, delta, epsilon, c, [0], mode, trials=5, seed=1)

    @pytest.mark.parametrize("trials,seed", [(0, 1), (-5, 1), (5, -1)])
    def test_sampled_needs_trials_and_seed_in_range(self, trials, seed):
        t = standin_table(4, 2)
        with pytest.raises(ParameterError):
            verify_balance(t, 0.5, 0.25, 1, [0], "sampled", trials=trials, seed=seed)
        with pytest.raises(ParameterError):  # an infinite bound, so nothing is sampled
            verify_balance(t, 1, 0.001, 4, range(4), "sampled", trials=trials, seed=seed)

    @pytest.mark.parametrize("trials,shown", [(2.5, "float 2.5"), ("3", "str '3'"), (True, "bool True")])
    def test_sampled_refuses_trials_that_are_not_an_int(self, trials, shown):
        t = standin_table(4, 2)
        with pytest.raises(ParameterError, match=f"trials must be an int, got {shown}"):
            verify_balance(t, 0.5, 0.25, 1, [0], "sampled", trials=trials, seed=1)

    def test_sampled_takes_numpy_integer_trials(self):
        t = standin_table(4, 2)
        got = verify_balance(t, 0.5, 0.25, 1, [0], "sampled", trials=np.int64(5), seed=1)
        assert got == verify_balance(t, 0.5, 0.25, 1, [0], "sampled", trials=5, seed=1)

    def test_budget(self):
        with pytest.raises(ResourceError):
            verify_balance(random_table(3, 1, 0), 2 / 3, 0.5, 1, [0], budget=3)

    def test_over_budget_refused_before_the_indicator(self, monkeypatch):
        # the ceiling only ends a scan early, so a refused run builds
        # neither the indicator grid nor the ceiling
        def built(*args):
            raise AssertionError("built before the budget check")

        monkeypatch.setattr(np, "isin", built)
        monkeypatch.setattr(btable, "_marginal_bound", built)
        with pytest.raises(ResourceError, match=r"^colored-balance verification needs \d+ subset pairs, over budget 10 "):
            verify_balance(standin_table(12, 2), 0.5, 0.25, 1, [0], budget=10)

    @settings(max_examples=15)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size_A=st.integers(1, 3),
        density=st.sampled_from([0.3, 0.5, 0.7]),
        delta=st.sampled_from([0.5, 0.6, 0.7, 0.75]),
        epsilon=st.sampled_from([0.25, 0.5]),
    )
    def test_same_report_as_row_subset_loop(
        self, seed, size_A, density, delta, epsilon
    ):
        # N = 16 and R in {4, 6, 7, 8}: 1820-12870 row subsets; A-colored
        # cells at the given density make both passing and failing tables
        rng = np.random.default_rng(seed)
        in_A = rng.random((16, 16)) < density
        cells = np.where(
            in_A, rng.integers(0, size_A, (16, 16)), rng.integers(size_A, 4, (16, 16))
        )
        t = Table(4, 2, cells.astype(np.uint32))
        A = list(range(size_A))
        R = math.ceil(2.0 ** (delta * 4))
        bound = color_bound_fraction(size_A, 4, delta, epsilon, 1) * R * R
        rep = verify_balance(t, delta, epsilon, 1, A)
        want = oracles.lex_balance_scan(t.cells, A, R, bound)
        assert (rep.ok, rep.worst_ratio, rep.witness) == want

    @settings(max_examples=15)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size_A=st.integers(0, 3),
        density=st.sampled_from([0.3, 0.5, 0.7]),
        delta=st.sampled_from([0.25, 0.5, 0.75]),
        epsilon=st.sampled_from([0.25, 0.5]),
    )
    def test_sampled_same_report_as_reference(
        self, seed, size_A, density, delta, epsilon
    ):
        rng = np.random.default_rng(seed)
        in_A = rng.random((16, 16)) < density
        in_colors = rng.integers(0, max(size_A, 1), (16, 16))
        cells = np.where(in_A, in_colors, rng.integers(size_A, 4, (16, 16)))
        t = Table(4, 2, cells.astype(np.uint32))
        A = list(range(size_A))
        R = math.ceil(2.0 ** (delta * 4))
        bound = color_bound_fraction(size_A, 4, delta, epsilon, 1) * R * R
        rep = verify_balance(t, delta, epsilon, 1, A, "sampled", trials=40, seed=seed)
        want = oracles.sampled_balance(t.cells, A, R, bound, 40, seed)
        assert (rep.ok, rep.worst_ratio, rep.witness) == want

    def test_overflowing_bound_is_trivially_met(self):
        assert color_bound_fraction(1, 4, 1, 0.001, 4) == math.inf
        assert color_bound_fraction(0, 4, 1, 0.001, 4) == 0.001
        rep = verify_balance(Table.constant(2, 2, 1), 1, 0.001, 4, range(4))
        assert rep.ok and rep.worst_ratio == 0.0

    def test_infinite_bound_needs_no_budget(self):
        # C(32, 4)^2 subset pairs would be over any of these budgets
        t = standin_table(5, 2)
        for mode in ("exhaustive", "sampled"):
            for budget in (None, 0):
                rep = verify_balance(t, 0.4, 0.001, 6, range(4), mode, budget=budget)
                assert rep == BalanceReport(True, 0.0, None)
        with pytest.raises(ParameterError):
            verify_balance(t, 0.4, 0.001, 6, range(4), "fast")

    @settings(max_examples=40)
    @given(
        n=st.integers(1, 4),
        m=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        delta=st.sampled_from([0.25, 0.5, 0.75, 1.0]),
        epsilon=st.sampled_from([0.01, 0.25, 0.5]),
        c=st.integers(1, 3),
        mode=st.sampled_from(["exhaustive", "sampled"]),
        trials=st.integers(1, 30),
        budget=st.sampled_from([None, 1, 30, 5000]),
    )
    def test_every_color_by_default(self, n, m, seed, delta, epsilon, c, mode, trials, budget):
        # colors None runs as the explicit range(M), refusals included
        t = random_table(n, m, seed)

        def report(colors):
            try:
                return verify_balance(t, delta, epsilon, c, colors, mode,
                                      trials=trials, seed=seed, budget=budget)
            except KextractError as exc:
                return type(exc), str(exc)

        assert report(None) == report(range(t.M))

    def test_bound_monotone_in_color_set_size(self):
        values = [
            color_bound_fraction(size, 8, 0.5, 0.1, 2) for size in range(9)
        ]
        assert values == sorted(values)


class TestStandinTable:
    def test_zero_row(self):
        t = standin_table(3, 2)
        assert all(t.lookup(0, y) == 0 for y in range(8))

    def test_identity_row_truncates(self):
        t = standin_table(3, 2)
        assert all(t.lookup(1, y) == (y & 3) for y in range(8))

    def test_matches_field_multiplication(self):
        for n in range(1, 9):
            modulus = field_params(n).modulus
            N = 1 << n
            want = np.array(
                [[oracles.gf_mul(x, y, modulus) for y in range(N)] for x in range(N)]
            )
            for m in sorted({1, (n + 1) // 2, n}):
                t = standin_table(n, m)
                assert np.array_equal(t.cells, want & ((1 << m) - 1)), (n, m)

    def test_matches_the_multiples_basis(self):
        # row 2^a as gf2n.multiples(2^a), then rows 2^a + k as row 2^a XOR
        # row k: the construction the numpy doubling replaced
        for n in range(1, DENSE_LIMIT_N + 1):
            params = field_params(n)
            N = 1 << n
            want = np.zeros((N, N), dtype=np.uint32)
            for a in range(n):
                row = 1 << a
                want[row] = multiples(row, N, params)
                np.bitwise_xor(want[1:row], want[row], out=want[row + 1:2 * row])
            assert np.array_equal(standin_table(n, n).cells, want), n
            want &= 1
            assert np.array_equal(standin_table(n, 1).cells, want), n

    def test_sampled_cells_at_dense_limit(self):
        t = standin_table(DENSE_LIMIT_N, 7)
        modulus = field_params(DENSE_LIMIT_N).modulus
        rng = np.random.default_rng(12)
        for x, y in rng.integers(0, t.N, size=(500, 2)).tolist():
            assert t.lookup(x, y) == oracles.gf_mul(x, y, modulus) & 0x7F

    def test_lazy_agrees_with_dense(self):
        # the dense cells, built by bilinearity, equal the per-cell product
        # that the function-backed stand-in used to compute
        params = field_params(4)
        dense = standin_table(4, 3)
        for x in range(16):
            for y in range(16):
                assert dense.lookup(x, y) == mul_bits(x, y, params) & 0b111

    def test_large_n_is_lazy(self):
        # no cells are allocated at n=40: the size check refuses first,
        # and the one cell a caller needs is still a single mul_bits
        with pytest.raises(ResourceError, match="dense-table limit"):
            standin_table(40, 8)
        assert mul_bits(1, 0xABCDEF, field_params(40)) & 0xFF == 0xABCDEF & 0xFF

    def test_dense_limit(self):
        # the stand-in is a dense Table, so past the limit it is refused
        # before any cells are allocated
        assert isinstance(standin_table(DENSE_LIMIT_N, 2), Table)
        with pytest.raises(ResourceError, match="dense-table limit"):
            standin_table(DENSE_LIMIT_N + 1, 5)

    def test_m_range(self):
        with pytest.raises(ParameterError):
            standin_table(3, 4)

    def test_standin_color_function(self):
        assert standin_table(3, 2).lookup(1, 0b101) == 0b01


class TestApplyCondenser:
    def test_is_table_lookup(self):
        t = standin_table(3, 2)
        sched = CondenseSchedule(n=3, delta=0.5, alpha=1, c=1)
        for x, y in itertools.product(range(8), repeat=2):
            res = apply_condenser(x, y, t, sched)
            assert res.z == t.lookup(x, y)

    def test_claimed_floor(self):
        t = standin_table(3, 2)
        sched = CondenseSchedule(n=3, delta=0.5, alpha=1, c=1)
        res = apply_condenser(1, 2, t, sched)
        assert res.claimed_floor == t.m - sched.t

    def test_deterministic(self):
        t = standin_table(4, 2)
        sched = CondenseSchedule(n=4, delta=0.5, alpha=1, c=1)
        assert apply_condenser(7, 9, t, sched) == apply_condenser(7, 9, t, sched)

    def test_length_mismatch(self):
        t = standin_table(3, 2)
        sched = CondenseSchedule(n=4, delta=0.5, alpha=1, c=1)
        with pytest.raises(ParameterError):
            apply_condenser(0, 0, t, sched)


class TestMinEntropyDeficit:
    def test_constant_table_loses_everything(self):
        t = Table.constant(3, 2, 1)
        assert min_entropy_deficit(t, range(8), range(8)) == 2.0

    def test_bijective_row_has_no_deficit(self):
        t = standin_table(3, 3)
        assert min_entropy_deficit(t, [1], range(8)) == 0.0

    def test_nonzero_rectangle_exact_value(self):
        t = standin_table(3, 2)
        rows = cols = list(range(1, 8))
        # independent enumeration of the output distribution
        counts = {}
        for x in rows:
            for y in cols:
                v = t.lookup(x, y)
                counts[v] = counts.get(v, 0) + 1
        dist = stats.Dist(2, list(counts), list(counts.values()))
        expected = 2 - stats.min_entropy(dist)
        assert min_entropy_deficit(t, rows, cols) == expected

    def test_empty_subset_rejected(self):
        t = standin_table(2, 1)
        with pytest.raises(ParameterError):
            min_entropy_deficit(t, [], range(4))

    def test_out_of_range_rejected(self):
        t = standin_table(2, 1)
        with pytest.raises(ParameterError):
            min_entropy_deficit(t, [4], range(4))

    @pytest.mark.parametrize(
        "rows,cols,shown", [([1.5], range(4), "float 1.5"), (["1"], range(4), "str '1'"), ([1], [0, True], "bool True")]
    )
    def test_indices_must_be_ints(self, rows, cols, shown):
        t = standin_table(2, 1)
        with pytest.raises(ParameterError, match=f"index must be an int, got {shown}"):
            min_entropy_deficit(t, rows, cols)

    def test_indices_take_numpy_integers(self):
        t = standin_table(3, 2)
        got = min_entropy_deficit(t, np.arange(1, 5), [np.uint8(2), np.int64(7)])
        assert got == min_entropy_deficit(t, [1, 2, 3, 4], [2, 7])

    @pytest.mark.parametrize("seed", range(4))
    def test_deficit_bounds_singleton_probabilities(self, seed):
        # a deficit of d means no output exceeds probability 2^-(m-d)
        rng = np.random.default_rng(seed + 100)
        t = random_table(3, 2, seed)
        rows = sorted(rng.choice(8, size=5, replace=False).tolist())
        cols = sorted(rng.choice(8, size=4, replace=False).tolist())
        d = min_entropy_deficit(t, rows, cols)
        total = len(rows) * len(cols)
        counts = {}
        for x in rows:
            for y in cols:
                v = t.lookup(x, y)
                counts[v] = counts.get(v, 0) + 1
        max_p = Fraction(max(counts.values()), total)
        assert t.m - d == pytest.approx(
            math.log2(max_p.denominator) - math.log2(max_p.numerator), abs=1e-12
        )
        for c in counts.values():
            assert Fraction(c, total) <= max_p

    def test_cross_check_with_pushforward(self):
        # full-grid deficit equals m minus the pushforward min-entropy
        t = standin_table(3, 2)
        d = stats.pushforward(lambda x, y: t.lookup(x, y), 3, 2)
        assert min_entropy_deficit(t, range(8), range(8)) == 2 - stats.min_entropy(d)
