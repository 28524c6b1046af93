"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with:  pytest tests/test_acceptance.py -v -s

Criteria with a stated runtime limit enforce it; every tolerance is
pinned here, none are calibrated elsewhere.
"""

import functools
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import oracles
from fixtures_backends import FIXTURES
from kextract import btable, condense, kproxy, stats
from kextract.cli import main as cli_main
from kextract.errors import ParameterError
from kextract.extend import ExtendRequest, extend
from kextract.gf2n import field_params, inverse_bits, mul_bits


def criterion(num, name, limit_seconds=None):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
                elapsed = time.monotonic() - start
                if limit_seconds is not None and elapsed > limit_seconds:
                    raise AssertionError(
                        f"runtime {elapsed:.1f}s exceeds {limit_seconds}s"
                    )
            except BaseException:
                print(f"acceptance {num:02d} FAIL {name}")
                raise
            print(f"acceptance {num:02d} PASS {name} ({elapsed:.2f}s)")

        return wrapper

    return decorate


# -- 1: field correctness ----------------------------------------------------


@criterion(1, "field axioms and oracle agreement", limit_seconds=10)
def test_field_correctness():
    for n in (1, 2, 3, 4):
        params = field_params(n)
        order = params.order
        for a in range(order):
            for b in range(order):
                assert mul_bits(a, b, params) == oracles.gf_mul(
                    a, b, params.modulus
                )
        for a, b, c in itertools.product(range(order), repeat=3):
            ab = mul_bits(a, b, params)
            assert ab == mul_bits(b, a, params)
            assert mul_bits(ab, c, params) == mul_bits(
                a, mul_bits(b, c, params), params
            )
            assert mul_bits(a, b ^ c, params) == (
                mul_bits(a, b, params) ^ mul_bits(a, c, params)
            )
        for a in range(1, order):
            assert mul_bits(a, inverse_bits(a, params), params) == 1

    rng = random.Random(20260810)
    for n in (8, 16, 32, 64):
        params = field_params(n)
        mask = params.order - 1
        for _ in range(10**4):
            a = rng.getrandbits(n) & mask
            b = rng.getrandbits(n) & mask
            c = rng.getrandbits(n) & mask
            ab = mul_bits(a, b, params)
            assert ab == mul_bits(b, a, params)
            assert mul_bits(ab, c, params) == mul_bits(
                a, mul_bits(b, c, params), params
            )
            assert mul_bits(a, b ^ c, params) == (
                mul_bits(a, b, params) ^ mul_bits(a, c, params)
            )
            if a:
                assert mul_bits(a, inverse_bits(a, params), params) == 1


# -- 2: pair maps are bijections with exactly uniform pushforwards -----------


@criterion(2, "pairwise bijectivity and exact pair uniformity", limit_seconds=30)
def test_pair_map_bijectivity_and_uniformity():
    for n in (2, 3, 4):
        params = field_params(n)
        N = params.order
        top = min(15, N - 1)
        uniform = stats.Dist.uniform(2 * n)
        outputs = {}
        for idx in range(1, top + 1):
            outputs[idx] = [
                [x1 ^ mul_bits(idx, x2, params) for x2 in range(N)]
                for x1 in range(N)
            ]
        for i, j in itertools.permutations(range(1, top + 1), 2):
            zi, zj = outputs[i], outputs[j]
            seen = {
                (zi[x1][x2], zj[x1][x2])
                for x1 in range(N)
                for x2 in range(N)
            }
            assert len(seen) == N * N, f"collision at n={n}, pair ({i},{j})"
            dist = stats.pushforward(
                lambda x1, x2, zi=zi, zj=zj: (zi[x1][x2] << n) | zj[x1][x2],
                n,
                2 * n,
            )
            assert dist == uniform, f"nonuniform pair map at n={n}, ({i},{j})"


# -- 3: first output degenerates to XOR ---------------------------------------


@criterion(3, "index-1 output equals XOR at n=64")
def test_xor_degenerate_case():
    params = field_params(64)
    rng = random.Random(64)
    for _ in range(10**3):
        x1 = rng.getrandbits(64)
        x2 = rng.getrandbits(64)
        out = extend(ExtendRequest(x1, x2, 1, params))
        assert out.outputs[0] == x1 ^ x2


# -- 4: pairing codec ----------------------------------------------------------


@criterion(4, "pairing codec length formula and round trip")
def test_concat_codec():
    rng = random.Random(4)
    for la in range(1, 65):
        for lb in (0, 1, 17):
            a = "".join(rng.choice("01") for _ in range(la))
            b = "".join(rng.choice("01") for _ in range(lb))
            enc = kproxy.concat_encode(a, b)
            assert len(enc) == la + lb + 2 * math.floor(math.log2(la)) + 4
            assert oracles.concat_decode(enc) == (a, b)
    for la in range(1, 9):
        for av in range(1 << la):
            a = format(av, f"0{la}b")
            for lb in range(0, 5):
                for bv in range(1 << lb):
                    b = format(bv, f"0{lb}b") if lb else ""
                    assert oracles.concat_decode(kproxy.concat_encode(a, b)) == (a, b)


# -- 5: table verifier soundness ----------------------------------------------


@criterion(5, "table verifier agrees with the naive oracle", limit_seconds=300)
def test_table_verifier_soundness():
    spec = btable.BalanceSpec(S=4, shift_bound=2)
    corpus = [(1, seed) for seed in range(25)] + [(2, seed) for seed in range(25)]
    for m, seed in corpus:
        rng = np.random.default_rng([5, m, seed])
        table = btable.Table(
            3, m, rng.integers(0, 1 << m, size=(8, 8), dtype=np.uint32)
        )
        cells = table.cells.tolist()
        M = table.M

        r1 = btable.verify_color_bound(table, spec)
        ok1, _, _ = oracles.naive_color_verdict(cells, 4, M)
        assert r1.ok == ok1, f"single-color verdict mismatch m={m} seed={seed}"
        if not r1.ok:
            B1, B2, a = r1.witness
            assert oracles.color_count(cells, B1, B2, a) * M > 2 * 16

        r2 = btable.verify_shift_pair_bound(table, spec)
        ok2, _, _ = oracles.naive_shift_pair_verdict(cells, 4, M, 2)
        assert r2.ok == ok2, f"shifted-pair verdict mismatch m={m} seed={seed}"
        if not r2.ok:
            B1, B2, a, b, i, j = r2.witness
            count = oracles.shift_pair_count(cells, B1, B2, a, b, i, j)
            assert count == r2.count and count * M * M > 2 * 16

        # averaging sufficiency: size-exactly-S equals all-sizes->=S
        assert r1.ok == oracles.allsizes_color_ok(cells, 4, M)
        assert r2.ok == oracles.allsizes_shift_pair_ok(cells, 4, M, 2)

    # a passing table exercises the oracle's full, non-short-circuit path
    passing = btable.search_table(3, 1, spec, "random", trials=10**4, seed=2026)
    assert isinstance(passing, btable.Table)
    cells = passing.cells.tolist()
    assert oracles.naive_color_verdict(cells, 4, 2)[0]
    assert oracles.naive_shift_pair_verdict(cells, 4, 2, 2)[0]
    assert oracles.allsizes_color_ok(cells, 4, 2)
    assert oracles.allsizes_shift_pair_ok(cells, 4, 2, 2)


# -- 6: search viability --------------------------------------------------------


@criterion(6, "random search finds a verified table reproducibly")
def test_search_viability():
    spec = btable.BalanceSpec(S=4, shift_bound=2)
    first = btable.search_table(3, 1, spec, "random", trials=10**4, seed=2026)
    assert isinstance(first, btable.Table), str(first)
    r1 = btable.verify_color_bound(first, spec)
    r2 = btable.verify_shift_pair_bound(first, spec)
    assert r1.ok and r2.ok
    again = btable.search_table(3, 1, spec, "random", trials=10**4, seed=2026)
    assert isinstance(again, btable.Table)
    assert first == again
    assert first.provenance == again.provenance
    assert "seed=2026" in first.provenance


# -- 7: existence-bound calculator ---------------------------------------------

# (N, M, S, n, k, lhs, rhs, holds, log_p1, log_p2), hand-evaluated with
# plain floating point from the printed formulas
FROZEN_BOUND_POINTS = [
    (1024, 2, 128, 10, 1,
     16384.0, 12607.62422443903, True, -1941.6364848160683, -571.0048341161875),
    (4096, 4, 512, 12, 1,
     262144.0, 200865.8038243607, True, -18690.59890029206, -2300.2427926313653),
    (65536, 2, 512, 16, 2,
     262144.0, 84351.14990787848, True, -37697.49452923242, -15840.377693829567),
    (65536, 8, 4096, 16, 1,
     16777216.0, 7508288.914862294, True, -668143.5404125367, -56466.58246021719),
    (1048576, 2, 2048, 20, 1,
     4194304.0, 405022.3473106739, True, -669401.7958553242, -319869.7779102632),
    (1048576, 16, 32768, 20, 3,
     1073741824.0, 275116197.2031332, True, -22076952.092618726, -1105411.3456363645),
    (16777216, 4, 8192, 24, 2,
     67108864.0, 7569833.086988069, True, -5451098.189569736, -1256780.091060054),
    (268435456, 32, 1024, 28, 1,
     1048576.0, 91113393.58950904, False, 16680.976733397958, 27272.44021165444),
    (1073741824, 2, 32, 30, 1,
     1024.0, 14946.37237007756, False, 1003.0619694098058, 1095.8908446870234),
    (4294967296, 64, 65536, 32, 2,
     4294967296.0, 21083726043.123856, False, -20784910.178444598, 1235203.843382095),
]


@criterion(7, "existence-bound calculator matches hand evaluation")
def test_existence_bound_calculator():
    for N, M, S, n, k, lhs, rhs, holds, log_p1, log_p2 in FROZEN_BOUND_POINTS:
        got = btable.check_existence_bound(N, M, S, n, k)
        assert float(got.lhs) == pytest.approx(lhs, rel=1e-9)
        assert float(got.rhs) == pytest.approx(rhs, rel=1e-9)
        assert got.holds == holds
        p1, p2 = btable.failure_prob_bounds(N, M, S, n, k)
        assert float(p1) == pytest.approx(log_p1, rel=1e-9)
        assert float(p2) == pytest.approx(log_p2, rel=1e-9)
        if holds:
            assert p1 < -1 and p2 < -1
    # sweep: holds=true forces both exponents below -1
    for n in (8, 12, 16, 20, 24):
        N = 1 << n
        for m in (1, 2, 4, 6):
            M = 1 << m
            for sexp in range(1, n + 1):
                S = 1 << sexp
                if btable.check_existence_bound(N, M, S, n, 1).holds:
                    p1, p2 = btable.failure_prob_bounds(N, M, S, n, 1)
                    assert p1 < -1 and p2 < -1


# -- 8: colored-balance verifier -------------------------------------------------


@criterion(8, "colored-balance verifier and deficit cross-check")
def test_color_balance_verifier():
    delta, epsilon, c = 2 / 3, 1 / 4, 1
    R = math.ceil(2.0 ** (delta * 3))
    for seed in range(50):
        rng = np.random.default_rng([8, seed])
        table = btable.Table(
            3, 2, rng.integers(0, 4, size=(8, 8), dtype=np.uint32)
        )
        cells = table.cells.tolist()
        color_sets = ([seed % 4], [0, 2], [1, 2, 3])
        for A in color_sets:
            rep = condense.verify_balance(table, delta, epsilon, c, A)
            ok, worst_ratio, worst_count = oracles.naive_balance(
                cells, A, R, 4, delta, epsilon, c
            )
            assert rep.ok == ok, f"balance verdict mismatch seed={seed} A={A}"
            assert rep.worst_ratio == pytest.approx(worst_ratio, rel=1e-9)
        # cross-check: full-grid deficit equals m minus pushforward min-entropy
        deficit = condense.min_entropy_deficit(table, range(8), range(8))
        dist = stats.pushforward(lambda x, y: cells[x][y], 3, 2)
        assert deficit == 2 - stats.min_entropy(dist)


# -- 9: parameter schedules ------------------------------------------------------


@criterion(9, "parameter schedules reproduce the stated formulas")
def test_parameter_schedules():
    table_grid = [
        (256, 1, 200, 0), (256, 1, 256, 5), (256, 2, 256, 1),
        (1024, 1, 400, 3), (1024, 1, 1024, 12), (1024, 2, 800, 0),
        (1024, 3, 1000, 7), (4096, 1, 512, 2), (4096, 2, 2048, 9),
        (4096, 4, 4096, 1),
    ]
    assert len(table_grid) == 10
    for n, k, s, alpha in table_grid:
        log_n = math.ceil(math.log2(n))
        assert (6 * k + 15) * log_n < s <= n
        sched = btable.derive_table_schedule(n, k, s, alpha)
        assert sched.m == s // 3 - (2 * k + 5) * log_n
        assert sched.m >= 1
        assert sched.S == 2 ** math.ceil(2 * s / 3)
        assert sched.t == alpha + 7 * log_n

    condenser_grid = [
        (64, 0.25, 1, 1), (64, 0.5, 16, 2), (256, 0.5, 16, 2),
        (256, 1.0, 100, 1), (1024, 0.25, 4, 2), (1024, 0.5, 1, 1),
        (1024, 1.0, 50, 2), (4096, 0.25, 16, 1), (4096, 0.5, 7, 2),
        (4096, 0.75, 3, 2),
    ]
    assert len(condenser_grid) == 10
    for n, delta, alpha, c in condenser_grid:
        sched = condense.CondenseSchedule(n=n, delta=delta, alpha=alpha, c=c)
        assert sched.epsilon == Fraction(1, 8 * n**10 * alpha)
        log_inv_eps = math.log2(8 * n**10 * alpha)
        expected_t = (
            alpha
            + 10 * math.ceil(math.log2(n))
            + math.ceil(((delta / 2) * log_inv_eps) ** c)
            + 3
        )
        assert sched.t == expected_t

    # every hypothesis-violating point is rejected, boundary included
    for n, k in ((256, 1), (1024, 1), (1024, 2), (4096, 3)):
        log_n = math.ceil(math.log2(n))
        boundary = (6 * k + 15) * log_n
        for bad_s in (boundary, boundary - 1, n + 1):
            with pytest.raises(ParameterError):
                btable.derive_table_schedule(n, k, bad_s, 0)
    # hypothesis holds but the derived length collapses
    with pytest.raises(ParameterError):
        btable.derive_table_schedule(1024, 1, 211, 0)
    for bad in (
        dict(n=0, k=1, s=10, alpha=0),
        dict(n=256, k=0, s=200, alpha=0),
        dict(n=256, k=1, s=200, alpha=-1),
    ):
        with pytest.raises(ParameterError):
            btable.derive_table_schedule(bad["n"], bad["k"], bad["s"], bad["alpha"])
    for bad in (
        dict(n=8, delta=0.5, alpha=0, c=2),
        dict(n=8, delta=0.0, alpha=1, c=2),
        dict(n=8, delta=1.5, alpha=1, c=2),
        dict(n=8, delta=0.5, alpha=1, c=0),
        dict(n=0, delta=0.5, alpha=1, c=2),
    ):
        with pytest.raises(ParameterError):
            condense.CondenseSchedule(**bad)


# -- 10: dependency estimate fixtures --------------------------------------------


@criterion(10, "dependency fixtures on the shipped backend")
def test_dependency_fixtures():
    comp = kproxy.get_backend(kproxy.DEFAULT_BACKEND)
    size = 65536
    rng = np.random.default_rng(10)
    for trial in range(20):
        x = rng.bytes(size)
        y = rng.bytes(size)
        self_est = kproxy.dependency(x, x, comp, alpha=64.0)
        assert self_est.alpha_x >= 0.8 * self_est.kx
        assert self_est.alpha_y >= 0.8 * self_est.ky
        ind_est = kproxy.dependency(x, y, comp, alpha=0.05 * 8 * size)
        assert ind_est.alpha_x <= 0.05 * 8 * size
        assert ind_est.alpha_y <= 0.05 * 8 * size
        assert ind_est.verdict


# -- 11: CLI determinism and exit codes -------------------------------------------


@criterion(11, "CLI example matrix, determinism, exit codes")
def test_cli_matrix(capsys, tmp_path):
    def run(*argv):
        code = cli_main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    # extend
    code, out, _ = run("extend", "05", "03", "--count", "1")
    assert (code, out) == (0, "06\n")
    code, out, _ = run("extend", "05", "03", "--k", "1")
    assert code == 0 and len(out.splitlines()) == 8
    assert run("extend", "05", "0301", "--count", "1")[0] == 2

    # table: search determinism, verify verdicts, apply
    search_args = (
        "table", "search", "--n", "3", "--m", "1", "--S", "4",
        "--shift-bound", "2", "--trials", "10000", "--seed", "2026",
    )
    out_a, out_b = tmp_path / "a.ktb", tmp_path / "b.ktb"
    code_a, stdout_a, _ = run(*search_args, "--out", str(out_a))
    code_b, stdout_b, _ = run(*search_args, "--out", str(out_b))
    assert code_a == code_b == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert stdout_a.replace(str(out_a), "#") == stdout_b.replace(str(out_b), "#")

    code, out, _ = run(
        "table", "verify", "--table", str(out_a), "--S", "4", "--shift-bound", "2"
    )
    assert (code, out) == (0, "OK\n")

    const = btable.Table.constant(3, 2, 1)
    const_path = tmp_path / "const.ktb"
    btable.write_table(const, const_path)
    code, out, _ = run(
        "table", "verify", "--table", str(const_path), "--S", "4",
        "--shift-bound", "2",
    )
    assert code == 1 and out.startswith("VIOLATION")

    exh_args = (
        "table", "search", "--n", "1", "--m", "1", "--S", "2",
        "--shift-bound", "2", "--mode", "exhaustive",
    )
    exh_a, exh_b = tmp_path / "ea.ktb", tmp_path / "eb.ktb"
    assert run(*exh_args, "--out", str(exh_a))[0] == 0
    assert run(*exh_args, "--out", str(exh_b))[0] == 0
    assert exh_a.read_bytes() == exh_b.read_bytes()

    n4 = btable.Table(
        4, 2,
        np.random.default_rng(11).integers(0, 4, size=(16, 16), dtype=np.uint32),
    )
    n4_path = tmp_path / "n4.ktb"
    btable.write_table(n4, n4_path)
    code, out, _ = run(
        "table", "apply", "--table", str(n4_path), "a", "3", "--count", "1"
    )
    assert code == 0 and out == f"{n4.lookup(11, 3):01x}\n"

    # condense
    standin = condense.standin_table(4, 2)
    standin_path = tmp_path / "standin.ktb"
    btable.write_table(standin, standin_path)
    code, out, _ = run(
        "condense", "apply", "--table", str(standin_path), "7", "9",
        "--alpha", "2", "--delta", "0.5",
    )
    assert code == 0
    assert out.splitlines()[1].startswith("claimed_floor ")
    code, out, _ = run(
        "condense", "verify", "--table", str(standin_path), "--delta", "0.5",
        "--epsilon", "0.25", "--c", "1",
    )
    assert code == 0 and out.startswith("OK")
    const_m = tmp_path / "constm.ktb"
    btable.write_table(btable.Table.constant(3, 2, 3), const_m)
    code, out, _ = run("condense", "deficit", "--table", str(const_m))
    assert (code, out) == (0, "2\n")

    # estimate
    payload = tmp_path / "x.bin"
    payload.write_bytes(np.random.default_rng(12).bytes(8192))
    code, out, _ = run("estimate", "dep", str(payload), str(payload), "--alpha", "64")
    assert code == 1 and out.splitlines()[-1] == "DEPENDENT"
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    code, out, _ = run("estimate", "k", str(empty))
    assert code == 0 and out == f"k {FIXTURES['lzma']['empty_bits']}\n"
    assert run("estimate", "k", str(empty), "--backend", "zpaq")[0] == 2

    # dist
    dist_path = tmp_path / "pair.dist"
    code, out, _ = run(
        "dist", "push", "--map", "extend-pair", "--n", "2", "--i", "1",
        "--j", "2", "--out", str(dist_path),
    )
    assert code == 0
    code, out, _ = run("dist", "mindent", str(dist_path))
    assert (code, out) == (0, "4\n")
    code, out, _ = run("dist", "sd", str(dist_path), str(dist_path))
    assert (code, out) == (0, "0/1\n")
