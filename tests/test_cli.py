import argparse
import itertools
import os
import resource
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kextract import btable, condense, extend, schedule, stats
from kextract.cli import _pair_input, main
from kextract.errors import ParameterError
from kextract.gf2n import field_params, multiples


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def n4_table(tmp_path):
    rng = np.random.default_rng(77)
    t = btable.Table(4, 2, rng.integers(0, 4, size=(16, 16), dtype=np.uint32))
    path = tmp_path / "n4.ktb"
    btable.write_table(t, path)
    return str(path), t


@pytest.fixture
def constant_m4_table(tmp_path):
    t = btable.Table.constant(3, 2, 1)
    path = tmp_path / "const.ktb"
    btable.write_table(t, path)
    return str(path)


class TestExtendCommand:
    def test_single_output_is_xor(self, capsys):
        code, out, _ = run(capsys, "extend", "05", "03", "--count", "1")
        assert code == 0 and out == "06\n"

    def test_k_gives_n_to_the_k_lines(self, capsys):
        code, out, _ = run(capsys, "extend", "05", "03", "--k", "1")
        assert code == 0 and len(out.splitlines()) == 8

    def test_length_mismatch_exits_2(self, capsys):
        code, _, err = run(capsys, "extend", "05", "0301", "--count", "1")
        assert code == 2 and "length" in err

    def test_bad_hex_exits_2(self, capsys):
        code, _, err = run(capsys, "extend", "zz", "03", "--count", "1")
        assert code == 2

    @pytest.mark.parametrize("x1", ["0x05", "0_5", "+3", " 5", "A", ""])
    def test_only_lowercase_hex_digits_accepted(self, capsys, x1):
        code, out, err = run(capsys, "extend", x1, "03", "--count", "1")
        assert code == 2 and out == "" and "hex" in err

    def test_count_and_k_exclusive(self, capsys):
        code, _, _ = run(capsys, "extend", "05", "03", "--count", "1", "--k", "1")
        assert code == 2

    def test_missing_subcommand_exits_2(self, capsys):
        assert run(capsys, )[0] == 2


class TestTableCommands:
    def test_search_is_reproducible(self, capsys, tmp_path):
        args = [
            "table", "search", "--n", "3", "--m", "1", "--S", "4",
            "--shift-bound", "2", "--trials", "1000", "--seed", "2026",
        ]
        out_a = tmp_path / "a.ktb"
        out_b = tmp_path / "b.ktb"
        code_a, stdout_a, _ = run(capsys, *args, "--out", str(out_a))
        code_b, stdout_b, _ = run(capsys, *args, "--out", str(out_b))
        assert code_a == code_b == 0
        assert stdout_a.replace("a.ktb", "X") == stdout_b.replace("b.ktb", "X")
        assert out_a.read_bytes() == out_b.read_bytes()
        assert "seed 2026" in stdout_a
        prov = oracles.read_provenance(out_a)
        assert "seed=2026" in prov and "mode=random" in prov

    @pytest.mark.parametrize("seed,trials,trial", [(2026, 400, 332), (2**64 + 5, 300, 220)])
    def test_search_output_pinned(self, capsys, tmp_path, seed, trials, trial):
        # stdout and sidecar as recorded when each trial had its own
        # generator; the entropy [2^64 + 5, t] is four words, one past the
        # three of every seed below 2^64
        out = tmp_path / "t.ktb"
        code, stdout, _ = run(
            capsys, "table", "search", "--n", "3", "--m", "1", "--S", "4",
            "--shift-bound", "2", "--trials", str(trials), "--seed", str(seed),
            "--out", str(out),
        )
        prov = f"searched(seed={seed},trial={trial})"
        assert (code, stdout) == (0, f"seed {seed}\nwrote {out}\nprovenance {prov}\n")
        want = oracles.per_trial_search(3, 1, btable.BalanceSpec(4, 2), trials=trials, seed=seed)
        assert btable.read_table(out) == want and want.provenance == prov
        assert oracles.read_provenance(out) == (
            f"provenance={prov}\nmode=random\nseed={seed}\n"
            f"spec=BalanceSpec(S=4, shift_bound=2)\ntrials={trials}\n"
        )

    def test_search_failure_exits_1(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "table", "search", "--n", "2", "--m", "2", "--S", "1",
            "--shift-bound", "1", "--trials", "5", "--seed", "0",
            "--out", str(tmp_path / "x.ktb"),
        )
        assert code == 1 and "nearest miss" in out

    def test_exhaustive_search_deterministic_file(self, capsys, tmp_path):
        args = [
            "table", "search", "--n", "1", "--m", "1", "--S", "2",
            "--shift-bound", "2", "--mode", "exhaustive",
        ]
        out_a = tmp_path / "ea.ktb"
        out_b = tmp_path / "eb.ktb"
        assert run(capsys, *args, "--out", str(out_a))[0] == 0
        assert run(capsys, *args, "--out", str(out_b))[0] == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_exhaustive_search_hit_pinned(self, capsys, tmp_path):
        out = tmp_path / "e.ktb"
        code, stdout, _ = run(
            capsys, "table", "search", "--n", "1", "--m", "1", "--S", "2",
            "--shift-bound", "2", "--mode", "exhaustive", "--out", str(out),
        )
        assert (code, stdout) == (0, f"wrote {out}\nprovenance searched(exhaustive)\n")
        assert oracles.read_provenance(out) == (
            "provenance=searched(exhaustive)\nmode=exhaustive\n"
            "spec=BalanceSpec(S=2, shift_bound=2)\n"
        )

    def test_exhaustive_search_miss_pinned(self, capsys, tmp_path):
        out = tmp_path / "e.ktb"
        code, stdout, _ = run(
            capsys, "table", "search", "--n", "1", "--m", "2", "--S", "2",
            "--shift-bound", "2", "--mode", "exhaustive", "--out", str(out),
        )
        assert (code, stdout) == (1, "no balanced table among all 256 candidates\n")
        assert not out.exists()

    @pytest.mark.parametrize("n,m,k", [(2, 2, 32), (6, 4, 16384)])
    def test_exhaustive_search_refusal(self, capsys, tmp_path, n, m, k):
        # 2^16384 has more decimal digits than Python prints from an int
        code, stdout, err = run(
            capsys, "table", "search", "--mode", "exhaustive", "--n", str(n), "--m", str(m),
            "--S", "2", "--shift-bound", "1", "--out", str(tmp_path / "t.ktb"),
        )
        assert (code, stdout) == (2, "")
        assert err == f"error: exhaustive search over 2^{k} tables exceeds budget 65536\n"

    def test_search_31_bit_colors(self, capsys, tmp_path):
        # 2^31 colors on 64 cells: the scan counts the colors present
        code, stdout, err = run(
            capsys, "table", "search", "--n", "3", "--m", "31", "--S", "2",
            "--shift-bound", "2", "--trials", "1", "--seed", "1",
            "--out", str(tmp_path / "t.ktb"),
        )
        assert (code, err) == (1, "")
        assert stdout == (
            "seed 1\nno balanced table in 1 trials; nearest miss at trial 0 "
            "(single-color bound, count/bound ratio 268435456.0000)\n"
        )

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_verify_31_bit_colors(self, capsys, tmp_path, mode):
        rng = np.random.default_rng(31)
        cells = rng.integers(0, 2**31, (8, 8), dtype=np.uint32)
        cells[2:5, 1:6] = 2**31 - 1  # one wide color that repeats
        path = tmp_path / "w.ktb"
        btable.write_table(btable.Table(3, 31, cells), path)
        code, stdout, err = run(
            capsys, "table", "verify", "--table", str(path), "--S", "3",
            "--shift-bound", "2", "--mode", mode, "--seed", "5",
        )
        assert (code, err) == (1, "")
        line = stdout.splitlines()[-1]
        fields = dict(part.split("=") for part in line.split()[1:])
        assert fields["condition"] == "single-color"
        B1, B2 = (tuple(map(int, fields[k].split(","))) for k in ("B1", "B2"))
        a, count = int(fields["a"]), int(fields["count"])
        rows = cells.tolist()
        assert count == oracles.color_count(rows, B1, B2, a) > 0  # 2^31 colors: most is 0
        if mode == "exhaustive":
            assert oracles.dict_first_violation(rows, 3, 0) == (B1, B2, a, count)

    def test_verify_ok(self, capsys, tmp_path):
        out = tmp_path / "good.ktb"
        run(
            capsys, "table", "search", "--n", "3", "--m", "1", "--S", "4",
            "--shift-bound", "2", "--trials", "1000", "--seed", "2026",
            "--out", str(out),
        )
        code, stdout, _ = run(
            capsys, "table", "verify", "--table", str(out), "--S", "4",
            "--shift-bound", "2",
        )
        assert code == 0 and stdout == "OK\n"

    @pytest.mark.parametrize("command", ["verify", "search"])
    def test_shift_bound_past_N_exits_2(self, capsys, tmp_path, command):
        # verify at parent: VIOLATION, a row read twice by the pair (1, 9)
        good = tmp_path / "good.ktb"
        run(
            capsys, "table", "search", "--n", "3", "--m", "1", "--S", "4",
            "--shift-bound", "2", "--trials", "1000", "--seed", "2026",
            "--out", str(good),
        )
        where = ["--table", str(good)] if command == "verify" else [
            "--n", "3", "--m", "1", "--seed", "1", "--trials", "5",
            "--out", str(tmp_path / "t.ktb"),
        ]
        code, out, err = run(
            capsys, "table", command, *where, "--S", "4", "--shift-bound", "9"
        )
        assert code == 2 and out == ""
        assert err == "error: shift_bound=9 exceeds N=8\n"

    def test_shift_bound_past_N_exits_2_before_colour_scan(self, capsys, constant_m4_table):
        # the colour bound fails on this table, but the spec is refused first
        code, out, err = run(
            capsys, "table", "verify", "--table", constant_m4_table, "--S", "4",
            "--shift-bound", "9",
        )
        assert code == 2 and out == "" and err == "error: shift_bound=9 exceeds N=8\n"

    def test_verify_violation_exits_1(self, capsys, constant_m4_table):
        code, out, _ = run(
            capsys, "table", "verify", "--table", constant_m4_table,
            "--S", "4", "--shift-bound", "2",
        )
        assert code == 1
        assert out.startswith("VIOLATION condition=single-color")
        assert "B1=" in out and "a=" in out

    def test_verify_truncated_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "short.ktb"
        path.write_bytes(b"KXTB")
        code, out, err = run(
            capsys, "table", "verify", "--table", str(path), "--S", "1",
            "--shift-bound", "1",
        )
        assert code == 2 and out == ""
        assert "truncated" in err and "position 4" in err

    @pytest.mark.parametrize(
        "data,position",
        [
            (b"KXTB\x01\x01\x28" + bytes(20), 6),
            (b"KXTB\x01\x01\x28" + b"\xff" * 20, 6),
            (b"KXTB\x01\x0d\x01", 5),
            (b"KXTB\x01\x01\x01\xf0", 7),
        ],
    )
    def test_verify_strict_header_exits_2(self, capsys, tmp_path, data, position):
        path = tmp_path / "bad.ktb"
        path.write_bytes(data)
        code, out, err = run(
            capsys, "table", "verify", "--table", str(path), "--S", "1",
            "--shift-bound", "1",
        )
        assert code == 2 and out == "" and f"position {position}" in err

    def test_apply_single_output(self, capsys, n4_table):
        path, t = n4_table
        code, out, _ = run(
            capsys, "table", "apply", "--table", path, "a", "3", "--count", "1",
        )
        assert code == 0
        assert out == f"{t.lookup(11, 3):01x}\n"

    def test_apply_file_inputs(self, capsys, tmp_path, n4_table):
        path, t = n4_table
        x1 = tmp_path / "x1.bin"
        x2 = tmp_path / "x2.bin"
        x1.write_bytes(b"\xa0")  # top 4 bits: 1010
        x2.write_bytes(b"\x30")  # top 4 bits: 0011
        code, out, _ = run(
            capsys, "table", "apply", "--table", path,
            "--x1-file", str(x1), "--x2-file", str(x2), "--bits", "4",
            "--count", "1",
        )
        assert code == 0 and out == f"{t.lookup(11, 3):01x}\n"

    def test_apply_count_is_at_most_N(self, capsys, n4_table):
        path, t = n4_table
        argv = ["table", "apply", "--table", path, "a", "3", "--count"]
        code, out, _ = run(capsys, *argv, "16")
        column = [f"{t.lookup(x, 3):01x}" for x in range(16)]
        assert code == 0 and out.split() == column[11:] + column[:11]
        code, out, err = run(capsys, *argv, "17")
        assert code == 2 and out == "" and "count must be in 1..16" in err

    def test_apply_has_no_shift_mode(self, capsys, n4_table):
        path, _ = n4_table
        code, out, err = run(
            capsys, "table", "apply", "--table", path, "a", "3", "--count", "1",
            "--shift-mode", "xor",
        )
        assert code == 2 and out == "" and "--shift-mode" in err

    def test_pair_input_bits_zero_is_not_the_default(self, tmp_path):
        x = tmp_path / "x.bin"
        x.write_bytes(b"\xa0")
        args = argparse.Namespace(x1=None, x2=None, x1_file=str(x), x2_file=str(x))
        assert _pair_input(argparse.Namespace(**vars(args), bits=None), 4) == (10, 10)
        with pytest.raises(ParameterError, match="--bits 0"):
            _pair_input(argparse.Namespace(**vars(args), bits=0), 4)

    def test_apply_bits_zero_exits_2(self, capsys, tmp_path, n4_table):
        path, _ = n4_table
        x = tmp_path / "x.bin"
        x.write_bytes(b"\xa0")
        code, out, err = run(
            capsys, "table", "apply", "--table", path, "--x1-file", str(x),
            "--x2-file", str(x), "--bits", "0", "--count", "1",
        )
        assert code == 2 and out == "" and "--bits 0" in err

    def test_apply_rejects_unaligned_hex(self, capsys, tmp_path):
        t = btable.Table.constant(3, 1, 0)
        path = tmp_path / "n3.ktb"
        btable.write_table(t, path)
        code, _, err = run(
            capsys, "table", "apply", "--table", str(path), "5", "3",
            "--count", "1",
        )
        assert code == 2 and "4-bit" in err

    def test_schedule_prints_derived_parameters(self, capsys):
        code, out, _ = run(
            capsys, "table", "schedule", "--n", "1024", "--k", "1",
            "--s", "1024", "--alpha", "12",
        )
        assert code == 0
        assert out == "m 271\nS 2^683\nt 82\n"

    def test_schedule_rejects_bad_hypothesis(self, capsys):
        code, _, err = run(
            capsys, "table", "schedule", "--n", "64", "--k", "1",
            "--s", "64", "--alpha", "0",
        )
        assert code == 2 and "hypothesis" in err

    def test_budget_env_override(self, capsys, monkeypatch, n4_table):
        path, _ = n4_table
        monkeypatch.setenv("KEXTRACT_BUDGET", "10")
        code, _, err = run(
            capsys, "table", "verify", "--table", path, "--S", "8",
            "--shift-bound", "1",
        )
        assert code == 2 and "budget 10" in err

    @pytest.mark.parametrize("r", ["2", "3"])
    def test_verify_certificate_before_budget(self, capsys, tmp_path, r):
        # n=5, m=1: the marginal bound closes every pair check at S=20, so
        # its C(32, 20)^2 subset pairs never meet the budget; at S=16 it
        # leaves the (1, 2) check open, and the run is refused
        path = tmp_path / "t5.ktb"
        cells = np.random.default_rng(3).integers(0, 2, (32, 32))
        btable.write_table(btable.Table(5, 1, cells.astype(np.uint32)), path)
        check = ["table", "verify", "--table", str(path), "--shift-bound", r]
        assert run(capsys, *check, "--S", "20") == (0, "OK\n", "")
        code, out, err = run(capsys, *check, "--S", "16")
        assert (code, out) == (2, "")
        assert err.startswith("error: shifted-pair verification needs ")
        assert err.endswith(" subset pairs, over budget 1000000000 (raise the budget to allow this)\n")


class TestCondenseCommands:
    @pytest.fixture
    def standin_path(self, tmp_path):
        t = condense.standin_table(4, 2)
        path = tmp_path / "standin.ktb"
        btable.write_table(t, path)
        return str(path), t

    def test_apply_prints_z_and_floor(self, capsys, standin_path):
        path, t = standin_path
        code, out, _ = run(
            capsys, "condense", "apply", "--table", path, "7", "9",
            "--alpha", "2", "--delta", "0.5",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == f"{t.lookup(7, 9):01x}"
        sched = schedule.CondenseSchedule(n=4, delta=0.5, alpha=2, c=2)
        assert lines[1] == f"claimed_floor {t.m - sched.t}"

    def test_verify_all_colors_ok(self, capsys, standin_path):
        path, _ = standin_path
        code, out, _ = run(
            capsys, "condense", "verify", "--table", path, "--delta", "0.5",
            "--epsilon", "0.25", "--c", "1",
        )
        assert code == 0 and out.startswith("OK worst_ratio=")

    def test_verify_violation_exits_1(self, capsys, tmp_path):
        t = btable.Table.constant(3, 2, 2)
        path = tmp_path / "c.ktb"
        btable.write_table(t, path)
        code, out, _ = run(
            capsys, "condense", "verify", "--table", str(path), "--delta",
            "0.34", "--epsilon", "0.5", "--c", "1", "--colors", "2",
        )
        assert code == 1 and out.startswith("VIOLATION")

    def test_verify_bound_past_float_range_is_ok(self, capsys, standin_path):
        path, _ = standin_path
        code, out, _ = run(
            capsys, "condense", "verify", "--table", path, "--delta", "1",
            "--epsilon", "0.001", "--c", "4",
        )
        assert code == 0 and out == "OK worst_ratio=0\n"

    def test_apply_slack_past_float_range_exits_2(self, capsys, standin_path):
        path, _ = standin_path
        code, out, err = run(
            capsys, "condense", "apply", "--table", path, "1", "2",
            "--alpha", "2", "--delta", "0.5", "--c", "400",
        )
        assert code == 2 and out == "" and "float range" in err

    def test_verify_infinite_bound_skips_the_budget(self, capsys, tmp_path):
        # n=5, R=4 needs C(32, 4)^2 = 1.29e9 subset pairs, over the default
        path = tmp_path / "c5.ktb"
        btable.write_table(condense.standin_table(5, 2), path)
        code, out, _ = run(
            capsys, "condense", "verify", "--table", str(path), "--delta", "0.4",
            "--epsilon", "0.001", "--c", "6",
        )
        assert code == 0 and out == "OK worst_ratio=0\n"

    @pytest.mark.parametrize(
        "flag,value",
        [("--delta", "nan"), ("--delta", "0"), ("--delta", "1.5"), ("--epsilon", "nan"),
         ("--epsilon", "1"), ("--epsilon", "0"), ("--c", "0"), ("--c", "-1")],
    )
    def test_verify_out_of_range_parameters_exit_2(self, capsys, standin_path, flag, value):
        path, _ = standin_path
        given = {"--delta": "0.5", "--epsilon": "0.25", "--c": "1", flag: value}
        argv = [a for pair in given.items() for a in pair]
        for mode in ("exhaustive", "sampled"):
            code, out, err = run(
                capsys, "condense", "verify", "--table", path, *argv,
                "--mode", mode, "--seed", "1",
            )
            assert code == 2 and "OK" not in out
            assert f"{flag[2:]}=" in err and "must be" in err

    def test_sampled_verify_needs_trials_and_seed_in_range(self, capsys, standin_path):
        path, _ = standin_path
        common = ["condense", "verify", "--table", path, "--delta", "0.5",
                  "--epsilon", "0.25", "--c", "1", "--mode", "sampled"]
        code, out, err = run(capsys, *common, "--trials", "0", "--seed", "1")
        assert code == 2 and "OK" not in out and "trials must be >= 1" in err
        code, out, err = run(capsys, *common, "--seed", "-1")
        assert code == 2 and "OK" not in out and "seed must be >= 0" in err

    @pytest.mark.parametrize("value", [",", "", "1,,2", "1_0", "+1", " 1"])
    @pytest.mark.parametrize(
        "command,flag", [("verify", "--colors"), ("deficit", "--rows"), ("deficit", "--cols")]
    )
    def test_int_lists_are_strict(self, capsys, standin_path, command, flag, value):
        # empty parts were dropped and int() took "1_0", "+1" and " 1", so
        # "--colors ," answered OK for an empty color set
        path, _ = standin_path
        given = ["--delta", "0.5", "--epsilon", "0.25", "--c", "1"] if command == "verify" else []
        code, out, err = run(capsys, "condense", command, "--table", path, *given, flag, value)
        assert (code, out) == (2, "")
        assert err == f"error: {flag}: {value!r} is not a comma-separated int list\n"

    def test_deficit_constant_table_prints_m(self, capsys, tmp_path):
        t = btable.Table.constant(3, 2, 3)
        path = tmp_path / "c.ktb"
        btable.write_table(t, path)
        code, out, _ = run(capsys, "condense", "deficit", "--table", str(path))
        assert code == 0 and out == "2\n"

    def test_deficit_subsets(self, capsys, standin_path):
        path, t = standin_path
        code, out, _ = run(
            capsys, "condense", "deficit", "--table", path,
            "--rows", "1", "--cols", "0,1,2,3",
        )
        assert code == 0 and out == "0\n"

    @pytest.mark.parametrize("argv,out", [
        (["verify", "--delta", "1", "--epsilon", "0.25"], "OK worst_ratio=0.0615384615385\n"),
        (["deficit"], "29\n"),
    ])
    def test_wide_colors_under_a_memory_cap(self, tmp_path, argv, out):
        # n=1, m=31: a 2^31-entry color set or count array raised
        # MemoryError (exit 3); the 3 GiB cap makes such an array fail fast
        path = tmp_path / "w31.ktb"
        cells = np.array([[0, 5], [2**31 - 1, 7]], np.uint32)
        btable.write_table(btable.Table(1, 31, cells), path)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "kextract.cli", "condense", argv[0], "--table", str(path), *argv[1:]],
            capture_output=True, text=True, timeout=60, env=env,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")


class TestEstimateCommands:
    def test_dep_same_file_is_dependent(self, capsys, tmp_path):
        f = tmp_path / "x.bin"
        f.write_bytes(np.random.default_rng(5).bytes(8192))
        code, out, _ = run(
            capsys, "estimate", "dep", str(f), str(f), "--alpha", "64",
        )
        assert code == 1
        assert out.splitlines()[-1] == "DEPENDENT"
        assert any(line.startswith("kx ") for line in out.splitlines())

    def test_dep_independent_files(self, capsys, tmp_path):
        rng = np.random.default_rng(6)
        f1 = tmp_path / "x.bin"
        f2 = tmp_path / "y.bin"
        f1.write_bytes(rng.bytes(8192))
        f2.write_bytes(rng.bytes(8192))
        code, out, _ = run(
            capsys, "estimate", "dep", str(f1), str(f2),
            "--alpha", str(0.05 * 8 * 8192),
        )
        assert code == 0 and out.splitlines()[-1] == "INDEPENDENT"

    def test_dep_nan_alpha_exits_2(self, capsys, tmp_path):
        f = tmp_path / "x.bin"
        f.write_bytes(b"abc")
        code, out, err = run(
            capsys, "estimate", "dep", str(f), str(f), "--alpha", "nan",
        )
        assert code == 2 and out == "" and "alpha" in err

    def test_dep_negative_alpha_exits_2(self, capsys, tmp_path):
        # printed a DEPENDENT verdict and exited 1, the analytic-negative code
        f = tmp_path / "x.bin"
        f.write_bytes(b"abc")
        code, out, err = run(
            capsys, "estimate", "dep", str(f), str(f), "--alpha", "-5",
        )
        assert code == 2 and out == ""
        assert err == "error: alpha must be >= 0 bits, got -5.0\n"

    def test_k_on_empty_file(self, capsys, tmp_path):
        f = tmp_path / "empty.bin"
        f.write_bytes(b"")
        code, out, _ = run(capsys, "estimate", "k", str(f))
        assert code == 0 and out == "k 256\n"

    def test_unknown_backend_exits_2(self, capsys, tmp_path):
        f = tmp_path / "x.bin"
        f.write_bytes(b"abc")
        code, _, err = run(
            capsys, "estimate", "k", str(f), "--backend", "zpaq",
        )
        assert code == 2 and "zpaq" in err

    def test_symmetry_output_fields(self, capsys, tmp_path):
        f = tmp_path / "x.bin"
        f.write_bytes(np.random.default_rng(8).bytes(4096))
        code, out, _ = run(capsys, "estimate", "symmetry", str(f), str(f))
        assert code == 0
        names = [line.split()[0] for line in out.splitlines()]
        assert names == ["lhs_drop", "rhs_drop", "abs_diff"]

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "estimate", "k", str(tmp_path / "nope"))
        assert code == 2

    def test_manifest_lists_paths(self, capsys, tmp_path):
        f = tmp_path / "empty.bin"
        f.write_bytes(b"")
        manifest = tmp_path / "man.txt"
        manifest.write_text(f"\n  {f}  \r\n\n")
        code, out, _ = run(capsys, "estimate", "k", "--manifest", str(manifest))
        assert code == 0 and out == f"{f} 256\n"

    def test_non_utf8_manifest_exits_2(self, capsys, tmp_path):
        manifest = tmp_path / "man.txt"
        manifest.write_bytes(b"a\xff\n")
        code, out, err = run(capsys, "estimate", "k", "--manifest", str(manifest))
        assert code == 2 and out == ""
        assert "not UTF-8" in err and "position 1" in err


class TestDistCommands:
    def test_push_pair_map_is_uniform(self, capsys, tmp_path):
        out_file = tmp_path / "d.dist"
        code, out, _ = run(
            capsys, "dist", "push", "--map", "extend-pair", "--n", "2",
            "--i", "1", "--j", "2", "--out", str(out_file),
        )
        assert code == 0 and f"wrote {out_file}" in out
        text = out_file.read_text()
        assert text.startswith("bits 4\n")
        assert all(
            line.endswith(" 1/16") for line in text.splitlines()[1:]
        )
        code, out, _ = run(capsys, "dist", "mindent", str(out_file))
        assert code == 0 and out == "4\n"

    def test_push_xor_to_stdout(self, capsys):
        code, out, _ = run(capsys, "dist", "push", "--map", "xor", "--n", "2")
        assert code == 0 and out.startswith("bits 2\n")

    def test_push_table_map(self, capsys, tmp_path):
        t = btable.Table.constant(2, 1, 1)
        path = tmp_path / "t.ktb"
        btable.write_table(t, path)
        code, out, _ = run(
            capsys, "dist", "push", "--map", "table", "--table", str(path),
        )
        assert code == 0 and out == "bits 1\n1 1/1\n"

    def test_sd(self, capsys, tmp_path):
        a = tmp_path / "a.dist"
        b = tmp_path / "b.dist"
        run(capsys, "dist", "push", "--map", "xor", "--n", "2", "--out", str(a))
        run(capsys, "dist", "push", "--map", "xor", "--n", "2", "--out", str(b))
        code, out, _ = run(capsys, "dist", "sd", str(a), str(b))
        assert code == 0 and out == "0/1\n"

    def test_push_extend_maps_match_extend_outputs(self, capsys):
        # reference: the maps as the outputs of extend, one request per pair
        params = field_params(3)

        def outs(x1, x2):
            return extend.extend(extend.ExtendRequest(x1, x2, 7, params)).outputs

        for i in range(1, 8):
            want = stats.dist_to_text(
                stats.pushforward(lambda x1, x2: outs(x1, x2)[i - 1], 3, 3)
            )
            code, out, _ = run(
                capsys, "dist", "push", "--map", "extend", "--n", "3", "--i", str(i)
            )
            assert code == 0 and out == want
            for j in range(1, 8):
                want = stats.dist_to_text(stats.pushforward(
                    lambda x1, x2: outs(x1, x2)[i - 1] << 3 | outs(x1, x2)[j - 1],
                    3, 6,
                ))
                code, out, _ = run(
                    capsys, "dist", "push", "--map", "extend-pair", "--n", "3",
                    "--i", str(i), "--j", str(j),
                )
                assert code == 0 and out == want

    @pytest.mark.parametrize(
        "flags", [["extend", "--i", "0"], ["extend", "--i", "8"],
                  ["extend-pair", "--i", "0", "--j", "2"],
                  ["extend-pair", "--i", "1", "--j", "-1"]],
    )
    def test_push_index_out_of_range_exits_2(self, capsys, flags):
        code, out, err = run(capsys, "dist", "push", "--n", "3", "--map", *flags)
        assert code == 2 and out == "" and "out of range 1..7" in err

    def test_push_budget_zero_is_honoured(self, capsys, monkeypatch):
        code, out, err = run(
            capsys, "dist", "push", "--map", "xor", "--n", "2", "--budget", "0"
        )
        assert code == 2 and out == "" and "budget 0" in err
        monkeypatch.setenv("KEXTRACT_BUDGET", "0")
        code, out, err = run(capsys, "dist", "push", "--map", "xor", "--n", "2")
        assert code == 2 and out == "" and "budget 0" in err

    @pytest.mark.parametrize("n", ["13", "40", "64"])
    @pytest.mark.parametrize(
        "flags", [["extend", "--i", "1"], ["extend-pair", "--i", "1", "--j", "2"]]
    )
    def test_push_over_budget_exits_before_building_tables(
        self, capsys, monkeypatch, n, flags
    ):
        def no_table(*args):  # an N-entry table at n = 64 would exhaust memory
            raise AssertionError("multiples table built before the budget check")

        monkeypatch.setattr("kextract.cli.multiples", no_table)
        code, out, err = run(capsys, "dist", "push", "--n", n, "--map", *flags)
        assert code == 2 and out == "" and "over budget 16777216" in err

    @pytest.mark.parametrize(
        "text",
        ["bits 2\n0 1/0\n", "bits -1\n", "bits 2\n0 1/2\n0 1/2\n", "bits 2\n4 1/1\n"],
    )
    def test_malformed_dist_exits_2(self, capsys, tmp_path, text):
        path = tmp_path / "bad.dist"
        path.write_text(text)
        for argv in (["mindent", str(path)], ["sd", str(path), str(path)]):
            code, out, err = run(capsys, "dist", *argv)
            assert code == 2 and out == "" and "position" in err

    def test_non_utf8_dist_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bin.dist"
        path.write_bytes(b"bits 2\n0 1/1\n\xff\n")
        code, out, err = run(capsys, "dist", "mindent", str(path))
        assert code == 2 and out == "" and "position 13" in err

    @pytest.mark.parametrize("n", range(1, 9))
    def test_push_text_matches_reference_layer(self, capsys, tmp_path, n):
        # the dict-of-counts pushforward and writer that the arrays
        # replaced, over schoolbook products
        N, modulus = 1 << n, field_params(n).modulus
        i, j = N - 1, max(1, N // 3)
        iz, jz = ([oracles.gf_mul(e, x2, modulus) for x2 in range(N)] for e in (i, j))
        grid = np.random.default_rng(n).integers(0, 8, size=(N, N), dtype=np.uint32)
        path = tmp_path / "t.ktb"
        btable.write_table(btable.Table(n, 3, grid), path)
        cells = grid.tolist()
        cases = [
            (["--n", str(n), "--map", "xor"], n, lambda x1, x2: x1 ^ x2),
            (["--n", str(n), "--map", "extend", "--i", str(i)], n, lambda x1, x2: x1 ^ iz[x2]),
            (["--n", str(n), "--map", "extend-pair", "--i", str(i), "--j", str(j)], 2 * n,
             lambda x1, x2: (x1 ^ iz[x2]) << n | (x1 ^ jz[x2])),
            (["--map", "table", "--table", str(path)], 3, lambda x1, x2: cells[x1][x2]),
        ]
        for flags, bits, fn in cases:
            code, out, _ = run(capsys, "dist", "push", *flags)
            assert code == 0
            assert out == oracles.dict_dist_to_text(bits, oracles.dict_pushforward(fn, n))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_push_extend_pair_every_pair_matches_reference(self, capsys, n):
        N, modulus = 1 << n, field_params(n).modulus
        cols = {e: [oracles.gf_mul(e, x2, modulus) for x2 in range(N)] for e in range(1, N)}
        uniform = oracles.FractionDist.uniform(2 * n)
        for i, j in itertools.permutations(range(1, N), 2):
            ref = oracles.dict_pushforward(
                lambda x1, x2: (x1 ^ cols[i][x2]) << n | (x1 ^ cols[j][x2]), n
            )
            code, out, _ = run(
                capsys, "dist", "push", "--n", str(n), "--map", "extend-pair",
                "--i", str(i), "--j", str(j),
            )
            assert code == 0 and out == oracles.dict_dist_to_text(2 * n, ref)
            d = stats.dist_from_text(out)
            f = oracles.FractionDist(2 * n, {v: Fraction(c, N * N) for v, c in ref.items()})
            assert d.probs == f.probs
            assert stats.min_entropy(d) == oracles.fraction_min_entropy(f)
            assert stats.statistical_distance(d, stats.Dist.uniform(2 * n)) == (
                oracles.fraction_statistical_distance(f, uniform)
            )
            assert stats.epsilon_close_to_min_entropy(d, 2 * n) == (
                oracles.fraction_epsilon_close(f, 2 * n)
            )

    @pytest.mark.parametrize("n", [2, 9])  # n = 9: the pair text spans four blocks
    def test_push_out_file_is_dist_to_text(self, capsys, tmp_path, n):
        N = 1 << n
        i, j = N - 1, max(1, N // 3)
        params = field_params(n)
        iz, jz = (multiples(e, N, params) for e in (i, j))
        grid = np.random.default_rng(n).integers(0, 8, size=(N, N), dtype=np.uint32)
        table = tmp_path / "t.ktb"
        btable.write_table(btable.Table(n, 3, grid), table)
        cases = [
            (["--n", str(n), "--map", "xor"], n, lambda x1, x2: x1 ^ x2),
            (["--n", str(n), "--map", "extend", "--i", str(i)], n, lambda x1, x2: x1 ^ iz[x2]),
            (["--n", str(n), "--map", "extend-pair", "--i", str(i), "--j", str(j)], 2 * n,
             lambda x1, x2: (x1 ^ iz[x2]) << n | (x1 ^ jz[x2])),
            (["--map", "table", "--table", str(table)], 3, lambda x1, x2: int(grid[x1, x2])),
        ]
        path = tmp_path / "out.dist"
        for flags, bits, fn in cases:
            code, out, _ = run(capsys, "dist", "push", *flags, "--out", str(path))
            assert code == 0 and out == f"wrote {path}\n"
            want = stats.dist_to_text(stats.pushforward(fn, n, bits))
            assert path.read_bytes() == want.encode()

    def test_push_out_holds_one_block_of_text(self, capsys, tmp_path, monkeypatch):
        # the n = 10 pair text is 16 MiB; --out held it three times over:
        # the decoded blocks, their join, and the encode on write
        count_rows = stats.count_rows
        held = []

        def counted(*args):
            dist = count_rows(*args)
            held.append(dist.outcomes.nbytes + dist.counts.nbytes)
            tracemalloc.reset_peak()  # from here on: the Dist and the write
            return dist

        monkeypatch.setattr(stats, "count_rows", counted)
        path = tmp_path / "pair.dist"
        tracemalloc.start()
        try:
            code, _, _ = run(
                capsys, "dist", "push", "--map", "extend-pair", "--n", "10",
                "--i", "1", "--j", "2", "--out", str(path),
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and path.stat().st_size == len("bits 20\n") + (16 << 20)
        assert peak < held[0] + (8 << 20)

    def test_push_missing_args_exit_2(self, capsys):
        code, _, err = run(capsys, "dist", "push", "--map", "extend", "--n", "2")
        assert code == 2 and "--i" in err


class TestExitCodes:
    def test_unexpected_exception_exits_3_in_one_line(self, capsys, monkeypatch):
        def broken(*args, **kw):
            raise RuntimeError("kernel fell over\nsecond line")

        monkeypatch.setattr(schedule, "derive_table_schedule", broken)
        code, out, err = run(
            capsys, "table", "schedule", "--n", "1024", "--k", "1", "--s", "1024",
            "--alpha", "12",
        )
        assert code == 3 and out == ""
        assert err == "internal error: RuntimeError: kernel fell over second line\n"

    def test_package_errors_still_exit_2(self, capsys):
        code, _, err = run(
            capsys, "table", "schedule", "--n", "4", "--k", "1", "--s", "4",
            "--alpha", "1",
        )
        assert code == 2 and err.startswith("error: ")


class TestSampledVerdicts:
    """A sampled check that finds no violation says UNREFUTED, never OK:
    random row subsets can refute a bound but not prove it."""

    @pytest.fixture
    def good_table(self, capsys, tmp_path):
        # exhaustive verification proves this one at S=4, r=2
        path = tmp_path / "good.ktb"
        run(
            capsys, "table", "search", "--n", "3", "--m", "1", "--S", "4",
            "--shift-bound", "2", "--trials", "1000", "--seed", "2026",
            "--out", str(path),
        )
        return str(path)

    def test_table_verify(self, capsys, good_table):
        check = ["table", "verify", "--table", good_table, "--S", "4", "--shift-bound", "2"]
        assert run(capsys, *check) == (0, "OK\n", "")
        code, out, err = run(capsys, *check, "--mode", "sampled", "--trials", "50", "--seed", "9")
        assert (code, out, err) == (0, "seed 9\nUNREFUTED sampled trials=50\n", "")

    def test_condense_verify(self, capsys, tmp_path):
        path = tmp_path / "c4.ktb"
        btable.write_table(condense.standin_table(4, 2), path)
        check = ["condense", "verify", "--table", str(path), "--delta", "0.5",
                 "--epsilon", "0.25", "--c", "1", "--colors", "0,1"]
        assert run(capsys, *check) == (0, "OK worst_ratio=0.8\n", "")
        code, out, _ = run(capsys, *check, "--mode", "sampled", "--trials", "30", "--seed", "4")
        assert (code, out) == (0, "seed 4\nUNREFUTED sampled trials=30 worst_ratio>=0.7\n")

    def test_closed_checks_still_unrefuted(self, capsys, good_table, tmp_path):
        # the marginal certificate closes both pair checks of this n=4,
        # m=1 table at S=12, r=2, and an infinite condense bound leaves
        # nothing to count, yet a sampled run still proves nothing
        path = tmp_path / "closed.ktb"
        cells = np.random.default_rng(0).integers(0, 2, size=(16, 16), dtype=np.uint32)
        btable.write_table(btable.Table(4, 1, cells), path)
        code, out, _ = run(
            capsys, "table", "verify", "--table", str(path), "--S", "12",
            "--shift-bound", "2", "--mode", "sampled", "--seed", "2",
        )
        assert (code, out) == (0, "seed 2\nUNREFUTED sampled trials=1000\n")
        code, out, _ = run(
            capsys, "condense", "verify", "--table", good_table, "--delta", "1",
            "--epsilon", "0.001", "--c", "4", "--mode", "sampled", "--seed", "2",
        )
        assert (code, out) == (0, "seed 2\nUNREFUTED sampled trials=1000 worst_ratio>=0\n")

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_refutes_the_n5_standin(self, capsys, tmp_path, seed):
        # one random rectangle a trial printed OK here, with ratios 0.82-0.91
        path = tmp_path / "c5.ktb"
        btable.write_table(condense.standin_table(5, 2), path)
        code, out, _ = run(
            capsys, "condense", "verify", "--table", str(path), "--delta", "0.4",
            "--epsilon", "0.25", "--c", "1", "--colors", "1", "--mode", "sampled",
            "--seed", str(seed),
        )
        assert code == 1
        assert out.splitlines()[1].startswith("VIOLATION worst_ratio=1.09445068294 B1=")

    def test_n5_standin_exhaustive_agrees(self, capsys, tmp_path):
        path = tmp_path / "c5.ktb"
        btable.write_table(condense.standin_table(5, 2), path)
        code, out, _ = run(
            capsys, "condense", "verify", "--table", str(path), "--delta", "0.4",
            "--epsilon", "0.25", "--c", "1", "--colors", "1", "--budget", "2000000000",
        )
        assert (code, out) == (1, "VIOLATION worst_ratio=1.09445068294 B1=1,4,10,27 B2=9,13,15,25\n")

    def test_no_sampled_line_says_ok(self, capsys, tmp_path):
        # passing and failing checks over a few tables, seeds and sizes
        lines = []
        for n, m, seed in ((3, 1, 0), (3, 2, 1), (4, 1, 2), (4, 2, 3)):
            path = tmp_path / f"t{n}{m}{seed}.ktb"
            cells = np.random.default_rng(seed).integers(0, 1 << m, (1 << n, 1 << n))
            btable.write_table(btable.Table(n, m, cells.astype(np.uint32)), path)
            for S, r in ((2, 1), (4, 2), (1 << n, 3)):
                code, out, _ = run(
                    capsys, "table", "verify", "--table", str(path), "--S", str(S),
                    "--shift-bound", str(r), "--mode", "sampled", "--trials", "20",
                    "--seed", str(seed),
                )
                assert code in (0, 1)
                lines += out.splitlines()
            for delta in ("0.5", "0.75", "1"):
                code, out, _ = run(
                    capsys, "condense", "verify", "--table", str(path), "--delta", delta,
                    "--epsilon", "0.25", "--c", "1", "--colors", "0", "--mode", "sampled",
                    "--trials", "20", "--seed", str(seed),
                )
                assert code in (0, 1)
                lines += out.splitlines()
        verdicts = [line.split()[0] for line in lines if not line.startswith("seed ")]
        assert set(verdicts) == {"UNREFUTED", "VIOLATION"}


class TestSeedReporting:
    def test_sampled_verify_draws_and_prints_seed(self, capsys, n4_table):
        path, _ = n4_table
        code, out, _ = run(
            capsys, "table", "verify", "--table", path, "--S", "4",
            "--shift-bound", "1", "--mode", "sampled", "--trials", "5",
        )
        assert out.startswith("seed ")
        assert code in (0, 1)

    def test_sampled_verify_with_seed_reproducible(self, capsys, n4_table):
        path, _ = n4_table
        args = [
            "table", "verify", "--table", path, "--S", "4",
            "--shift-bound", "1", "--mode", "sampled", "--trials", "5",
            "--seed", "11",
        ]
        a = run(capsys, *args)
        b = run(capsys, *args)
        assert a == b
        assert a[1].startswith("seed 11\n")

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_sampled_verify_without_trials_exits_2(self, capsys, n4_table, trials):
        path, _ = n4_table
        code, out, err = run(
            capsys, "table", "verify", "--table", path, "--S", "4",
            "--shift-bound", "2", "--mode", "sampled", "--trials", trials,
            "--seed", "3",
        )
        assert code == 2 and "OK" not in out and "trials must be >= 1" in err

    def test_negative_seed_exits_2(self, capsys, n4_table, tmp_path):
        path, _ = n4_table
        code, _, err = run(
            capsys, "table", "verify", "--table", path, "--S", "4",
            "--shift-bound", "2", "--mode", "sampled", "--seed", "-1",
        )
        assert code == 2 and "seed must be >= 0" in err
        code, _, err = run(
            capsys, "table", "search", "--n", "2", "--m", "1", "--S", "2",
            "--shift-bound", "1", "--seed", "-1", "--out", str(tmp_path / "t.ktb"),
        )
        assert code == 2 and "seed must be >= 0" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "search", "--n", "2", "--m", "1", "--seed", "-1"],
            ["table", "search", "--n", "2", "--m", "1", "--trials", "0"],
            ["table", "search", "--n", "13", "--m", "1"],
            ["table", "search", "--n", "2", "--m", "40"],
            ["table", "verify", "--mode", "sampled", "--seed", "-1"],
            ["condense", "verify", "--mode", "sampled", "--seed", "-1"],
        ],
        ids=["search-seed", "search-trials", "search-n", "search-m",
             "table-verify-seed", "condense-verify-seed"],
    )
    def test_rejected_run_prints_no_seed(self, capsys, tmp_path, n4_table, argv):
        path, _ = n4_table
        if argv[0] == "condense":
            argv = argv + ["--table", path, "--delta", "0.5", "--epsilon", "0.25"]
        elif argv[1] == "verify":
            argv = argv + ["--table", path, "--S", "4", "--shift-bound", "2"]
        else:
            argv = argv + ["--S", "2", "--shift-bound", "1", "--out", str(tmp_path / "t.ktb")]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_search_without_trials_exits_2(self, capsys, tmp_path, trials):
        out_path = tmp_path / "t.ktb"
        code, out, err = run(
            capsys, "table", "search", "--n", "2", "--m", "1", "--S", "2",
            "--shift-bound", "1", "--trials", trials, "--seed", "1",
            "--out", str(out_path),
        )
        assert code == 2 and "trials must be >= 1" in err
        assert "candidates" not in out and not out_path.exists()


def _fresh_interpreter(code: str) -> str:
    """Last stdout line of ``code`` run in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return proc.stdout.splitlines()[-1]


_UNLOADED = "print(*(m in sys.modules for m in ('numpy', 'mpmath', 'dataclasses')))"


def test_cli_import_leaves_numpy_and_mpmath_unloaded():
    assert _fresh_interpreter(f"import sys, kextract\n{_UNLOADED}") == "False False False"
    assert _fresh_interpreter(f"import sys, kextract.cli\n{_UNLOADED}") == "False False False"


@pytest.mark.parametrize(
    "argv",
    [
        ["extend", "05", "03", "--count", "1"],
        ["estimate", "k", "{x}"],
        ["estimate", "dep", "{x}", "{y}", "--alpha", "64"],
        ["estimate", "symmetry", "{x}", "{y}"],
        ["--help"],
        ["extend", "05", "--count"],  # a usage error
    ],
)
def test_string_commands_leave_numpy_unloaded(tmp_path, argv):
    paths = {"x": tmp_path / "x.bin", "y": tmp_path / "y.bin"}
    for name, path in paths.items():
        path.write_bytes(name.encode() * 64)
    argv = [arg.format(**paths) for arg in argv]
    code = (
        "import sys\n"
        "from kextract.cli import main\n"
        "try:\n"
        f"    main({argv!r})\n"
        "except SystemExit:\n"
        "    pass\n"
        f"{_UNLOADED}"
    )
    assert _fresh_interpreter(code) == "False False False"


def test_table_schedule_leaves_numpy_and_mpmath_unloaded():
    code = (
        "import sys\n"
        "from kextract.cli import main\n"
        "main(['table', 'schedule', '--n', '1024', '--k', '1', '--s', '1024', '--alpha', '12'])\n"
        "print(*(m in sys.modules for m in ('numpy', 'mpmath', 'kextract.schedule')))"
    )
    assert _fresh_interpreter(code) == "False False True"


# -- argv fuzzing ------------------------------------------------------------
#
# Every subcommand with each of its flags left out or given a value that is
# valid, negative, huge, NaN, non-hex, empty or malformed.  Sizes stay at
# n <= 3 and trials stay few, so each run is small whatever it parses.

_NUMBER = st.sampled_from(
    ["-1", "0", "1", "2", "3", "99999999999999999999", "-99999999999999999999",
     "nan", "inf", "-inf", "", "zz", "0x1", "1e3", "0.5", "1,2", "-0", " 1", "1_0"]
)
_SMALL = st.sampled_from(["-1", "0", "1", "2", "3", "nan", "", "zz", "0.5"])  # sizes that bound the work
_HEX = st.sampled_from(["0", "f", "05", "03", "ff", "a5", "zz", "", "0x1", "F", "-1", "123"])
_INTS = st.sampled_from(["0", "0,1", "1,2,3", "-1", "", ",", "zz", "5", "99999999999999999999"])
_BACKEND = st.sampled_from(["lzma", "bz2", "zz", ""])
_MODE = st.sampled_from(["exhaustive", "sampled", "zz"])

_COMMANDS = {
    ("extend",): [("x1", _HEX), ("x2", _HEX), ("--count", _NUMBER), ("--k", _NUMBER)],
    ("table", "search"): [
        ("--n", _SMALL), ("--m", _SMALL), ("--S", _NUMBER), ("--shift-bound", _NUMBER),
        ("--mode", _MODE), ("--trials", _SMALL), ("--seed", _NUMBER),
        ("--budget", _NUMBER), ("--out", "out"),
    ],
    ("table", "verify"): [
        ("--table", "path"), ("--S", _NUMBER), ("--shift-bound", _NUMBER),
        ("--mode", _MODE), ("--trials", _SMALL), ("--seed", _NUMBER), ("--budget", _NUMBER),
    ],
    ("table", "schedule"): [
        ("--n", _NUMBER), ("--k", _NUMBER), ("--s", _NUMBER), ("--alpha", _NUMBER),
    ],
    ("table", "apply"): [
        ("--table", "path"), ("x1", _HEX), ("x2", _HEX), ("--x1-file", "path"),
        ("--x2-file", "path"), ("--bits", _NUMBER), ("--count", _NUMBER),
    ],
    ("condense", "apply"): [
        ("--table", "path"), ("x1", _HEX), ("x2", _HEX), ("--alpha", _NUMBER),
        ("--delta", _NUMBER), ("--c", _NUMBER),
    ],
    ("condense", "verify"): [
        ("--table", "path"), ("--delta", _NUMBER), ("--epsilon", _NUMBER), ("--c", _NUMBER),
        ("--colors", _INTS), ("--mode", _MODE), ("--trials", _SMALL), ("--seed", _NUMBER),
        ("--budget", _NUMBER),
    ],
    ("condense", "deficit"): [("--table", "path"), ("--rows", _INTS), ("--cols", _INTS)],
    ("estimate", "k"): [("file", "path"), ("--manifest", "path"), ("--backend", _BACKEND)],
    ("estimate", "dep"): [
        ("file1", "path"), ("file2", "path"), ("--backend", _BACKEND), ("--alpha", _NUMBER),
    ],
    ("estimate", "symmetry"): [("file1", "path"), ("file2", "path"), ("--backend", _BACKEND)],
    ("dist", "push"): [
        ("--map", st.sampled_from(["xor", "extend", "extend-pair", "table", "zz"])),
        ("--n", _SMALL), ("--i", _NUMBER), ("--j", _NUMBER), ("--table", "path"),
        ("--budget", _NUMBER), ("--out", "out"),
    ],
    ("dist", "mindent"): [("dist", "path")],
    ("dist", "sd"): [("dist1", "path"), ("dist2", "path")],
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Paths an argv may name: valid inputs of each kind, and bad ones."""
    root = tmp_path_factory.mktemp("fuzz")
    btable.write_table(btable.Table.constant(2, 1, 1), root / "t.ktb")
    text = stats.dist_to_text(stats.Dist.uniform(2))
    (root / "u.dist").write_text(text)
    (root / "crlf.dist").write_text(text.replace("\n", "\r\n"))  # read line by line
    (root / "bad.dist").write_text(text.replace("2 1/4", "2 1/04x"))
    (root / "a.bin").write_bytes(bytes(range(64)))
    (root / "empty").write_bytes(b"")
    (root / "junk").write_bytes(b"\xff\x00junk")
    (root / "list").write_text(f"{root / 'a.bin'}\n")
    names = ("t.ktb", "u.dist", "crlf.dist", "bad.dist", "a.bin", "empty", "junk", "list")
    paths = [root / name for name in names]
    return root, [str(p) for p in paths + [root / "missing", root]]


def _draw_argv(data, root, paths):
    command = data.draw(st.sampled_from(sorted(_COMMANDS)), label="command")
    argv = list(command)
    for flag, values in _COMMANDS[command]:
        if not data.draw(st.booleans(), label=flag):
            continue
        if values == "path":
            value = data.draw(st.sampled_from(paths), label=flag)
        elif values == "out":
            value = data.draw(st.sampled_from([str(root / "out.bin"), str(root), ""]), label=flag)
        else:
            value = data.draw(values, label=flag)
        # a value that starts with "-" is passed as --flag=value
        if not flag.startswith("--"):
            argv.append(value)
        elif value.startswith("-"):
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    return argv


class TestArgvFuzz:
    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_exit_codes_and_one_error_line(self, capsys, fuzz_files, data):
        root, paths = fuzz_files
        argv = _draw_argv(data, root, paths)
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (argv, err)
        if code == 2:
            assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)

    # regressions found by the fuzzing above

    def test_extend_huge_k_exits_2_at_once(self):
        # n^k was built before any range check: 8^(10^20) never finished
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "kextract.cli", "extend", "05", "03",
             "--k", "99999999999999999999"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: --k 99999999999999999999: n^k outputs exceed 2^8 - 1\n"

    def test_extend_negative_k_exits_2(self, capsys):
        # n^-1 is a float, which passed the count check and broke a slice: exit 3
        code, out, err = run(capsys, "extend", "05", "03", "--k=-1")
        assert code == 2 and out == "" and err == "error: --k -1: must be 0 or more\n"
        assert run(capsys, "extend", "05", "03", "--k", "0")[:2] == (0, "06\n")

    def test_schedule_huge_n_exits_2(self, capsys):
        # S = 2^ceil(2s/3) was built as an int: MemoryError, exit 3
        code, out, err = run(
            capsys, "table", "schedule", "--n", "99999999999999999999", "--k", "1",
            "--s", "99999999999999999999", "--alpha", "0",
        )
        assert code == 2 and out == "" and err.startswith("error: n=99999999999999999999 above")

    def test_manifest_path_with_nul_exits_2(self, capsys, tmp_path):
        # open() raised ValueError on the NUL byte: exit 3
        manifest = tmp_path / "list"
        manifest.write_bytes(b"a\x00b\n")
        code, out, err = run(capsys, "estimate", "k", "--manifest", str(manifest))
        assert code == 2 and out == "" and err.count("error:") == 1
