import argparse
import subprocess
import sys

import numpy as np
import pytest

from kextract import btable, condense, extend, stats
from kextract.cli import _pair_input, main
from kextract.errors import ParameterError
from kextract.gf2n import field_params


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
        prov = btable.read_provenance(out_a)
        assert "seed=2026" in prov and "mode=random" in prov

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
        sched = condense.CondenseSchedule(n=4, delta=0.5, alpha=2, c=2)
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

    def test_push_missing_args_exit_2(self, capsys):
        code, _, err = run(capsys, "dist", "push", "--map", "extend", "--n", "2")
        assert code == 2 and "--i" in err


class TestExitCodes:
    def test_unexpected_exception_exits_3_in_one_line(self, capsys, monkeypatch):
        def broken(*args, **kw):
            raise RuntimeError("kernel fell over\nsecond line")

        monkeypatch.setattr(btable, "derive_table_schedule", broken)
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


def test_cli_import_leaves_mpmath_unloaded():
    code = "import sys, kextract.cli; print('mpmath' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "False\n"
