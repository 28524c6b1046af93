"""Command-line interface.

Exit codes: 0 success, 1 analytic negative (a violation, a failed
search, or a DEPENDENT verdict), 2 usage, parameter, input or budget
error, 3 internal error (any other exception, reported in one line).

Strings are lowercase hex with no prefix; an n-bit input is n/4 hex
digits.  Inputs whose bit length is not a multiple of 4 come from raw
binary files (--x1-file/--x2-file/--x-file/--y-file with --bits),
read most-significant bit first.  Every randomized run prints its seed,
and rerunning with the same seed reproduces the output byte for byte.
The KEXTRACT_BUDGET environment variable overrides default enumeration
budgets; --budget overrides both.

Only the table, condense and dist commands use arrays: their handlers
import numpy and the array modules in their own bodies, so extend,
estimate and table schedule (whose arithmetic lives in ``schedule``)
start without numpy.  Drawing a seed imports secrets the same way.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import extend, kproxy
from .errors import DecodeError, KextractError, ParameterError
from .gf2n import field_params, multiples


def _hex_pair(x1: str, x2: str) -> tuple[int, int, int]:
    """(x1, x2, bit length) from two equal-length lowercase hex strings."""
    for what, text in (("x1", x1), ("x2", x2)):
        if not re.fullmatch("[0-9a-f]+", text):
            raise ParameterError(f"{what}: {text!r} is not lowercase hex")
    if len(x1) != len(x2):
        raise ParameterError(f"inputs differ in length: {4 * len(x1)} vs {4 * len(x2)} bits")
    return int(x1, 16), int(x2, 16), 4 * len(x1)


def _read_bits_file(path: str, bits: int) -> int:
    """First ``bits`` bits of a raw binary file, most-significant first."""
    with open(path, "rb") as fh:
        data = fh.read()
    if 8 * len(data) < bits:
        raise ParameterError(f"{path}: needs {bits} bits, has {8 * len(data)}")
    return int.from_bytes(data, "big") >> (8 * len(data) - bits)


def _hex_width(bits: int) -> int:
    return max(1, (bits + 3) // 4)


def _int_list(text: str, what: str) -> list[int]:
    """Decimal integers separated by single commas, none of them empty."""
    if not re.fullmatch("[0-9]+(,[0-9]+)*", text):
        raise ParameterError(f"{what}: {text!r} is not a comma-separated int list")
    return [int(part) for part in text.split(",")]


def _budget(args, default: int | None = None) -> int | None:
    """--budget, else KEXTRACT_BUDGET, else ``default``."""
    if getattr(args, "budget", None) is not None:
        return args.budget
    env = os.environ.get("KEXTRACT_BUDGET")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParameterError(f"KEXTRACT_BUDGET={env!r} is not an integer") from None
    return default


def _seed(args) -> int:
    """The run's seed; drawn and reported when not supplied."""
    if args.seed is not None:
        return args.seed
    import secrets

    return secrets.randbits(63)


def _verify_kw(args) -> dict:
    """Verifier keywords: the budget, plus trials and seed when sampled."""
    kw = {"budget": _budget(args)}
    if args.mode == "sampled":
        kw.update(trials=args.trials, seed=_seed(args))
    return kw


def _print_seed(kw) -> None:
    """The seed line, printed only once the library has accepted the run."""
    if "seed" in kw:
        print(f"seed {kw['seed']}")


def _no_violation(kw) -> str:
    """The verdict when no check fails: OK for a proof, UNREFUTED when
    random row subsets found no violation, which proves nothing."""
    return f"UNREFUTED sampled trials={kw['trials']}" if "trials" in kw else "OK"


def _pair_input(args, table_n: int) -> tuple[int, int]:
    """The two table inputs, from hex positionals or binary files."""
    if args.x1 is not None and args.x2 is not None:
        v1, v2, n1 = _hex_pair(args.x1, args.x2)
        if n1 != table_n:
            raise ParameterError(f"inputs are {n1}-bit but the table needs {table_n}")
        return v1, v2
    if args.x1_file and args.x2_file:
        bits = table_n if args.bits is None else args.bits
        if bits != table_n:
            raise ParameterError(f"--bits {bits} does not match table n={table_n}")
        return (
            _read_bits_file(args.x1_file, bits),
            _read_bits_file(args.x2_file, bits),
        )
    raise ParameterError("supply x1 x2 as hex or --x1-file/--x2-file")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_extend(args) -> int:
    x1, x2, n = _hex_pair(args.x1, args.x2)
    params = field_params(n)
    if args.count is None and args.k >= n:  # n^k >= 2^n: too many, and too big to build
        raise ParameterError(f"--k {args.k}: n^k outputs exceed 2^{n} - 1")
    count = args.count if args.count is not None else n**args.k
    req = extend.ExtendRequest(x1, x2, count, params)
    width = _hex_width(n)
    for z in extend.iter_extend(req):
        print(f"{z:0{width}x}")
    return 0


def _cmd_table_search(args) -> int:
    from . import btable

    spec = btable.BalanceSpec(S=args.S, shift_bound=args.shift_bound)
    strategy = "random" if args.mode == "sampled" else "exhaustive"
    kw = _verify_kw(args)
    result = btable.search_table(args.n, args.m, spec, strategy, **kw)
    _print_seed(kw)
    if isinstance(result, btable.SearchFailure):
        print(str(result))
        return 1
    sidecar = dict(kw, mode=strategy, spec=spec)
    del sidecar["budget"]
    btable.write_table(result, args.out, sidecar)
    print(f"wrote {args.out}")
    print(f"provenance {result.provenance}")
    return 0


def _format_witness(witness) -> str:
    def ints(seq):
        return ",".join(str(v) for v in seq)

    if len(witness) == 3:
        B1, B2, a = witness
        return f"condition=single-color B1={ints(B1)} B2={ints(B2)} a={a}"
    B1, B2, a, b, i, j = witness
    return (
        f"condition=shifted-pair B1={ints(B1)} B2={ints(B2)} "
        f"a={a} b={b} i={i} j={j}"
    )


def _cmd_table_verify(args) -> int:
    from . import btable

    table = btable.read_table(args.table)
    spec = btable.BalanceSpec(S=args.S, shift_bound=args.shift_bound)
    kw = _verify_kw(args)
    result = btable.verify_color_bound(table, spec, args.mode, **kw)
    if result.ok:
        result = btable.verify_shift_pair_bound(table, spec, args.mode, **kw)
    _print_seed(kw)
    if not result.ok:
        print(f"VIOLATION {_format_witness(result.witness)} count={result.count}")
        return 1
    print(_no_violation(kw))
    return 0


def _cmd_table_schedule(args) -> int:
    from . import schedule

    sched = schedule.derive_table_schedule(args.n, args.k, args.s, args.alpha)
    print(f"m {sched.m}")
    print(f"S 2^{sched.S.bit_length() - 1}")
    print(f"t {sched.t}")
    return 0


def _cmd_table_apply(args) -> int:
    from . import btable

    table = btable.read_table(args.table)
    x1, x2 = _pair_input(args, table.n)
    outputs = btable.apply_table(x1, x2, table, args.count)
    width = _hex_width(table.m)
    for z in outputs:
        print(f"{z:0{width}x}")
    return 0


def _cmd_condense_apply(args) -> int:
    from . import btable, condense, schedule

    table = btable.read_table(args.table)
    x, y = _pair_input(args, table.n)
    c = schedule.DEFAULT_C if args.c is None else args.c
    sched = schedule.CondenseSchedule(n=table.n, delta=args.delta, alpha=args.alpha, c=c)
    result = condense.apply_condenser(x, y, table, sched)
    print(f"{result.z:0{_hex_width(table.m)}x}")
    print(f"claimed_floor {result.claimed_floor}")
    return 0


def _cmd_condense_verify(args) -> int:
    from . import btable, condense, schedule

    table = btable.read_table(args.table)
    colors = (
        range(table.M) if args.colors is None else _int_list(args.colors, "--colors")
    )
    c = schedule.DEFAULT_C if args.c is None else args.c
    kw = _verify_kw(args)
    report = condense.verify_balance(
        table, args.delta, args.epsilon, c, colors, args.mode, **kw
    )
    _print_seed(kw)
    if report.ok:  # a sampled ratio bounds the true one from below
        relation = ">=" if "trials" in kw else "="
        print(f"{_no_violation(kw)} worst_ratio{relation}{report.worst_ratio:.12g}")
        return 0
    B1, B2 = report.witness
    print(
        f"VIOLATION worst_ratio={report.worst_ratio:.12g} "
        f"B1={','.join(map(str, B1))} B2={','.join(map(str, B2))}"
    )
    return 1


def _cmd_condense_deficit(args) -> int:
    from . import btable, condense

    table = btable.read_table(args.table)
    rows = range(table.N) if args.rows is None else _int_list(args.rows, "--rows")
    cols = range(table.N) if args.cols is None else _int_list(args.cols, "--cols")
    deficit = condense.min_entropy_deficit(table, rows, cols)
    print(f"{deficit:.12g}")
    return 0


def _read_file(path: str) -> bytes:
    if "\0" in path:  # open() raises ValueError, not OSError, on these
        raise ParameterError(f"{path!r}: a file name cannot hold a NUL byte")
    with open(path, "rb") as fh:
        return fh.read()


def _read_text(path: str) -> str:
    try:
        return _read_file(path).decode()
    except UnicodeDecodeError as exc:
        raise DecodeError(f"{path}: not UTF-8 text", exc.start) from None


def _cmd_estimate_k(args) -> int:
    comp = kproxy.get_backend(args.backend)
    if args.manifest:
        lines = _read_text(args.manifest).splitlines()
        paths = [line.strip() for line in lines if line.strip()]
        for path in paths:
            print(f"{path} {kproxy.k_estimate(_read_file(path), comp)}")
        return 0
    if args.file is None:
        raise ParameterError("supply a file or --manifest")
    print(f"k {kproxy.k_estimate(_read_file(args.file), comp)}")
    return 0


def _cmd_estimate_dep(args) -> int:
    comp = kproxy.get_backend(args.backend)
    est = kproxy.dependency(
        _read_file(args.file1), _read_file(args.file2), comp, args.alpha
    )
    for name in ("kx", "ky", "kxy", "dep_raw", "dep", "alpha_x", "alpha_y"):
        print(f"{name} {getattr(est, name)}")
    print("INDEPENDENT" if est.verdict else "DEPENDENT")
    return 0 if est.verdict else 1


def _cmd_estimate_symmetry(args) -> int:
    comp = kproxy.get_backend(args.backend)
    diag = kproxy.symmetry_diagnostic(
        _read_file(args.file1), _read_file(args.file2), comp
    )
    print(f"lhs_drop {diag.lhs_drop}")
    print(f"rhs_drop {diag.rhs_drop}")
    print(f"abs_diff {diag.abs_diff}")
    return 0


def _cmd_dist_push(args) -> int:
    import numpy as np

    from . import btable, stats

    budget = _budget(args, stats.DEFAULT_ENUM_BUDGET)
    if args.map == "table":
        if args.table is None:
            raise ParameterError("--map table needs --table")
        table = btable.read_table(args.table)
        cells = table.cells
        dist = stats.count_rows(lambda x1: cells[x1].ravel(), table.n, table.m, budget)
    else:
        if args.n is None:
            raise ParameterError(f"--map {args.map} needs --n")
        n = args.n
        params = field_params(n)
        stats.check_pushforward_budget(n, budget)  # before any N-entry table
        # xor is the extend map at index 1, whose element is the identity
        indices = {"xor": [1], "extend": [args.i], "extend-pair": [args.i, args.j]}[args.map]
        if None in indices:
            flags = " and ".join(("--i", "--j")[:len(indices)])
            raise ParameterError(f"--map {args.map} needs {flags}")
        for index in indices:
            extend.ExtendRequest(0, 0, index, params)  # range-checks it as `extend` does
        cols = [np.array(multiples(e, 1 << n, params), np.uint64) for e in indices]

        def rows(x1):  # z_i (and z_j) at every (x1, x2), z = x1 ^ cols[k][x2]
            z = [x1[:, None] ^ col for col in cols]
            return (z[0] << np.uint64(n) | z[1] if len(z) == 2 else z[0]).ravel()

        dist = stats.count_rows(rows, n, n * len(cols), budget)
    if args.out:
        with open(args.out, "wb") as fh:
            for block in stats._text_blocks(dist):  # one block of the text at a time
                fh.write(block)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(stats.dist_to_text(dist))
    return 0


def _cmd_dist_mindent(args) -> int:
    from . import stats

    dist = stats.dist_from_text(_read_text(args.dist))
    print(f"{stats.min_entropy(dist):.12g}")
    return 0


def _cmd_dist_sd(args) -> int:
    from . import stats

    d1, d2 = (stats.dist_from_text(_read_text(p)) for p in (args.dist1, args.dist2))
    sd = stats.statistical_distance(d1, d2)
    print(f"{sd.numerator}/{sd.denominator}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_pair_input_flags(p):
    p.add_argument("x1", nargs="?", help="first input, hex")
    p.add_argument("x2", nargs="?", help="second input, hex")
    p.add_argument("--x1-file", help="first input as a raw binary file")
    p.add_argument("--x2-file", help="second input as a raw binary file")
    p.add_argument("--bits", type=int, help="bit length for file inputs")


_CHECK_MODES = ("exhaustive = a proof over all row subsets (prints OK); sampled = a search "
                "of --trials random row subsets for a violation (UNREFUTED if none)")


def _add_verify_flags(p, mode="exhaustive", trials=1000, modes=_CHECK_MODES):
    p.add_argument("--mode", choices=["exhaustive", "sampled"], default=mode, help=modes)
    p.add_argument("--trials", type=int, default=trials)
    p.add_argument("--seed", type=int)
    p.add_argument("--budget", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kextract",
        description="pairwise-independence constructions, balanced tables, "
        "and compression-based dependency estimates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extend", help="expand two equal-length hex seeds")
    p.add_argument("x1", help="first seed, hex")
    p.add_argument("x2", help="second seed, hex")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--count", type=int, help="number of outputs")
    g.add_argument("--k", type=int, help="produce n^k outputs")
    p.set_defaults(fn=_cmd_extend)

    table = sub.add_parser("table", help="balanced-table search/verify/apply")
    tsub = table.add_subparsers(dest="table_command", required=True)

    p = tsub.add_parser("search", help="search for a balanced table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--S", type=int, required=True)
    p.add_argument("--shift-bound", type=int, required=True)
    modes = "sampled = --trials random tables, exhaustive = every table in order"
    _add_verify_flags(p, "sampled", 10**4, modes)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_table_search)

    p = tsub.add_parser("verify", help="verify both balance bounds")
    p.add_argument("--table", required=True)
    p.add_argument("--S", type=int, required=True)
    p.add_argument("--shift-bound", type=int, required=True)
    _add_verify_flags(p)
    p.set_defaults(fn=_cmd_table_verify)

    p = tsub.add_parser(
        "schedule", help="derive output length, rectangle side, and slack"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.set_defaults(fn=_cmd_table_schedule)

    p = tsub.add_parser("apply", help="emit T(x1+j, x2) for j = 1..count")
    p.add_argument("--table", required=True)
    _add_pair_input_flags(p)
    p.add_argument("--count", type=int, required=True, help="1..N")
    p.set_defaults(fn=_cmd_table_apply)

    cond = sub.add_parser("condense", help="condenser-table pipelines")
    csub = cond.add_subparsers(dest="condense_command", required=True)

    p = csub.add_parser("apply", help="z = T(x, y) plus the claimed floor")
    p.add_argument("--table", required=True)
    _add_pair_input_flags(p)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--c", type=int)
    p.set_defaults(fn=_cmd_condense_apply)

    p = csub.add_parser("verify", help="check the colored-cell balance bound")
    p.add_argument("--table", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--c", type=int)
    p.add_argument("--colors", help="comma-separated colors (default: all)")
    _add_verify_flags(p)
    p.set_defaults(fn=_cmd_condense_verify)

    p = csub.add_parser("deficit", help="min-entropy deficit on a rectangle")
    p.add_argument("--table", required=True)
    p.add_argument("--rows", help="comma-separated rows (default: all)")
    p.add_argument("--cols", help="comma-separated columns (default: all)")
    p.set_defaults(fn=_cmd_condense_deficit)

    est = sub.add_parser("estimate", help="compression-based estimates")
    esub = est.add_subparsers(dest="estimate_command", required=True)

    p = esub.add_parser("k", help="complexity estimate of files")
    p.add_argument("file", nargs="?")
    p.add_argument(
        "--manifest", help="plain-text corpus manifest, one file path per line"
    )
    p.add_argument("--backend", default=kproxy.DEFAULT_BACKEND)
    p.set_defaults(fn=_cmd_estimate_k)

    p = esub.add_parser("dep", help="dependency estimate of two files")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--backend", default=kproxy.DEFAULT_BACKEND)
    p.add_argument("--alpha", type=float, required=True, help="bits")
    p.set_defaults(fn=_cmd_estimate_dep)

    p = esub.add_parser("symmetry", help="directional-drop diagnostic")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--backend", default=kproxy.DEFAULT_BACKEND)
    p.set_defaults(fn=_cmd_estimate_symmetry)

    dist = sub.add_parser("dist", help="exact distribution utilities")
    dsub = dist.add_subparsers(dest="dist_command", required=True)

    p = dsub.add_parser("push", help="exact pushforward of a named map")
    p.add_argument(
        "--map", choices=["xor", "extend", "extend-pair", "table"], required=True
    )
    p.add_argument("--n", type=int)
    p.add_argument("--i", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--table")
    p.add_argument("--budget", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_dist_push)

    p = dsub.add_parser("mindent", help="min-entropy of a serialized distribution")
    p.add_argument("dist")
    p.set_defaults(fn=_cmd_dist_mindent)

    p = dsub.add_parser("sd", help="statistical distance of two distributions")
    p.add_argument("dist1")
    p.add_argument("dist2")
    p.set_defaults(fn=_cmd_dist_sd)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (KextractError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not an analytic negative: never exit 1
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"internal error: {message}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
