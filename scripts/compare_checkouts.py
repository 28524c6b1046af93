#!/usr/bin/env python3
"""Compare what two checkouts' CLIs print and write, byte for byte.

For each checkout root the script starts one child process with
PYTHONPATH=<root>/src.  The child runs a fixed list of command lines
through ``kextract.cli.main``, one after another in a fresh directory.
The script then reports every command whose stdout, stderr, exit code
or written file bytes differ between the two, and exits 1 if any do.

The list is the README command matrix, then seeded points taken in turn
from five kinds: ``table verify`` at n = 2..4 and shift bounds 2..4,
exhaustive (at the default budget, and at ``--budget 1``, which refuses
every check that the row and column bound leaves open) and sampled
(trials below and at least C(N, S)), random and exhaustive ``table
search``, ``condense verify``, exhaustive runs at n = 5 with a
raised ``--budget``, field points and schedule points.  At S = 5 the
n = 5 runs' C(32, 5) * 5 row-subset entries pass
``btable.SUBSET_TABLE_ENTRIES``, so the scan streams its row subsets;
at S = 4 it reads the cached table, so both of the kernel's row sources
are diffed.  The field points are ``extend``
at n = 16, 36 and 64 (4, 9 and 16 hex digits) with ``--count 4097``,
one past ``extend.EXTEND_BLOCK``, so a block head calls
``gf2n.mul_bits`` (x2 has its top bit set, so at n = 16 the product
needs a second fold), and ``dist push --map extend-pair --n 5 --i 3
--j 9``, whose columns come from ``gf2n.multiples``.  The schedule
points are ``table schedule`` at ``--n 16777216`` and ``--n 16777217``,
on both sides of ``schedule.MAX_SCHEDULE_N``, one run whose s breaks
the hypothesis (6k + 15) * ceil(log2 n) < s and one whose m is below 1,
and ``condense apply`` at ``--c 3`` and at ``--c 400``, whose slack is
past float range.  The script writes every input file itself, so both
children read the same bytes.

Example:
    python scripts/compare_checkouts.py ../parent .
    python scripts/compare_checkouts.py . . --points 8
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

README = [
    "extend 05 03 --count 1",
    "extend 05 03 --k 1",
    "table search --n 3 --m 1 --S 4 --shift-bound 2 --seed 2026 --out t.ktb",
    "table verify --table t.ktb --S 4 --shift-bound 2",
    "table apply --table t.ktb --x1-file x1.bin --x2-file x2.bin --bits 3 --count 2",
    "table schedule --n 1024 --k 1 --s 1024 --alpha 12",
    "condense apply --table c.ktb 7 9 --alpha 2 --delta 0.5",
    "condense verify --table c.ktb --delta 0.5 --epsilon 0.25 --c 1",
    "condense deficit --table c.ktb --rows 1 --cols 0,1,2,3",
    "estimate k data.bin",
    "estimate dep a.bin b.bin --alpha 64",
    "estimate symmetry a.bin b.bin",
    "dist push --map extend-pair --n 2 --i 1 --j 2 --out pair.dist",
    "dist push --map xor --n 2 --out other.dist",
    "dist mindent pair.dist",
    "dist sd pair.dist other.dist",
]

# (n, m, S, colors used, seed) of the tables that seeded points verify;
# at shift bound 4 the seeds give passes and first violations at the
# single-color check and at the pairs (1, 2), (1, 3) and (1, 4)
TABLES = [
    (2, 1, 2, 2, 0), (2, 1, 2, 2, 25), (2, 2, 3, 2, 0), (2, 2, 3, 4, 2),
    (3, 1, 5, 2, 8), (3, 1, 5, 2, 10), (3, 1, 5, 2, 38), (3, 2, 6, 2, 0), (3, 2, 6, 4, 0),
    (4, 1, 8, 2, 1), (4, 1, 8, 2, 7), (4, 1, 8, 2, 18), (4, 1, 10, 2, 0), (4, 1, 10, 2, 15),
    (4, 1, 10, 2, 84), (4, 2, 8, 2, 0), (4, 2, 8, 4, 1),
]

# (m, colors used, seed) of the n=5 tables of the raised-budget points;
# with --colors 1, condense verify on tables 1 and 2 walks past row 0
WIDE = [(1, 2, 0), (2, 4, 0), (2, 3, 1)]

# GF(2^n) arithmetic past the README's n = 2 (see the module docstring)
FIELD = [
    "extend 1234 beef --count 4097",
    "extend 2468ace01 9c0ffee11 --count 4097",
    "extend 0123456789abcdef fedcba9876543210 --count 4097",
    "dist push --map extend-pair --n 5 --i 3 --j 9 --out field.dist",
]


# the closed-form schedules of ``kextract.schedule`` (see the module docstring)
SCHEDULE = [
    "table schedule --n 16777216 --k 1 --s 16777216 --alpha 3",
    "table schedule --n 16777217 --k 1 --s 16777216 --alpha 3",
    "table schedule --n 1024 --k 1 --s 210 --alpha 0",
    "table schedule --n 1024 --k 1 --s 211 --alpha 0",
    "condense apply --table c.ktb 7 9 --alpha 2 --delta 0.5 --c 3",
    "condense apply --table c.ktb 7 9 --alpha 2 --delta 0.5 --c 400",
]


def _points() -> list:
    verify, search, condense, wide = [], [], [], []
    for k, (n, m, S, _, _) in enumerate(TABLES):
        every = math.comb(1 << n, S)
        for r in range(2, 5):
            base = f"table verify --table t{k}.ktb --S {S} --shift-bound {r}"
            verify += [base, f"{base} --budget 1", f"{base} --mode sampled --trials 7 --seed {r}",
                       f"{base} --mode sampled --trials {every} --seed {r}"]
        cbase = f"condense verify --table t{k}.ktb --delta 0.5 --epsilon 0.25 --c 1"
        condense.append(f"{cbase} --colors 0" if k % 2 else f"{cbase} --mode sampled --trials 9 --seed {k}")
    for k, (n, m, S, r) in enumerate([(2, 1, 2, 2), (3, 1, 4, 3), (3, 1, 6, 4), (3, 2, 4, 2),
                                      (4, 1, 10, 3), (4, 1, 8, 4), (4, 2, 6, 2)]):
        search.append(f"table search --n {n} --m {m} --S {S} --shift-bound {r} "
                      f"--trials 40 --seed {k} --out s{k}.ktb")
    for n, S, r in [(1, 1, 2), (1, 2, 2), (2, 2, 2), (2, 3, 3), (2, 2, 4)]:
        search.append(f"table search --n {n} --m 1 --S {S} --shift-bound {r} --mode exhaustive --out e{n}{S}{r}.ktb")
    for k in range(len(WIDE)):
        wide += [f"table verify --table w{k}.ktb --S 5 --shift-bound 3 --budget {10**11}",
                 f"table verify --table w{k}.ktb --S 4 --shift-bound 3 --budget {10**10}",
                 f"condense verify --table w{k}.ktb --delta 0.45 --epsilon 0.25 --c 1 --colors 1 --budget {10**11}"]
    wide.append(f"table search --n 5 --m 1 --S 5 --shift-bound 2 --trials 3 --seed 0 --budget {10**11} --out w.ktb")
    kinds = itertools.zip_longest(verify, search, condense, wide, FIELD, SCHEDULE)
    return [line for line in itertools.chain.from_iterable(kinds) if line]


POINTS = _points()


def _kxtb(n: int, m: int, cells: list) -> bytes:
    """A KXTB file: the header, then the m-bit cells packed row-major,
    least significant bit first."""
    body = sum(c << (k * m) for k, c in enumerate(cells))
    return b"KXTB" + bytes([1, n, m]) + body.to_bytes((len(cells) * m + 7) // 8, "little")


def _write_inputs() -> None:
    rng = random.Random(2026)
    text = bytes(rng.choice(b"abcdefgh") for _ in range(8192))
    files = {
        "x1.bin": bytes([0b10100000]),
        "x2.bin": bytes([0b01100000]),
        "a.bin": text,
        "b.bin": text[:4096] + rng.randbytes(4096),
        "data.bin": text + rng.randbytes(2048),
        "c.ktb": _kxtb(4, 2, [rng.randrange(4) for _ in range(256)]),
    }
    for k, (n, m, _, used, seed) in enumerate(TABLES):
        cells = random.Random(seed)
        files[f"t{k}.ktb"] = _kxtb(n, m, [cells.randrange(used) for _ in range(1 << 2 * n)])
    for k, (m, used, seed) in enumerate(WIDE):
        cells = random.Random(seed)
        files[f"w{k}.ktb"] = _kxtb(5, m, [cells.randrange(used) for _ in range(1 << 10)])
    for name, data in files.items():
        Path(name).write_bytes(data)


def _snapshot() -> dict:
    return {
        p.name: (p.stat().st_mtime_ns, hashlib.sha256(p.read_bytes()).hexdigest())
        for p in Path(".").iterdir()
    }


def child(workdir: str, out: str, points: int) -> None:
    """Run the command list in workdir; write the records to out as JSON."""
    import kextract
    from kextract.cli import main

    os.chdir(workdir)
    _write_inputs()
    records = []
    before = _snapshot()
    for line in README + POINTS[:points]:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(line.split())
        after = _snapshot()
        written = {name: after[name][1] for name in sorted(after) if before.get(name) != after[name]}
        records.append([line, code, stdout.getvalue(), stderr.getvalue(), written])
        before = after
    with open(out, "w") as fh:
        json.dump({"module": kextract.__file__, "records": records}, fh)


def _run(root: Path, points: int) -> list:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("KEXTRACT_BUDGET", None)
    with tempfile.TemporaryDirectory() as workdir:
        out = Path(workdir) / "records.json"
        run = Path(workdir) / "run"
        run.mkdir()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child", str(run), str(out), str(points)],
            env=env, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise SystemExit(f"{root}: the child failed (exit {proc.returncode}):\n{proc.stderr}")
        result = json.loads(out.read_text())
    if not Path(result["module"]).resolve().is_relative_to(root):
        raise SystemExit(f"{root}: the child imported kextract from {result['module']}")
    return result["records"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="first checkout root")
    parser.add_argument("b", help="second checkout root")
    parser.add_argument("--points", type=int, default=len(POINTS),
                        help=f"seeded points to run after the README matrix (default: all {len(POINTS)})")
    args = parser.parse_args()
    runs = [_run(Path(root).resolve(), args.points) for root in (args.a, args.b)]
    diffs = 0
    for ra, rb in zip(*runs):
        for field, x, y in zip(("exit code", "stdout", "stderr", "files"), ra[1:], rb[1:]):
            if x != y:
                diffs += 1
                print(f"{ra[0]}\n  {field}: {str(x)[:300]!r}\n  {' ' * len(field)}  {str(y)[:300]!r}")
    print(f"{len(runs[0])} commands ({len(README)} README, {len(runs[0]) - len(README)} seeded), "
          f"{diffs} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2], sys.argv[3], int(sys.argv[4]))
    else:
        sys.exit(main())
