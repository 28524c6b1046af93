#!/usr/bin/env python3
"""Compare what two checkouts' CLIs print and write, byte for byte.

For each checkout root the script starts one child process with
PYTHONPATH=<root>/src.  The child runs a fixed list of command lines
through ``kextract.cli.main``, one after another in a fresh directory.
The script then reports every command whose stdout, stderr, exit code
or written file bytes differ between the two, and exits 1 if any do.

The list is the README command matrix, then seeded points taken in turn
from seven kinds: ``table verify`` at n = 2..4 and shift bounds 2..4,
exhaustive (at the default budget, and at ``--budget 1``, which refuses
every check that the row and column bound leaves open) and sampled
(trials below and at least C(N, S)), random and exhaustive ``table
search``, ``condense verify``, exhaustive runs at n = 5 with a
raised ``--budget``, field points, schedule points and dist points.
At S = 5 the n = 5 runs' C(32, 5) * 5 row-subset entries pass
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
past float range.  The dist points run ``dist mindent`` on seven files
and ``dist sd`` on two of them: a 2^17-line file as ``dist_to_text``
writes it, past one ``stats.TEXT_CHUNK``, its copies with CRLF line
ends and with double spaces, which the line reader takes, its copies
with an unreadable line and with a repeated outcome in the second
chunk, a file with a 19-digit denominator and one with a 20-digit
zero-padded outcome.  The script writes every input file itself, so
both children read the same bytes.

The chunk points come last, after the kinds above.  ``table search``
draws its random candidates in chunks of 1, 4, 16, 64, ... tables, so
chunks start at trials 1, 5, 21, 85 and 341; each point's first passing
trial is one of those or just past one, and one point stops one trial
short of its hit at 341.  The passing-heavy points at n = 4, m = 1 and
S = 10..12 pass at trial 0 or 1, where a chunk scans every passing
table in full.  The seed points follow: 300-trial random ``table
search`` runs at n = 3 and 4 with seeds 2^32 - 1, 2^32, 2^64 + 5 and
2^96 + 5, of 1 to 4 words, so each trial's SeedSequence entropy, the
seed's words then the trial's, takes every length from 2 to 5 words
and the pool hash mixes a fifth word in.

The wide-color points come last: exhaustive and sampled ``table
verify`` on n = 2, m = 3, on n = 3, m = 8 and on n = 2, m = 31 tables,
and random ``table search`` at n = 2, m = 3 and at n = 1, m = 31.  Each
reaches a check with more labels than its grids hold cells, where the
scan counts only the labels that occur, renumbered, and reports them in
the caller's numbering: the single-color check at m = 8 and m = 31 (256
and 2^31 colors on 64 and 16 cells), and at m = 3 the pair check (64
pair labels on 16 cells), which the n = 2, m = 3 table reaches because
each color fills two of its cells, and the search on every stack of
fewer than four tables that passes the single-color check; larger
stacks, with 64 cells or more, scan their pair labels as given.

The wide condenser points come next: ``condense verify`` and
``condense deficit`` on two n = 2, m = 20 tables, one of four colors in
equal shares and one of sixteen random colors.  ``condense verify``
runs with no ``--colors``, so every one of the 2^20 colors, exhaustive,
sampled and at ``--budget 1``, and with two of the colors that occur;
``condense deficit`` runs on the whole table and on two rows by three
columns.  None of them is wider than m = 20, so a checkout that builds
an array with an entry per color still runs them in well under a
second.

The every-color points follow: ``condense verify`` without ``--colors``
on an n = 6, m = 2 table (R = 8) and an n = 7, m = 3 table (R = 5),
exhaustive at a raised ``--budget``, sampled, and at n = 6 once at the
default budget, which refuses it.  With every color counted, each
rectangle holds R^2 cells of A; a checkout may answer from the bound or
build the all-ones grid and scan it, and both print the same line.

The full-chunk points close the list: random ``table search`` runs at
m = 1 and m = 2 whose trials run into the chunk that starts at trial
341 or past it, so a draw of a whole chunk of the largest size is
diffed: hits at trials 526 (n = 3, m = 1, in a chunk of 1024), 345 and
528 (n = 4, m = 2, in chunks of 256), and misses over 1400 trials at
n = 3, m = 1 and over 900 at n = 3, m = 2 (a chunk of 512).

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


# distribution text that each of dist_from_text's two readers takes (see
# the module docstring); _write_inputs writes the files
DIST = [f"dist mindent {name}" for name in (
    "big.dist", "crlf.dist", "spaced.dist", "badline.dist", "repeat.dist", "den19.dist", "pad20.dist",
)] + ["dist sd big.dist spaced.dist"]


# random table searches whose first hit is the first table of a chunk
# (trials 1, 5, 21, 85 and 341) or just past it, then passing-heavy ones
# at n = 4 (see the module docstring)
SEARCH_CHUNKS = [
    f"table search --n {n} --m 1 --S {S} --shift-bound {r} --trials {trials} --seed {seed} --out h{k}.ktb"
    for k, (n, S, r, trials, seed) in enumerate([
        (3, 5, 2, 400, 10), (4, 8, 2, 400, 17), (3, 5, 3, 400, 52), (3, 4, 2, 400, 458),
        (3, 4, 2, 400, 227), (3, 4, 2, 400, 520), (3, 4, 2, 341, 227),
        (4, 12, 2, 300, 0), (4, 11, 2, 300, 1), (4, 10, 3, 300, 9), (4, 10, 3, 300, 2),
    ])
]

# seeds of 1 to 4 32-bit words, so the trials' SeedSequence entropy
# takes every length from 2 to 5 words
SEED_WORDS = [
    f"table search --n {n} --m 1 --S {S} --shift-bound 2 --trials 300 --seed {seed} --out v{k}.ktb"
    for k, (seed, (n, S)) in enumerate(itertools.product([2**32 - 1, 2**32, 2**64 + 5, 2**96 + 5], [(3, 4), (4, 8)]))
]

# (n, m, S, palette) of the wide-color tables, each cell a palette color
# in equal shares: each table has a check with more labels than cells,
# where the scan renumbers the labels that occur (see the module docstring)
WIDE_COLOR_TABLES = [(2, 3, 3, range(8)), (3, 8, 3, range(0, 256, 37)), (2, 31, 2, (7, 2**30 + 5, 2**31 - 1))]

WIDE_COLORS = [
    f"table verify --table x{k}.ktb --S {S} --shift-bound 3{mode}"
    for k, (_, _, S, _) in enumerate(WIDE_COLOR_TABLES)
    for mode in ("", f" --mode sampled --trials 5 --seed {k}")
] + [
    "table search --n 2 --m 3 --S 4 --shift-bound 2 --trials 40 --seed 3 --out x3.ktb",
    "table search --n 1 --m 31 --S 1 --shift-bound 2 --trials 20 --seed 5 --out x4.ktb",
]

# the palettes of the n = 2, m = 20 tables of the wide condenser points,
# each cell a palette color in equal shares (see the module docstring)
CONDENSE_PALETTES = [(7, 2**19 + 1, 2**20 - 1, 77777), tuple(random.Random(20).sample(range(2**20), 16))]

WIDE_CONDENSE = [
    line
    for k, palette in enumerate(CONDENSE_PALETTES)
    for line in [f"condense verify --table z{k}.ktb --delta 0.5 --epsilon 0.25 --c 1{flags}" for flags in (
        "", f" --mode sampled --trials 3 --seed {k}", " --budget 1", f" --colors {palette[1]},{palette[0]}",
    )] + [f"condense deficit --table z{k}.ktb", f"condense deficit --table z{k}.ktb --rows 0,3 --cols 1,2,3"]
]

# (n, m, delta, seed) of the every-color condenser tables, random cells
# (see the module docstring)
EVERY_COLOR_TABLES = [(6, 2, 0.5, 0), (7, 3, 0.3, 1)]

EVERY_COLOR = [
    f"condense verify --table y{k}.ktb --delta {delta} --epsilon 0.25 --c 1{flags}"
    for k, (_, _, delta, _) in enumerate(EVERY_COLOR_TABLES)
    for flags in (f" --budget {10**20}", f" --mode sampled --trials 5 --seed {k}")
] + ["condense verify --table y0.ktb --delta 0.5 --epsilon 0.25 --c 1"]

# random table searches that draw a chunk of the largest size (see the
# module docstring)
FULL_CHUNKS = [
    f"table search --n {n} --m {m} --S {S} --shift-bound {r} --trials {trials} --seed {seed} --out f{k}.ktb"
    for k, (n, m, S, r, trials, seed) in enumerate([
        (3, 1, 4, 3, 1400, 11), (4, 2, 12, 2, 400, 27), (4, 2, 12, 2, 600, 9),
        (3, 1, 3, 2, 1400, 0), (3, 2, 5, 2, 900, 0),
    ])
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
    kinds = itertools.zip_longest(verify, search, condense, wide, FIELD, SCHEDULE, DIST)
    return [line for line in itertools.chain.from_iterable(kinds) if line] + (
        SEARCH_CHUNKS + SEED_WORDS + WIDE_COLORS + WIDE_CONDENSE + EVERY_COLOR + FULL_CHUNKS
    )


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
    for k, (n, m, _, palette) in enumerate(WIDE_COLOR_TABLES):
        cells = [palette[i % len(palette)] for i in range(1 << 2 * n)]
        random.Random(k).shuffle(cells)
        files[f"x{k}.ktb"] = _kxtb(n, m, cells)
    for k, palette in enumerate(CONDENSE_PALETTES):
        cells = [palette[i % len(palette)] for i in range(16)]
        random.Random(k).shuffle(cells)
        files[f"z{k}.ktb"] = _kxtb(2, 20, cells)
    for k, (n, m, _, seed) in enumerate(EVERY_COLOR_TABLES):
        cells = random.Random(seed)
        files[f"y{k}.ktb"] = _kxtb(n, m, [cells.randrange(1 << m) for _ in range(1 << 2 * n)])
    # 2^17 lines of 15 bytes, so line 100000 is in the second TEXT_CHUNK
    lines = [f"{v:05x} 1/131072\n" for v in range(1 << 17)]
    big = "bits 17\n" + "".join(lines)
    dists = {
        "big.dist": big,
        "crlf.dist": big.replace("\n", "\r\n"),
        "spaced.dist": big.replace(" ", "  "),
        "badline.dist": big.replace(lines[100000], "186a0 1/131072x\n"),
        "repeat.dist": big.replace(lines[100000], lines[5]),
        "den19.dist": "bits 1\n0 1/9223372036854775807\n1 9223372036854775806/9223372036854775807\n",
        "pad20.dist": "bits 4\n" + "0" * 19 + "1 1/2\n2 1/2\n",
    }
    files.update((name, text.encode()) for name, text in dists.items())
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
