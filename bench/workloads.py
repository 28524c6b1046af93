"""The four benchmark workloads, built from a seed.

Each ``build_<name>(workdir, seed)`` writes its input files into
``workdir`` and returns one cycle of jobs.  The harness repeats whole
cycles, so every run of a workload executes the same mix of job kinds;
the seed only changes the tables, seeds and data inside them.

The mix of each cycle is set so that, ordered by job time, the median
job and the job with ten slower ones after it (the tail percentile the
harness reports) each sit inside a group of like jobs, at least two
places from its edge.  Then a seed or a slow moment of the host does
not flip which kind of job those metrics measure.

A job's ``run`` is the timed part: the user-level call(s) with a span
around each call into a kextract module.  ``check`` and ``digest`` run
afterwards, outside the timed region.
"""

from __future__ import annotations

import bz2
import hashlib
import lzma
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

from kextract import btable, cli, condense, extend, gf2n, stats

import checks
from checks import oracles

ROOT = Path(__file__).resolve().parent.parent

# condense verify at n=5, R=4 scans C(32,4)^2 = 1.29e9 subset pairs,
# over the 1e9 default, so it names its budget.
CONDENSE_BUDGET = 2 * 10**9


@dataclass
class Job:
    key: str
    run: Callable[[Any], Any]
    check: Callable[[Any], list]
    digest: Callable[[Any], str] = None
    argv: list = None  # cli jobs: the command line, for the in-process pass

    def digest_of(self, out) -> str:
        text = self.digest(out) if self.digest else repr(out)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, int.from_bytes(workload.encode(), "little")])


def write_table_file(path: Path, n: int, m: int, cells) -> int:
    """Write an input table as a KXTB file; returns the file's size."""
    btable.write_table(btable.Table(n, m, cells, f"constructed({path.name})"), path)
    return path.stat().st_size


# ---------------------------------------------------------------------------
# verify: exhaustive balance proofs on KXTB tables read from files
# ---------------------------------------------------------------------------

# (m, S, shift_bound, jobs per cycle) at n=4.  m=1 colour bounds are
# vacuous (M=2), so those proofs scan every row subset, and at S=11-12
# the shifted-pair scan is full too; some S=10 tables fail it.  m=2
# tables pass the colour bound after a full scan and then break the
# shifted-pair bound at once: the early-exit minority.  The median job
# is an S=12 r=2 proof, the tail job an S=12 r=3 or S=11 r=2 one.
VERIFY_TABLE_SPECS = [
    (2, 12, 2, 4), (2, 11, 3, 4), (1, 12, 2, 16), (2, 10, 2, 2),
    (1, 12, 3, 5), (1, 11, 2, 5), (1, 10, 2, 1), (1, 11, 3, 1), (1, 10, 3, 1),
]
# Condenser balance at n=5, delta=0.4 (so the side is R=4), epsilon=1/4:
# (table, c) for one proof on the stand-in table and one on a random one.
VERIFY_CONDENSE = [("standin", 1), ("random", 2)]


def table_proof(tr, path: Path, size: int, spec: btable.BalanceSpec, N: int):
    """``table verify``: read the file, then colour and shifted-pair bounds."""
    with tr.span("btable.read_table", bytes=size):
        table = btable.read_table(path)
    subsets = math.comb(N, spec.S)
    with tr.span("btable.verify_color_bound", subsets=subsets) as a:
        result = btable.verify_color_bound(table, spec)
        a["ok"] = result.ok
    if result.ok:
        pairs = spec.shift_bound * (spec.shift_bound - 1)
        with tr.span("btable.verify_shift_pair_bound", subsets=subsets * pairs) as a:
            result = btable.verify_shift_pair_bound(table, spec)
            a["ok"] = result.ok
    return result.ok, result.witness, result.count


def balance_proof(tr, path: Path, size: int, N: int, delta, epsilon, c, colors):
    """``condense verify``: read the file, then the colored-cell bound."""
    with tr.span("btable.read_table", bytes=size):
        table = btable.read_table(path)
    R = math.ceil(2.0 ** (delta * table.n))
    with tr.span("condense.verify_balance", subsets=math.comb(N, R)) as a:
        report = condense.verify_balance(
            table, delta, epsilon, c, colors, budget=CONDENSE_BUDGET
        )
        a["ok"] = report.ok
    return report.ok, report.worst_ratio, report.witness


def _table_job(key, path, cells, n, m, S, r) -> Job:
    size = write_table_file(path, n, m, cells)
    spec = btable.BalanceSpec(S, r)
    nested = cells.tolist()

    def check(out):
        ok, witness, count = out
        return [] if ok else checks.witness_problems(nested, S, 1 << m, witness, count)

    return Job(key, lambda tr: table_proof(tr, path, size, spec, 1 << n), check)


def _balance_job(key, path, cells, n, m, delta, epsilon, c, colors) -> Job:
    size = write_table_file(path, n, m, cells)
    nested = cells.tolist()
    R = math.ceil(2.0 ** (delta * n))
    bound = checks.condense_bound(len(colors), 1 << m, delta, epsilon, c, R)

    def check(out):
        return checks.balance_problems(nested, colors, R, bound, *out)

    return Job(
        key,
        lambda tr: balance_proof(tr, path, size, 1 << n, delta, epsilon, c, colors),
        check,
    )


def build_verify(workdir: Path, seed: int) -> list[Job]:
    rng = _rng(seed, "verify")
    jobs = []
    for m, S, r, count in VERIFY_TABLE_SPECS:
        for k in range(count):
            cells = rng.integers(0, 1 << m, size=(16, 16), dtype=np.uint32)
            key = f"table-m{m}-S{S}-r{r}-{k}"
            jobs.append(_table_job(key, workdir / f"{key}.ktb", cells, 4, m, S, r))
    n, m = 5, 2
    for kind, c in VERIFY_CONDENSE:
        if kind == "standin":
            cells = condense.standin_table(n, m).cells
        else:
            cells = rng.integers(0, 1 << m, size=(1 << n, 1 << n), dtype=np.uint32)
        colors = sorted(rng.choice(1 << m, size=int(rng.integers(1, 3)), replace=False).tolist())
        key = f"condense-{kind}"
        jobs.append(_balance_job(key, workdir / f"{key}.ktb", cells, n, m, 0.4, 0.25, c, colors))
    return jobs


# ---------------------------------------------------------------------------
# search: seeded random table search, hits and fixed-trial misses
# ---------------------------------------------------------------------------

# (label, n, m, S, shift_bound, trials, jobs per cycle).  The hit point
# finds a table in about one seed of three within its 300 trials; the
# cap bounds the work of an unlucky seed, and a dozen seeds per cycle
# keep the mix of hits and capped misses from swinging between runs.
# The median job is an n=3 m=2 miss, the tail job an n=4 miss or a
# capped hit-point search.
SEARCH_POINTS = [
    ("hit-n3m1S4", 3, 1, 4, 2, 300, 12),
    ("miss-n4m1S6", 4, 1, 6, 2, 3, 6),
    ("miss-n3m2S6", 3, 2, 6, 2, 200, 22),
]


def _trial(provenance: str) -> int:
    """The trial index in a ``searched(seed=...,trial=T)`` provenance."""
    return int(provenance.rsplit("trial=", 1)[1].split(")")[0])


def search_job(tr, n, m, spec, trials, seed):
    with tr.span("btable.search_table") as a:
        result = btable.search_table(n, m, spec, "random", trials=trials, seed=seed)
    if isinstance(result, btable.Table):
        a.update(hit=True, trials=_trial(result.provenance) + 1)
        return "hit", result.cells.tolist(), result.provenance
    a.update(hit=False, trials=result.trials)
    return "miss", result.trials, result.best_ratio, result.best_trial, result.best_condition


def _search_check(m, S, r, trials, seed):
    def check(out):
        if out[0] == "hit":
            _, cells, prov = out
            trial = _trial(prov)
            problems = []
            if prov != f"searched(seed={seed},trial={trial})":
                problems.append(f"provenance {prov!r} does not name seed {seed}")
            return problems + checks.search_hit_problems(cells, seed, trial, trials, 1 << m, S, r)
        _, tried, ratio, best_trial, condition = out
        problems = []
        if tried != trials:
            problems.append(f"miss after {tried} trials, asked for {trials}")
        if not (0 <= best_trial < trials and ratio > 1):
            problems.append(f"nearest miss trial={best_trial} ratio={ratio} is not a violation")
        if condition not in ("single-color", "shifted-pair"):
            problems.append(f"unknown condition {condition!r}")
        return problems

    return check


def build_search(workdir: Path, seed: int) -> list[Job]:
    rng = _rng(seed, "search")
    jobs = []
    for label, n, m, S, r, trials, count in SEARCH_POINTS:
        spec = btable.BalanceSpec(S, r)
        for k in range(count):
            s = int(rng.integers(0, 2**62))
            jobs.append(
                Job(
                    f"{label}-{k}",
                    lambda tr, n=n, m=m, spec=spec, t=trials, s=s: search_job(tr, n, m, spec, t, s),
                    _search_check(m, S, r, trials, s),
                )
            )
    return jobs


# ---------------------------------------------------------------------------
# exact: field arithmetic, exact distributions and KXTB I/O
# ---------------------------------------------------------------------------


# The pair map extends to this many outputs whatever i and j are, so a
# pipeline's cost does not depend on the seed.
PAIR_OUTPUTS = 4


def push_pipeline(tr, n: int, i: int, j: int, path: Path):
    """Pushforward of the extend pair map, text round trip, entropy tests."""
    params = gf2n.field_params(n)

    def pair(x1, x2):
        outs = extend.extend(extend.ExtendRequest(x1, x2, PAIR_OUTPUTS, params)).outputs
        return (outs[i - 1] << n) | outs[j - 1]

    with tr.span("stats.pushforward", evals=1 << (2 * n)):
        dist = stats.pushforward(pair, n, 2 * n)
    with tr.span("stats.dist_to_text") as a:
        text = stats.dist_to_text(dist)
        a["bytes"] = len(text)
    path.write_text(text)
    back = path.read_text()
    with tr.span("stats.dist_from_text", bytes=len(back)):
        dist = stats.dist_from_text(back)
    with tr.span("stats.min_entropy"):
        h = stats.min_entropy(dist)
    with tr.span("stats.Dist.uniform"):
        uniform = stats.Dist.uniform(2 * n)
    with tr.span("stats.statistical_distance"):
        sd = stats.statistical_distance(dist, uniform)
    with tr.span("stats.epsilon_close_to_min_entropy"):
        eps = stats.epsilon_close_to_min_entropy(dist, 2 * n)
    return text, back, h, sd, eps


def _push_job(key, workdir, n, i, j) -> Job:
    path = workdir / f"{key}.dist"

    def check(out):
        text, back, h, sd, eps = out
        problems = checks.uniform_dist_problems(text, 2 * n)
        if back != text:
            problems.append("dist text changed across a file round trip")
        if h != 2 * n or sd != 0 or eps != 0:
            problems.append(f"min-entropy {h}, SD {sd}, eps {eps} for a uniform pair")
        return problems

    return Job(
        key,
        lambda tr: push_pipeline(tr, n, i, j, path),
        check,
        lambda out: repr((out[0], out[2], out[3], out[4])),
    )


def field_pipeline(tr, n, x1, x2, count, pairs, mul_ops, inv_ops):
    """Bulk extend, pair inversion and direct field products at width n."""
    params = gf2n.field_params(n)
    with tr.span("extend.extend", n=n, outputs=count):
        outs = extend.extend(extend.ExtendRequest(x1, x2, count, params)).outputs
    with tr.span("extend.invert_pair", ops=len(pairs)):
        seeds = [extend.invert_pair(outs[i - 1], outs[j - 1], i, j, params) for i, j in pairs]
    with tr.span("gf2n.mul_bits", n=n, ops=len(mul_ops)):
        prods = [gf2n.mul_bits(a, b, params) for a, b in mul_ops]
    with tr.span("gf2n.inverse_bits", n=n, ops=len(inv_ops)):
        invs = [gf2n.inverse_bits(a, params) for a in inv_ops]
    return outs, seeds, prods, invs


def _field_job(key, rng, n, count, n_pairs, n_mul, n_inv) -> Job:
    top = 1 << n
    x1, x2 = (int(v) for v in rng.integers(0, top, size=2, dtype=np.uint64))
    pairs = []
    while len(pairs) < n_pairs:
        i, j = (int(v) for v in rng.integers(1, count + 1, size=2))
        if i != j:
            pairs.append((i, j))
    mul_ops = [tuple(int(v) for v in rng.integers(0, top, size=2, dtype=np.uint64)) for _ in range(n_mul)]
    inv_ops = [int(v) for v in rng.integers(1, top, size=n_inv, dtype=np.uint64)]
    modulus = gf2n.field_params(n).modulus
    sample = sorted({1, count, *(int(v) for v in rng.integers(1, count + 1, size=16))})

    def check(out):
        outs, seeds, prods, invs = out
        problems = []
        if len(outs) != count or outs[0] != x1 ^ x2:
            problems.append(f"z_1={outs[0]:#x} is not x1 XOR x2={x1 ^ x2:#x}")
        for i in sample:
            if outs[i - 1] != x1 ^ oracles.gf_mul(i, x2, modulus):
                problems.append(f"z_{i} disagrees with the schoolbook product")
        if any(s != (x1, x2) for s in seeds):
            problems.append("invert_pair did not recover the seeds")
        for (a, b), p in list(zip(mul_ops, prods))[:32]:
            if p != oracles.gf_mul(a, b, modulus):
                problems.append(f"mul_bits({a:#x}, {b:#x}) disagrees with the schoolbook product")
        for a, inv in list(zip(inv_ops, invs))[:32]:
            if oracles.gf_mul(a, inv, modulus) != 1:
                problems.append(f"inverse_bits({a:#x}) is not an inverse")
        return problems

    return Job(key, lambda tr: field_pipeline(tr, n, x1, x2, count, pairs, mul_ops, inv_ops), check)


def standin_pipeline(tr, n, m, rows, cols, path: Path, copy: Path):
    """Stand-in condenser table, KXTB write/read/write, entropy deficit."""
    size = 7 + ((1 << (2 * n)) * m + 7) // 8
    with tr.span("condense.standin_table", n=n):
        table = condense.standin_table(n, m)
    with tr.span("btable.write_table", bytes=size):
        btable.write_table(table, path)
    with tr.span("btable.read_table", bytes=size):
        loaded = btable.read_table(path)
    with tr.span("btable.write_table", bytes=size):
        btable.write_table(loaded, copy)
    with tr.span("condense.min_entropy_deficit"):
        deficit = condense.min_entropy_deficit(loaded, rows, cols)
    return loaded.cells, deficit


def _standin_job(key, workdir, rng, n, m) -> Job:
    N = 1 << n
    rows = sorted(rng.choice(N, size=N // 4, replace=False).tolist())
    cols = sorted(rng.choice(N, size=N // 4, replace=False).tolist())
    path, copy = workdir / f"{key}.ktb", workdir / f"{key}.copy.ktb"
    modulus = gf2n.field_params(n).modulus
    mask = (1 << m) - 1
    probes = [tuple(int(v) for v in rng.integers(0, N, size=2)) for _ in range(64)]

    def check(out):
        cells, deficit = out
        problems = []
        data = path.read_bytes()
        if data != copy.read_bytes():
            problems.append("KXTB write/read/write round trip is not byte-identical")
        if data[:7] != b"KXTB\x01" + bytes([n, m]):
            problems.append(f"KXTB header {data[:7]!r}")
        for x, y in probes:
            if int(cells[x, y]) != oracles.gf_mul(x, y, modulus) & mask:
                problems.append(f"stand-in cell ({x}, {y}) is not the truncated product")
        counts = np.bincount(cells[np.ix_(rows, cols)].ravel(), minlength=1 << m)
        want = m - (math.log2(int(counts.sum())) - math.log2(int(counts.max())))
        if not math.isclose(deficit, want, rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"deficit {deficit} but the cells give {want}")
        return problems

    def digest(out):
        return hashlib.sha256(path.read_bytes()).hexdigest() + repr(out[1])

    return Job(key, lambda tr: standin_pipeline(tr, n, m, rows, cols, path, copy), check, digest)


def build_exact(workdir: Path, seed: int) -> list[Job]:
    rng = _rng(seed, "exact")
    jobs = []
    # The median job is a push-n6 pipeline, the tail job a field one.
    for n, count in ((6, 6), (7, 1), (8, 1)):
        for k in range(count):
            i, j = (int(v) for v in rng.choice(np.arange(1, PAIR_OUTPUTS + 1), size=2, replace=False))
            jobs.append(_push_job(f"push-n{n}-{k}", workdir, n, i, j))
    for k in range(4):
        jobs.append(_field_job(f"field-n16-{k}", rng, 16, 65535, 200, 2000, 0))
        jobs.append(_field_job(f"field-n64-{k}", rng, 64, 8192, 200, 2000, 500))
    for n, count in ((8, 13), (9, 2), (10, 1)):
        for k in range(count):
            m = int(rng.integers(1, 4))
            jobs.append(_standin_job(f"standin-n{n}-{k}", workdir, rng, n, m))
    return jobs


# ---------------------------------------------------------------------------
# cli: the README command matrix as subprocesses
# ---------------------------------------------------------------------------


def cli_env() -> dict:
    env = dict(os.environ)
    env.pop("KEXTRACT_BUDGET", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(tr, argv: list, workdir: Path, env: dict):
    with tr.span("cli.run", command=" ".join(argv[:2])):
        proc = subprocess.run(
            [sys.executable, "-m", "kextract.cli", *argv],
            cwd=workdir, env=env, capture_output=True, text=True, timeout=120,
        )
    return proc.returncode, proc.stdout, proc.stderr


def _ceil_log2(v: int) -> int:
    return (v - 1).bit_length()


def _cli_expectations(workdir: Path, rng) -> list[tuple[list, Callable]]:
    """(argv, expect) pairs; expect(code, stdout) returns problems."""
    def exact(code_want, text_want):
        def expect(code, out):
            if code != code_want or out != text_want:
                return [f"exit {code} stdout {out[:200]!r}, expected exit {code_want} {text_want[:200]!r}"]
            return []
        return expect

    x1, x2 = (int(v) for v in rng.integers(0, 1 << 16, size=2))
    p16 = gf2n.field_params(16).modulus
    b1, b2 = (int(v) for v in rng.integers(0, 256, size=2))
    p8 = gf2n.field_params(8).modulus
    matrix = [
        (["extend", "05", "03", "--count", "1"], exact(0, "06\n")),
        (["extend", "05", "03", "--k", "1"],
         exact(0, "".join(f"{5 ^ oracles.gf_mul(i, 3, p8):02x}\n" for i in range(1, 9)))),
        (["extend", f"{x1:04x}", f"{x2:04x}", "--count", "1"], exact(0, f"{x1 ^ x2:04x}\n")),
        (
            ["extend", f"{b1:02x}", f"{b2:02x}", "--k", "1"],
            exact(0, "".join(f"{b1 ^ oracles.gf_mul(i, b2, p8):02x}\n" for i in range(1, 9))),
        ),
        (["extend", f"{x1:04x}", f"{x2:04x}", "--count", "64"],
         exact(0, "".join(f"{x1 ^ oracles.gf_mul(i, x2, p16):04x}\n" for i in range(1, 65)))),
        (["table", "schedule", "--n", "1024", "--k", "1", "--s", "1024", "--alpha", "12"],
         exact(0, f"m {1024 // 3 - 7 * 10}\nS 2^{(2 * 1024 + 2) // 3}\nt {12 + 7 * 10}\n")),
    ]

    # table search / verify / apply on small tables
    search_seed = int(rng.integers(0, 2**62))

    def expect_search(code, out):
        head = f"seed {search_seed}\n"
        if code == 1:
            return [] if out.startswith(head + "no balanced table in 300 trials") else [f"miss output {out!r}"]
        if code != 0 or not out.startswith(head + "wrote t.ktb\nprovenance searched("):
            return [f"exit {code} stdout {out!r}"]
        trial = _trial(out)
        cells = btable.read_table(workdir / "t.ktb").cells.tolist()
        return checks.search_hit_problems(cells, search_seed, trial, 300, 2, 4, 2)

    matrix.append((
        ["table", "search", "--n", "3", "--m", "1", "--S", "4", "--shift-bound", "2",
         "--trials", "300", "--seed", str(search_seed), "--out", "t.ktb"],
        expect_search,
    ))
    for name, m in (("small", 1), ("small2", 2)):
        cells = rng.integers(0, 1 << m, size=(8, 8), dtype=np.uint32)
        write_table_file(workdir / f"{name}.ktb", 3, m, cells)
        matrix.append((
            ["table", "verify", "--table", f"{name}.ktb", "--S", "4", "--shift-bound", "2"],
            _expect_table_verify(cells.tolist(), 4, 1 << m, 2),
        ))
    small = btable.read_table(workdir / "small.ktb").cells
    # hex inputs are 4 bits per digit, so the 3-bit table takes file inputs
    a1, a2 = (int(v) for v in rng.integers(0, 8, size=2))
    (workdir / "x1.bin").write_bytes(bytes([a1 << 5]))
    (workdir / "x2.bin").write_bytes(bytes([a2 << 5]))
    matrix.append((
        ["table", "apply", "--table", "small.ktb", "--x1-file", "x1.bin",
         "--x2-file", "x2.bin", "--bits", "3", "--count", "4"],
        exact(0, "".join(f"{int(small[(a1 + j) % 8, a2]):x}\n" for j in range(1, 5))),
    ))

    # condense apply / verify / deficit on a 4-bit stand-in table
    cmod = gf2n.field_params(4).modulus
    ccells = np.array([[oracles.gf_mul(x, y, cmod) & 3 for y in range(16)] for x in range(16)], dtype=np.uint32)
    write_table_file(workdir / "c.ktb", 4, 2, ccells)
    cx, cy = (int(v) for v in rng.integers(0, 16, size=2))
    eps = Fraction(1, 8 * 4**10 * 2)
    t = 2 + 10 * _ceil_log2(4) + math.ceil(((0.5 / 2) * math.log2(eps.denominator)) ** 2) + 3
    matrix.append((
        ["condense", "apply", "--table", "c.ktb", f"{cx:x}", f"{cy:x}", "--alpha", "2", "--delta", "0.5"],
        exact(0, f"{int(ccells[cx, cy]):x}\nclaimed_floor {2 - t}\n"),
    ))
    colors = [int(rng.integers(0, 4))]
    matrix.append((
        ["condense", "verify", "--table", "c.ktb", "--delta", "0.5", "--epsilon", "0.25",
         "--c", "1", "--colors", ",".join(map(str, colors))],
        _expect_condense_verify(ccells.tolist(), colors, 4, checks.condense_bound(1, 4, 0.5, 0.25, 1, 4)),
    ))
    rows = sorted(rng.choice(16, size=3, replace=False).tolist())
    cols = sorted(rng.choice(16, size=5, replace=False).tolist())
    counts = np.bincount(ccells[np.ix_(rows, cols)].ravel(), minlength=4)
    deficit = 2 - (math.log2(int(counts.sum())) - math.log2(int(counts.max())))
    matrix.append((
        ["condense", "deficit", "--table", "c.ktb", "--rows", ",".join(map(str, rows)),
         "--cols", ",".join(map(str, cols))],
        exact(0, f"{deficit:.12g}\n"),
    ))

    # exact distributions
    i, j = (int(v) for v in rng.choice(np.arange(1, 5), size=2, replace=False))
    (workdir / "unif.dist").write_text(stats.dist_to_text(stats.Dist.uniform(8)))

    def expect_push(code, out):
        if code != 0 or out != "wrote pair.dist\n":
            return [f"exit {code} stdout {out!r}"]
        return checks.uniform_dist_problems((workdir / "pair.dist").read_text(), 8)

    matrix += [
        (["dist", "push", "--map", "extend-pair", "--n", "4", "--i", str(i), "--j", str(j),
          "--out", "pair.dist"], expect_push),
        (["dist", "mindent", "pair.dist"], exact(0, "8\n")),
        (["dist", "sd", "pair.dist", "unif.dist"], exact(0, "0/1\n")),
    ]

    # compression estimates: the 64 KiB files give light commands, the
    # 512 KiB and 1 MiB files and every dep/symmetry run give heavy ones
    files = {
        "big.bin": _mixed_bytes(rng, 1 << 20),
        "mid.bin": _mixed_bytes(rng, 1 << 19),
        "a.bin": _mixed_bytes(rng, 1 << 16),
    }
    files["b.bin"] = files["a.bin"][: 1 << 15] + _mixed_bytes(rng, 1 << 15)
    for name, data in files.items():
        (workdir / name).write_bytes(data)
    a, b = files["a.bin"], files["b.bin"]
    compressors = {"lzma": lambda d: lzma.compress(d, preset=6), "bz2": lambda d: bz2.compress(d, 9)}
    for backend, comp in compressors.items():
        for name in ("a.bin", "big.bin", "mid.bin"):
            matrix.append((["estimate", "k", name, "--backend", backend], _expect_k(files[name], comp)))
        for x, y in (("a.bin", "b.bin"), ("b.bin", "a.bin")):
            matrix.append((
                ["estimate", "dep", x, y, "--alpha", "64", "--backend", backend],
                _expect_dep(files[x], files[y], comp, 64),
            ))
        matrix.append((
            ["estimate", "symmetry", "a.bin", "b.bin", "--backend", backend],
            _expect_symmetry(a, b, comp),
        ))
    # a file against itself is DEPENDENT: exit 1 (README)
    matrix.append((
        ["estimate", "dep", "a.bin", "a.bin", "--alpha", "64"],
        _expect_dep(a, a, compressors["lzma"], 64, want_code=1),
    ))
    matrix.append((
        ["estimate", "dep", "a.bin", "a.bin", "--alpha", "64", "--backend", "bz2"],
        _expect_dep(a, a, compressors["bz2"], 64),
    ))
    return matrix


def _mixed_bytes(rng, size: int) -> bytes:
    """Half random bytes, half seeded words from a small vocabulary."""
    noise = rng.integers(0, 256, size=size // 2, dtype=np.uint8).tobytes()
    words = [b"kextract", b"table", b"field", b"seed", b"bound", b"color", b"pair", b"shift"]
    picks = rng.integers(0, len(words), size=size // 8)
    text = b" ".join(words[k] for k in picks)[: size - len(noise)]
    return noise + text.ljust(size - len(noise), b".")


def _expect_table_verify(cells, S, M, r):
    def expect(code, out):
        ok_c, *_ = oracles.naive_color_verdict(cells, S, M)
        ok_s = ok_c and oracles.naive_shift_pair_verdict(cells, S, M, r)[0]
        if ok_c and ok_s:
            return [] if (code, out) == (0, "OK\n") else [f"exit {code} {out!r}, oracle says OK"]
        if code != 1 or not out.startswith("VIOLATION "):
            return [f"exit {code} {out!r}, oracle finds a violation"]
        fields = dict(kv.split("=") for kv in out.split()[1:])
        ints = lambda s: tuple(int(v) for v in s.split(","))
        if fields["condition"] == "single-color":
            witness = (ints(fields["B1"]), ints(fields["B2"]), int(fields["a"]))
        else:
            witness = (ints(fields["B1"]), ints(fields["B2"]), *(int(fields[k]) for k in "abij"))
        return checks.witness_problems(cells, S, M, witness, int(fields["count"]))
    return expect


def _expect_condense_verify(cells, colors, R, bound):
    def expect(code, out):
        words = out.split()
        if code == 0 and words[:1] == ["OK"]:
            ratio = float(words[1].split("=")[1])
            return [] if ratio <= 1 else [f"OK with worst_ratio {ratio} > 1"]
        if code != 1 or words[:1] != ["VIOLATION"]:
            return [f"exit {code} stdout {out!r}"]
        fields = dict(kv.split("=") for kv in words[1:])
        B1, B2 = (tuple(int(v) for v in fields[k].split(",")) for k in ("B1", "B2"))
        A = set(colors)
        count = sum(1 for x in B1 for y in B2 if cells[x][y] in A)
        want = (
            f"VIOLATION worst_ratio={count / bound:.12g} "
            f"B1={fields['B1']} B2={fields['B2']}\n"
        )
        problems = [] if count > bound else [f"witness count {count} within bound {bound}"]
        if len(B1) != R or len(B2) != R or out != want:
            problems.append(f"stdout {out!r}, the witness recount gives {want!r}")
        return problems
    return expect


def _expect_k(data, comp):
    def expect(code, out):
        want = f"k {8 * len(comp(data))}\n"
        return [] if (code, out) == (0, want) else [f"exit {code} {out!r}, expected {want!r}"]
    return expect


def _dep_fields(x, y, comp):
    kx, ky, kxy, kyx = (8 * len(comp(d)) for d in (x, y, x + y, y + x))
    alpha_x = max(0, kx - max(0, kyx - ky))
    alpha_y = max(0, ky - max(0, kxy - kx))
    dep_raw = kx + ky - kxy
    return kx, ky, kxy, dep_raw, max(0, dep_raw), alpha_x, alpha_y


def _expect_dep(x, y, comp, alpha, want_code=None):
    def expect(code, out):
        values = _dep_fields(x, y, comp)
        independent = values[5] <= alpha and values[6] <= alpha
        names = ("kx", "ky", "kxy", "dep_raw", "dep", "alpha_x", "alpha_y")
        want = "".join(f"{k} {v}\n" for k, v in zip(names, values))
        want += "INDEPENDENT\n" if independent else "DEPENDENT\n"
        code_want = 0 if independent else 1
        problems = []
        if want_code is not None and code_want != want_code:
            problems.append(f"expected exit {want_code} for this pair, the estimate gives {code_want}")
        if (code, out) != (code_want, want):
            problems.append(f"exit {code} {out!r}, expected exit {code_want} {want!r}")
        return problems
    return expect


def _expect_symmetry(x, y, comp):
    def expect(code, out):
        *_, ax, ay = _dep_fields(x, y, comp)
        want = f"lhs_drop {ax}\nrhs_drop {ay}\nabs_diff {abs(ax - ay)}\n"
        return [] if (code, out) == (0, want) else [f"exit {code} {out!r}, expected {want!r}"]
    return expect


def build_cli(workdir: Path, seed: int) -> list[Job]:
    rng = _rng(seed, "cli")
    env = cli_env()
    jobs = []
    for argv, expect in _cli_expectations(workdir, rng):
        key = "cli-" + "-".join(argv[:2]) + f"-{len(jobs)}"
        jobs.append(
            Job(
                key,
                lambda tr, argv=argv: run_cli(tr, argv, workdir, env),
                lambda out, expect=expect: expect(out[0], out[1]) + ([f"stderr {out[2]!r}"] if out[2] else []),
                lambda out: repr(out[:2]),
                argv,
            )
        )
    return jobs


def cli_inprocess(tr, argv: list) -> tuple[int, str]:
    """One CLI command through ``cli.main`` in this process, stdout captured."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), tr.span("cli.main", command=" ".join(argv[:2])):
        code = cli.main(argv)
    return code, buf.getvalue()


BUILDERS = {
    "verify": build_verify,
    "search": build_search,
    "exact": build_exact,
    "cli": build_cli,
}
