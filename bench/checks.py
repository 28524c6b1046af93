"""Output checks that run outside the timed region.

Each check returns a list of problems (empty when the output is right).
They share no code path with the kernels under test: counts are redone
with the naive loops in ``tests/oracles.py`` (loaded by path, read
only) or with plain Python, never with the library function that made
the output.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _load_oracles():
    spec = importlib.util.spec_from_file_location(
        "kextract_bench_oracles", ROOT / "tests" / "oracles.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()


def witness_problems(cells, S: int, M: int, witness, count) -> list[str]:
    """A btable witness, recounted on the cells, must match and break the bound.

    ``cells`` is the table as nested lists; witness shapes follow
    ``btable.VerifyResult``.
    """
    B1, B2 = witness[0], witness[1]
    problems = []
    for name, side in (("B1", B1), ("B2", B2)):
        if len(side) != S or list(side) != sorted(set(side)):
            problems.append(f"witness {name}={side} is not {S} sorted distinct indices")
    if problems:
        return problems
    if len(witness) == 3:
        actual = oracles.color_count(cells, B1, B2, witness[2])
        mult = M
    else:
        a, b, i, j = witness[2:]
        actual = oracles.shift_pair_count(cells, B1, B2, a, b, i, j)
        mult = M * M
    if actual != count:
        problems.append(f"witness count {count} but the cells hold {actual}")
    if actual * mult <= 2 * S * S:
        problems.append(f"witness count {actual} does not exceed the bound")
    return problems


def condense_bound(n_colors: int, M: int, delta, epsilon, c, R: int) -> float:
    """The colored-cell bound, written out as in the condense docstring."""
    factor = 2.0 ** ((delta * math.log2(1.0 / epsilon)) ** c)
    return (n_colors / M * factor + epsilon) * R * R


def balance_problems(cells, colors, R, bound, ok, worst_ratio, witness) -> list[str]:
    """condense.verify_balance output against a direct recount."""
    if witness is None:
        if not ok or worst_ratio > 1:
            return [f"no witness but ok={ok}, worst_ratio={worst_ratio}"]
        return []
    B1, B2 = witness
    if len(B1) != R or len(B2) != R:
        return [f"witness sides {len(B1)}x{len(B2)}, expected {R}x{R}"]
    A = set(colors)
    count = sum(1 for x in B1 for y in B2 if cells[x][y] in A)
    problems = []
    if ok or count <= bound:
        problems.append(f"witness count {count} does not exceed bound {bound}")
    if not math.isclose(count / bound, worst_ratio, rel_tol=1e-12):
        problems.append(f"worst_ratio {worst_ratio} but the witness gives {count / bound}")
    return problems


def uniform_dist_problems(text: str, bits: int) -> list[str]:
    """A serialized Dist must be exactly uniform on {0,1}^bits."""
    lines = text.splitlines()
    if not lines or lines[0] != f"bits {bits}":
        return [f"header {lines[:1]} is not 'bits {bits}'"]
    width = max(1, (bits + 3) // 4)
    want = f"1/{1 << bits}"
    body = lines[1:]
    if len(body) != 1 << bits:
        return [f"{len(body)} outcomes, expected {1 << bits}"]
    for v, line in enumerate(body):
        if line != f"{v:0{width}x} {want}":
            return [f"line {v + 1} reads {line!r}, expected uniform mass {want}"]
    return []


def search_hit_problems(cells, seed: int, trial: int, trials: int, M: int, S: int, r: int) -> list[str]:
    """A searched table: regenerated from (seed, trial) and, at n <= 3,
    re-verified with the naive oracles."""
    problems = []
    if not 0 <= trial < trials:
        problems.append(f"hit at trial {trial} outside 0..{trials - 1}")
    N = len(cells)
    again = np.random.default_rng([seed, trial]).integers(0, M, size=(N, N), dtype=np.uint32)
    if again.tolist() != cells:
        problems.append("cells differ from the generator keyed by (seed, trial)")
    if N <= 8:
        for verdict in (
            oracles.naive_color_verdict(cells, S, M),
            oracles.naive_shift_pair_verdict(cells, S, M, r),
        ):
            if not verdict[0]:
                problems.append(f"naive oracle finds witness {verdict[1]}")
    return problems
