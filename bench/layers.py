"""Per-layer metrics for the traced run.

Per-layer numbers come from the spans the workload loop recorded.  A
layer the workload leaves idle (``gf2n`` on ``verify``, say) is
measured instead by a small fixed probe run after the loop, so every
traced run reports every metric; each value says which source it came
from.  ``cli.main`` can only be seen in process, so the traced run also
passes a set of CLI commands through ``cli.main`` with the module
functions it calls wrapped in spans.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from kextract import btable, condense, kproxy, stats

import workloads
from spans import self_times

LAYERS = ("gf2n", "extend", "btable", "condense", "stats", "kproxy", "cli")

# Spans whose time is the work each workload exists to measure.
INTENDED = {
    "verify": ("btable.verify_color_bound", "btable.verify_shift_pair_bound", "condense.verify_balance"),
    "search": ("btable.search_table",),
    "exact": ("gf2n.", "extend.", "stats.", "btable.read_table", "btable.write_table", "condense.standin_table"),
}

# Module functions cli.main reaches; wrapped only during the in-process pass.
_WRAPPED = {
    btable: ("read_table", "write_table", "verify_color_bound", "verify_shift_pair_bound",
             "search_table", "apply_table", "derive_table_schedule"),
    condense: ("verify_balance", "min_entropy_deficit", "apply_condenser"),
    stats: ("pushforward", "dist_to_text", "dist_from_text", "min_entropy", "statistical_distance"),
    kproxy: ("k_estimate", "dependency", "symmetry_diagnostic"),
}


def _call_attrs(name: str, args) -> dict:
    if name == "k_estimate":
        return {"bytes": len(args[0]), "backend": args[1].name}
    if name == "read_table":
        return {"bytes": os.path.getsize(args[0])}
    if name == "dist_from_text":
        return {"bytes": len(args[0])}
    return {}


@contextmanager
def wrapped_modules(tr):
    """Record a span for each wrapped call made directly by ``cli.main``.

    Calls the library makes internally (``dependency`` calling
    ``k_estimate``) run unrecorded, so spans stay at the CLI boundary.
    """
    saved = []

    def wrap(module, name, fn):
        layer = f"{module.__name__.rsplit('.', 1)[1]}.{name}"

        def call(*args, **kw):
            parent = tr.open_span()
            if parent is None or parent.name != "cli.main":
                return fn(*args, **kw)
            with tr.span(layer, **_call_attrs(name, args)):
                return fn(*args, **kw)

        return call

    for module, names in _WRAPPED.items():
        for name in names:
            fn = getattr(module, name)
            saved.append((module, name, fn))
            setattr(module, name, wrap(module, name, fn))
    try:
        yield
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


def cli_pass(tr, argvs, workdir: Path) -> list:
    """Run CLI commands through cli.main in ``workdir``, spans on layer calls."""
    here = os.getcwd()
    os.chdir(workdir)
    try:
        with wrapped_modules(tr):
            return [workloads.cli_inprocess(tr, argv) for argv in argvs]
    finally:
        os.chdir(here)


def startup_times(tr, repeats: int = 3) -> None:
    """cli.interpreter (bare ``python -c pass``) and cli.import spans."""
    env = workloads.cli_env()
    for name, code in (("cli.interpreter", "pass"), ("cli.import", "import kextract")):
        for _ in range(repeats):
            with tr.span(name):
                subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def probe(tr, workdir: Path, seed: int) -> None:
    """Small fixed calls into every layer, recorded as job ``probe``."""
    rng = np.random.default_rng([seed, 7])
    tr.job = "probe"
    cells = rng.integers(0, 2, size=(16, 16), dtype=np.uint32)
    path = workdir / "probe.ktb"
    size = workloads.write_table_file(path, 4, 1, cells)
    workloads.table_proof(tr, path, size, btable.BalanceSpec(12, 2), 16)
    cpath = workdir / "probe-c.ktb"
    csize = workloads.write_table_file(cpath, 4, 2, condense.standin_table(4, 2).cells)
    workloads.balance_proof(tr, cpath, csize, 16, 0.5, 0.25, 1, [0])
    workloads.search_job(tr, 3, 1, btable.BalanceSpec(4, 2), 50, seed)
    workloads.push_pipeline(tr, 5, 1, 2, workdir / "probe.dist")
    for n, count in ((16, 4096), (64, 1024)):
        ops = rng.integers(1, 2**n, size=(500, 2), dtype=np.uint64).tolist()
        workloads.field_pipeline(tr, n, 3, 5, count, [(1, 2)] * 50, ops, [a for a, _ in ops])
    workloads.standin_pipeline(
        tr, 6, 2, range(0, 64, 3), range(1, 64, 5), workdir / "probe-s.ktb", workdir / "probe-s2.ktb"
    )
    data = rng.integers(0, 256, size=1 << 16, dtype=np.uint8).tobytes()
    for name in ("lzma", "bz2"):
        comp = kproxy.get_backend(name)
        with tr.span("kproxy.k_estimate", bytes=len(data), backend=name):
            kproxy.k_estimate(data, comp)
    with tr.span("kproxy.dependency"):
        kproxy.dependency(data[:1 << 14], data[1 << 13:3 << 13], kproxy.get_backend("lzma"), 64)
    cli_pass(tr, [["extend", "05", "03", "--k", "1"], ["dist", "mindent", "probe.dist"]], workdir)
    startup_times(tr)


def _sum(spans, key):
    return sum(s.attrs[key] for s in spans)


def _dur(spans):
    return sum(s.duration for s in spans)


def _per_work(key, scale):
    return lambda spans: scale * _dur(spans) / _sum(spans, key)


def _work_rate(key, scale):
    return lambda spans: scale * _sum(spans, key) / _dur(spans)


def _mean_ms(spans):
    return 1e3 * _dur(spans) / len(spans)


def _median_s(spans):
    return statistics.median(s.duration for s in spans)


def _attr(key, value):
    return lambda s: s.attrs.get(key) == value


def _has(key):
    return lambda s: key in s.attrs


_ANY = lambda s: True

# (metric, unit, span name, span filter, value from the matching spans,
#  counted over the first cycle only).  A name ending in "_" matches
#  every span starting with it.  Filters ask for the attributes the
#  value needs, which the spans around cli.main calls may not carry.
METRICS = [
    ("btable.verify_color_bound.us_per_subset", "us", "btable.verify_color_bound", _attr("ok", True), _per_work("subsets", 1e6), False),
    ("btable.verify_shift_pair_bound.us_per_subset", "us", "btable.verify_shift_pair_bound", _attr("ok", True), _per_work("subsets", 1e6), False),
    ("btable.verify.busy_s", "s", "btable.verify_", _has("ok"), _dur, True),
    ("btable.verify.calls", "count", "btable.verify_", _has("ok"), len, True),
    ("btable.verify.violations", "count", "btable.verify_", _has("ok"), lambda sp: sum(1 for s in sp if not s.attrs["ok"]), True),
    ("btable.search_table.trials_per_s", "1/s", "btable.search_table", _has("trials"), _work_rate("trials", 1), False),
    ("btable.search_table.trials", "count", "btable.search_table", _has("trials"), lambda sp: _sum(sp, "trials"), True),
    ("btable.search_table.hit_ratio", "ratio", "btable.search_table", _has("trials"),
     lambda sp: sum(1 for s in sp if s.attrs["hit"]) / _sum(sp, "trials"), True),
    ("btable.read_table.mb_per_s", "MB/s", "btable.read_table", _has("bytes"), _work_rate("bytes", 1e-6), False),
    ("btable.write_table.mb_per_s", "MB/s", "btable.write_table", _has("bytes"), _work_rate("bytes", 1e-6), False),
    ("condense.verify_balance.us_per_subset", "us", "condense.verify_balance", _has("subsets"), _per_work("subsets", 1e6), False),
    ("condense.standin_table.ms", "ms", "condense.standin_table", _ANY, _mean_ms, False),
    ("condense.min_entropy_deficit.ms", "ms", "condense.min_entropy_deficit", _ANY, _mean_ms, False),
    ("gf2n.mul_bits.ns_per_op.n16", "ns", "gf2n.mul_bits", _attr("n", 16), _per_work("ops", 1e9), False),
    ("gf2n.mul_bits.ns_per_op.n64", "ns", "gf2n.mul_bits", _attr("n", 64), _per_work("ops", 1e9), False),
    ("gf2n.inverse_bits.ns_per_op.n64", "ns", "gf2n.inverse_bits", _attr("n", 64), _per_work("ops", 1e9), False),
    ("extend.extend.ns_per_output.n16", "ns", "extend.extend", _attr("n", 16), _per_work("outputs", 1e9), False),
    ("extend.extend.ns_per_output.n64", "ns", "extend.extend", _attr("n", 64), _per_work("outputs", 1e9), False),
    ("extend.invert_pair.us_per_op", "us", "extend.invert_pair", _has("ops"), _per_work("ops", 1e6), False),
    ("stats.pushforward.evals_per_s", "1/s", "stats.pushforward", _has("evals"), _work_rate("evals", 1), False),
    ("stats.dist_to_text.mb_per_s", "MB/s", "stats.dist_to_text", _has("bytes"), _work_rate("bytes", 1e-6), False),
    ("stats.dist_from_text.mb_per_s", "MB/s", "stats.dist_from_text", _has("bytes"), _work_rate("bytes", 1e-6), False),
    ("stats.statistical_distance.ms", "ms", "stats.statistical_distance", _ANY, _mean_ms, False),
    ("stats.min_entropy.ms", "ms", "stats.min_entropy", _ANY, _mean_ms, False),
    ("stats.epsilon_close_to_min_entropy.ms", "ms", "stats.epsilon_close_to_min_entropy", _ANY, _mean_ms, False),
    ("kproxy.k_estimate.mb_per_s.lzma", "MB/s", "kproxy.k_estimate", _attr("backend", "lzma"), _work_rate("bytes", 1e-6), False),
    ("kproxy.k_estimate.mb_per_s.bz2", "MB/s", "kproxy.k_estimate", _attr("backend", "bz2"), _work_rate("bytes", 1e-6), False),
    ("kproxy.dependency.ms", "ms", "kproxy.dependency", _ANY, _mean_ms, False),
    ("cli.import_s", "s", "cli.import", _ANY, _median_s, False),
    ("cli.interpreter_s", "s", "cli.interpreter", _ANY, _median_s, False),
]


def _matches(span, name):
    return span.name == name or (name.endswith("_") and span.name.startswith(name))


def layer_metrics(spans, cycle_len: int) -> dict:
    """{metric: (value, unit, source)} with source ``workload`` or ``probe``.

    Loop jobs have integer ids; counts marked first-cycle use only the
    ids below ``cycle_len``, so they do not depend on the run length.
    """
    out = {}
    for metric, unit, name, keep, value, first_cycle in METRICS:
        for source in ("workload", "probe"):
            chosen = [
                s for s in spans
                if _matches(s, name) and keep(s)
                and (s.job == "probe") == (source == "probe")
                and not (first_cycle and isinstance(s.job, int) and s.job >= cycle_len)
            ]
            if chosen:
                out[metric] = (value(chosen), unit, source)
                break
        else:
            raise RuntimeError(f"no span measured {metric}")
    selfs = self_times(spans)
    mains = [(s, t) for s, t in zip(spans, selfs) if s.name == "cli.main"]
    source = "workload" if any(s.job != "probe" for s, _ in mains) else "probe"
    out["cli.main.self_s"] = (sum(t for s, t in mains if (s.job == "probe") == (source == "probe")), "s", source)
    return out


def layer_self_seconds(spans) -> dict:
    """Self time per layer over the loop's spans (probe excluded)."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, self_times(spans)):
        layer = s.name.split(".", 1)[0]
        if s.job != "probe" and layer in totals:
            totals[layer] += t
    return totals


def intended_share(workload: str, spans, job_seconds: float, cycles: int) -> float:
    """Share of timed job time spent in the layers the workload targets.

    For ``cli`` the loop only sees whole subprocesses, so the share is
    estimated per cycle as (subprocess time - in-process cli.main time
    + kproxy time inside cli.main) / subprocess time: start-up and
    import plus the compressor work.
    """
    loop = [s for s in spans if s.job != "probe"]
    if workload == "cli":
        per_cycle = job_seconds / cycles
        mains = [s for s in loop if s.name == "cli.main"]
        inproc = _dur(mains)
        kp = _dur([s for s in loop if s.name.startswith("kproxy.")])
        return (per_cycle - inproc + kp) / per_cycle
    names = INTENDED[workload]
    covered = sum(
        s.duration for s in loop
        if s.parent is None and any(s.name == n or (n.endswith(".") and s.name.startswith(n)) for n in names)
    )
    return covered / job_seconds
