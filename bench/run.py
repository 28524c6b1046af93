"""Benchmark harness for kextract.

    python3 bench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Runs one workload (verify, search, exact or cli; see bench/README.md)
from this process in a closed loop: one job at a time, at most one
child process.  The workload's cycle of jobs runs again and again, at
least twice, until the timed job time reaches --seconds.  A job's time
is the best of its runs in those cycles, scaled to the host's reference
speed (see ``REF_MS``), which keeps the host's slow phases out of the
figures.  Every output is checked outside the timed region.  Prints each metric by name with its unit and, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  The traced run also writes its spans to
bench/_out/.

The library is imported from src/ of the checkout this file sits in;
without it the harness exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
GOLDEN_SEED = 2026
MIN_CYCLES = 2
SETUP_REPEATS = 5
REF_SAMPLES = 5
# End-to-end times are reported at this reference-loop time: a time t
# measured while the run's fastest reference block took R ms is reported
# as t * REF_MS / R.  16 ms is the loop's time on the 2-core Xeon host
# this benchmark was written on, in its fast state; that host also runs
# in a state 1.3-1.5x slower for minutes at a time.
REF_MS = 16.0
WORKLOADS = ("verify", "search", "exact", "cli")


@dataclass
class Record:
    key: str
    seconds: float
    problems: list


def ref_loop_ms() -> float:
    """A fixed pure-Python loop: the machine reference."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc + i * i) % 1_000_003
    return 1e3 * (time.perf_counter() - t0)


def machine_info() -> dict:
    import mpmath
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
    }


def output_problems(job, out, first: dict, golden) -> list:
    """Check a job's output; later cycles need only match the first."""
    digest = job.digest_of(out)
    if job.key in first:
        return [] if first[job.key] == digest else ["output differs from the first cycle"]
    first[job.key] = digest
    try:
        problems = list(job.check(out))
    except Exception as exc:  # a check that cannot parse the output fails the job
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    if golden is not None and job.key in golden and golden[job.key] != digest:
        problems.append(f"digest {digest} differs from golden {golden[job.key]}")
    return problems


def run_cycle(jobs, tr, first: dict, golden, job_base: int = 0) -> list[Record]:
    """Each job once, timed one at a time; outputs checked after timing."""
    records = []
    for job in jobs:
        tr.job = job_base + len(records)
        t0 = time.perf_counter()
        try:
            out = job.run(tr)
        except Exception as exc:  # a raising job, ResourceError included, is a failed job
            dt = time.perf_counter() - t0
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            dt = time.perf_counter() - t0
            problems = output_problems(job, out, first, golden)
        records.append(Record(job.key, dt, problems))
    return records


def best_times(records) -> list[float]:
    """Each job's fastest run, in cycle order."""
    best: dict[str, float] = {}
    for r in records:
        best[r.key] = min(best.get(r.key, r.seconds), r.seconds)
    return list(best.values())


def import_seconds(env: dict) -> float:
    """``import kextract`` in a fresh interpreter, timed inside it."""
    code = "import time; t = time.perf_counter(); import kextract; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    return float(proc.stdout)


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=GOLDEN_SEED)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--record-golden", action="store_true",
        help=f"run one cycle at seed {GOLDEN_SEED} and store its output digests",
    )
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "kextract" / "__init__.py").is_file():
        print(f"error: no kextract package under {src}", file=sys.stderr)
        return 2
    if args.record_golden and args.seed != GOLDEN_SEED:
        print(f"error: golden digests are recorded at seed {GOLDEN_SEED}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from spans import Tracer, tail_percentile

    ref_blocks = [[ref_loop_ms() for _ in range(REF_SAMPLES)]]
    t0 = time.perf_counter()
    import layers
    import workloads

    inprocess_import_s = time.perf_counter() - t0
    build = workloads.BUILDERS[args.workload]
    env = workloads.cli_env()
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    setup_times = []

    def set_up():
        """One set-up: a fresh-interpreter import plus writing the inputs."""
        workdir = work / f"setup{len(setup_times)}"
        workdir.mkdir(parents=True)
        imported = import_seconds(env)
        t0 = time.perf_counter()
        jobs = build(workdir, args.seed)
        setup_times.append(imported + time.perf_counter() - t0)
        return workdir, jobs

    try:
        workdir, jobs = set_up()
        golden_all = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        golden = golden_all.get(args.workload)
        if args.seed != GOLDEN_SEED or args.record_golden:
            golden = None
        tr = Tracer(enabled=bool(args.trace))
        first: dict = {}

        if args.record_golden:
            failed = [r for r in run_cycle(jobs, tr, first, None) if r.problems]
            for r in failed:
                print(f"FAIL {r.key}: {'; '.join(r.problems)}")
            if failed:
                return 1
            golden_all[args.workload] = dict(sorted(first.items()))
            GOLDEN.write_text(json.dumps(golden_all, indent=1, sort_keys=True) + "\n")
            print(f"recorded {len(first)} digests for {args.workload} at seed {args.seed}")
            return 0

        # Further set-ups run between cycles, so their median spans the
        # run's slow and fast moments like the jobs do.
        # A reference block follows every cycle, so the fastest block, like
        # the best-of-cycles job times, comes from the run's fastest state.
        records: list[Record] = []
        cycles = 0
        while cycles < MIN_CYCLES or sum(r.seconds for r in records) < args.seconds:
            records += run_cycle(jobs, tr, first, golden, len(records))
            cycles += 1
            ref_blocks.append([ref_loop_ms() for _ in range(REF_SAMPLES)])
            if len(setup_times) < SETUP_REPEATS:
                set_up()
        while len(setup_times) < SETUP_REPEATS:
            set_up()
        loop_records = list(records)
        best = best_times(loop_records)
        tail, pct, count = tail_percentile(best)
        ref_fast = min(statistics.median(block) for block in ref_blocks)
        scale = REF_MS / ref_fast
        raw = {
            "jobs_per_s": len(best) / sum(best),
            "job_p50_s": statistics.median(best),
            "job_tail_s": tail,
            "setup_s": statistics.median(setup_times),
        }
        e2e = {
            "jobs_per_s": (raw["jobs_per_s"] / scale, "1/s"),
            "job_p50_s": (raw["job_p50_s"] * scale, "s"),
            "job_tail_s": (raw["job_tail_s"] * scale, "s"),
            "setup_s": (raw["setup_s"] * scale, "s"),
            "peak_rss_mb": (peak_rss_mb(with_children=args.workload == "cli"), "MB"),
        }

        layer_values = {}
        if args.trace:
            # the last cycle again with tracing off: the overhead reference
            last = loop_records[-len(jobs):]
            tr.enabled = False
            untraced = run_cycle(jobs, tr, first, golden, len(records))
            tr.enabled = True
            records += untraced
            overhead = len(last) / sum(r.seconds for r in last) - len(untraced) / sum(
                r.seconds for r in untraced
            )
            if args.workload == "cli":
                tr.job = "cli-pass"
                outs = layers.cli_pass(tr, [job.argv for job in jobs], workdir)
                for job, out in zip(jobs, outs):
                    problems = [] if job.digest_of(out) == first.get(job.key) else [
                        "in-process cli.main output differs from the subprocess"
                    ]
                    records.append(Record(job.key + "-inprocess", 0.0, problems))
            layers.probe(tr, workdir, args.seed)
            layer_values = layers.layer_metrics(tr.spans, len(jobs))
            job_seconds = sum(r.seconds for r in loop_records)
            share = layers.intended_share(args.workload, tr.spans, job_seconds, cycles)
            layer_values["trace.intended_share"] = (share, "ratio", "workload")
            layer_values["trace.overhead_jobs_per_s"] = (overhead, "1/s", "workload")

        ref_blocks.append([ref_loop_ms() for _ in range(REF_SAMPLES)])
        machine = machine_info()
        all_ref = [t for block in ref_blocks for t in block]
        layer_values["machine.ref_loop_ms"] = (statistics.median(all_ref), "ms", "run")
        failed = [r for r in records if r.problems]

        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
        print("machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
        print(
            "machine.ref_loop_ms blocks="
            + " ".join(f"{statistics.median(block):.2f}" for block in ref_blocks)
            + f" fastest={ref_fast:.3f} scale={scale:.4f}"
        )
        for r in failed[:20]:
            print(f"FAIL {r.key}: {'; '.join(r.problems)}")
        print(
            f"jobs {len(records)} cycles {cycles} jobs_per_cycle {len(jobs)} "
            f"failed {len(failed)} fail_frac {len(failed) / len(records):.4g}"
        )
        for name, (value, unit) in e2e.items():
            note = f" (p{pct} of {count} best-of-{cycles} job times)" if name == "job_tail_s" else ""
            print(f"{name} {value:.6g} {unit}{note}")
        print("unscaled " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
        print(
            f"setup_s runs={[round(t, 4) for t in setup_times]} "
            f"in-process import={inprocess_import_s:.4f}"
        )
        if args.trace:
            for name, (value, unit, source) in layer_values.items():
                print(f"{name} {value:.6g} {unit} [{source}]")
            self_s = layers.layer_self_seconds(tr.spans)
            print("self_s " + " ".join(f"{k}={v:.4f}" for k, v in self_s.items()))
            out_dir = HERE / "_out"
            out_dir.mkdir(exist_ok=True)
            tr.dump(
                out_dir / f"trace-{args.workload}-seed{args.seed}.json",
                {"workload": args.workload, "seed": args.seed, "machine": machine,
                 "layer_self_s": self_s,
                 "jobs": [[r.key, r.seconds, r.problems] for r in records],
                 "metrics": {k: v[0] for k, v in layer_values.items()}},
            )
            chosen = {k: (v[0], v[1]) for k, v in layer_values.items()}
        else:
            chosen = e2e
        result = {
            "correct": not failed,
            "attempted": len(records),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
