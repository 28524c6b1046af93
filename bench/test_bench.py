"""Tests for the benchmark harness itself.

    PYTHONPATH=src python -m pytest -q bench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from kextract.errors import ResourceError  # noqa: E402
from spans import Span, Tracer, self_times, tail_percentile  # noqa: E402


def test_self_time_subtracts_children_once():
    spans = [
        Span("outer", 0.0, 10.0, None, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("a.inner", 1.5, 2.0, 1, 0),
        Span("b", 2.0, 5.0, 0, 0),  # overlaps a: the union 1..5 is covered
        Span("c", 9.0, 12.0, 0, 0),  # overhangs the parent: clipped to 9..10
        Span("other-job", 0.0, 4.0, None, 1),
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.5, 0.5, 3.0, 3.0, 4.0])


def test_tracer_records_nesting_and_self_time():
    tr = Tracer(enabled=True)
    tr.job = 7
    with tr.span("outer"):
        with tr.span("inner", ops=3) as attrs:
            attrs["ok"] = True
    outer, inner = tr.spans
    assert inner.parent == 0 and outer.parent is None
    assert inner.attrs == {"ops": 3, "ok": True} and inner.job == 7
    own = self_times(tr.spans)
    assert own[0] == pytest.approx(outer.duration - inner.duration)
    assert own[1] == pytest.approx(inner.duration)


def test_disabled_tracer_records_nothing():
    tr = Tracer(enabled=False)
    with tr.span("x", n=1) as attrs:
        attrs["ok"] = False
    assert tr.spans == []


@pytest.mark.parametrize(
    "n, value, pct",
    [
        (100, 90, 90),  # p91 would leave only 9 samples beyond it
        (20, 10, 50),
        (11, 1, 9),
        (44, 34, 77),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, value, pct):
    got, p, count = tail_percentile([float(v) for v in range(n, 0, -1)])
    assert (got, p, count) == (value, pct, n)
    assert sum(1 for v in range(1, n + 1) if v > got) >= 10


def test_tail_percentile_falls_back_to_median():
    assert tail_percentile([3.0, 1.0, 2.0]) == (2.0, 50, 3)


def _fail_frac(jobs) -> float:
    records = run.run_cycle(jobs, Tracer(False), {}, None)
    return sum(1 for r in records if r.problems) / len(records)


def _corrupt(job, change):
    return workloads.Job(job.key + "-bad", lambda tr: change(job.run(tr)), job.check, job.digest)


def test_fail_frac_rises_on_witness_count_off_by_one(tmp_path):
    # a constant 4-colour table breaks the single-colour bound everywhere
    cells = np.ones((8, 8), dtype=np.uint32)
    job = workloads._table_job("const", tmp_path / "c.ktb", cells, 3, 2, 4, 2)
    assert _fail_frac([job]) == 0
    off_by_one = _corrupt(job, lambda out: (out[0], out[1], out[2] + 1))
    assert _fail_frac([job, off_by_one]) == 0.5


def test_fail_frac_rises_on_non_uniform_dist(tmp_path):
    job = workloads._push_job("push", tmp_path, 3, 1, 2)
    assert _fail_frac([job]) == 0

    def skew(out):
        text, back, h, sd, eps = out
        lines = text.splitlines()
        lines[1] = lines[1].split()[0] + " 2/64"
        lines[2] = lines[2].split()[0] + " 0/64"
        bad = "\n".join(lines) + "\n"
        return bad, bad, h, sd, eps

    assert _fail_frac([_corrupt(job, skew)]) == 1


def test_resource_error_is_a_failed_job():
    def refuse(tr):
        raise ResourceError("over budget 10")

    assert _fail_frac([workloads.Job("refused", refuse, lambda out: [])]) == 1


def test_output_that_changes_between_cycles_fails():
    job = workloads.Job("flaky", lambda tr: None, lambda out: [])
    first = {}
    assert run.output_problems(job, "a", first, None) == []
    assert run.output_problems(job, "b", first, None) != []


def test_golden_mismatch_fails():
    job = workloads.Job("j", lambda tr: 1, lambda out: [])
    good = {"j": job.digest_of(1)}
    assert run.output_problems(job, 1, {}, good) == []
    assert run.output_problems(job, 1, {}, {"j": "0" * 16}) != []
