"""Tests of the benchmark itself (not of the engine).

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import random
import re
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import highwater  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _canonical(job) -> str:
    """A text form of a job that covers every element it carries."""
    def item(x):
        if isinstance(x, highwater.Element):
            return f"{x.field}:{highwater.format_element(x)}"
        if isinstance(x, (list, tuple)):
            return "[" + ",".join(item(y) for y in x) + "]"
        return repr(x)
    return item(job)


def _first_block(name, seed, tmp_path):
    wl = workloads.make(name, str(tmp_path))
    block = next(wl.blocks(random.Random(f"{name}:{seed}")))
    return [_canonical(job) for job in block]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generator_is_deterministic_for_a_seed(name, tmp_path):
    assert _first_block(name, 7, tmp_path) == _first_block(name, 7, tmp_path)


@pytest.mark.parametrize("name", ("products", "session", "ideals"))
def test_seed_changes_the_inputs(name, tmp_path):
    assert _first_block(name, 7, tmp_path) != _first_block(name, 8, tmp_path)


def test_metric_and_workload_names_are_valid():
    spec = run.load_spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for name in names + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name), name
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.NAMES)


def test_times_are_scaled_by_the_nearest_samples():
    slow, fast = 2 * hostspeed.NOMINAL_S, hostspeed.NOMINAL_S / 2
    samples = [(float(t), slow) for t in range(10)] \
        + [(float(t), fast) for t in range(10, 20)]
    assert hostspeed.scale(samples, 2.0) == 0.5
    assert hostspeed.scale(samples, 17.0) == 2.0
    assert hostspeed.scale(samples, -5.0) == 0.5
    assert hostspeed.scale(samples[:2], 100.0) == 0.5


def test_tail_is_the_nearest_rank_percentile():
    lat = [i / 1000 for i in range(100)]
    value, beyond = run.tail(lat, 90)
    assert beyond == sum(x > value for x in lat) == 10
    assert run.tail([0.5, 0.1], 99) == (0.5, 0)


def _small_orbits(monkeypatch):
    monkeypatch.setattr(workloads.Orbits, "MENU", (("H", True, (2, 3)),))
    return workloads.Orbits()


def test_correct_run_counts_no_failure(monkeypatch):
    res = worker.run_pass(_small_orbits(monkeypatch), 1, 0.0)
    assert (res["attempted"], res["raised"], res["failed"]) == (8, 0, 0)


def test_wrong_reference_is_counted_as_failed(monkeypatch):
    wl = _small_orbits(monkeypatch)
    right = workloads.ref_collapsed_dim
    monkeypatch.setattr(workloads, "ref_collapsed_dim",
                        lambda family, n: right(family, n) + 1)
    res = worker.run_pass(wl, 1, 0.0)
    assert (res["attempted"], res["failed"]) == (8, 8)


def test_traced_pass_alternates_traced_and_untraced_blocks(monkeypatch):
    tracer = tracing.Tracer()
    res = worker.run_pass(_small_orbits(monkeypatch), 1, float("inf"),
                          tracer=tracer, max_blocks=3, alternate=True)
    assert res["traced"] == [True] * 8 + [False] * 8 + [True] * 8
    assert res["blocks"] == 3 and res["failed"] == 0
    roots = [s for s in tracer.spans if s[0] == "job"]
    assert [s[4] for s in roots] == list(range(8)) + list(range(16, 24))
    assert highwater.quotients.axis_orbit.__name__ == "axis_orbit"
    assert not hasattr(highwater.quotients.axis_orbit, "__wrapped__")


def _small_ideals(monkeypatch):
    monkeypatch.setattr(workloads.Ideals, "chars", (5,))
    monkeypatch.setattr(workloads.Ideals, "H_SIZES", (3,))
    monkeypatch.setattr(workloads.Ideals, "L_SIZES", (2,))
    return workloads.Ideals()


def test_ideal_reads_are_checked_against_the_weight(monkeypatch):
    res = worker.run_pass(_small_ideals(monkeypatch), 1, 0.0)
    assert (res["attempted"], res["failed"]) == (18, 0)
    right = workloads.ref_weight
    monkeypatch.setattr(workloads, "ref_weight", lambda terms, p:
                        workloads.in_field(right(terms, p) + 1, p))
    res = worker.run_pass(workloads.Ideals(), 1, 0.0)
    # every read of the two family ideals keeps the wrong weight
    assert res["failed"] >= 2 * workloads.Ideals.READS["family"]


def test_ideal_builds_accept_zero_only_for_zero_generators():
    wl = workloads.Ideals()
    terms = [("a", (3,), Fraction(3)), ("a", (3,), Fraction(4))]
    corrected = terms + [("a", (7,), -workloads.ref_weight(terms, 7))]
    zero = ("build", 7, ("random", True),
            [workloads.build_element(7, corrected)])
    rec = wl.record(zero, wl.run(zero, {}))
    assert rec["summary"]["kind"] == "zero" and wl.check(zero, rec)
    # a nonzero generator classified as zero, or a weight-0 ideal
    # classified as full, is counted as failed
    F = highwater.GF(7)
    other = ("build", 7, ("random", True),
             [highwater.axis(F, 0) - highwater.axis(F, 2)])
    rec = wl.record(other, wl.run(other, {}))
    assert wl.check(other, rec)
    assert not wl.check(other, dict(rec, summary={"kind": "zero"}))
    assert not wl.check(other, dict(rec, summary={"kind": "full"}))


def test_wrong_weight_reference_fails_session_jobs(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads.Session, "SUITES", ())
    monkeypatch.setattr(workloads.Session, "ONE_LINERS", (("weight", 4),))
    right = workloads.ref_weight
    monkeypatch.setattr(workloads, "ref_weight", lambda terms, p:
                        workloads.in_field(right(terms, p) + 1, p))
    res = worker.run_pass(workloads.Session(str(tmp_path)), 3, 0.0)
    assert (res["attempted"], res["failed"]) == (4, 4)


def _traced_session_job(argv, tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_job(0)
        code = highwater.cli.main(argv + ["--format", "json", "--out",
                                          str(tmp_path / "out.json")])
        tracer.end_job()
    finally:
        tracer.remove()
    return code, tracer


def test_spans_nest_and_self_times_add_up(tmp_path):
    original = highwater.cli.eigendecompose
    code, tracer = _traced_session_job(
        ["eigen", "--char", "5", "3*a(2) + s(1) - p(1,3)", "--axis", "1"],
        tmp_path)
    assert code == 0
    layers = {s[0] for s in tracer.spans}
    # cli.eigendecompose is a from-import copy; it must be traced too
    assert {"job", "cli.main", "textio.parse",
            "eigen.eigendecompose"} <= layers
    assert tracer.bad_spans() == 0
    # a span moved to another job, or outside its parent, is caught
    child = next(s for s in tracer.spans if s[0] == "textio.parse")
    child[4] += 1
    assert tracer.bad_spans() == 1
    child[4] -= 1
    child[1] = tracer.spans[child[3]][1] - 1.0
    assert tracer.bad_spans() >= 1
    assert highwater.cli.eigendecompose is original
    m = tracer.layer_metrics()
    assert m["cli.main.calls"] == 1
    assert m["eigen.eigendecompose.calls"] == 2   # axis 1 recurses to 0


def test_missing_private_boundary_reports_zero(monkeypatch, tmp_path):
    monkeypatch.delattr(highwater.linalg, "solve")
    code, tracer = _traced_session_job(
        ["mul", "--char", "0", "a(0)", "a(1)"], tmp_path)
    assert code == 0
    assert "linalg.solve" not in tracer.present
    m = tracer.layer_metrics()
    assert m["linalg.solve.calls"] == 0 and m["elements.mul.calls"] == 1
    assert m["elements.mul.term_pairs"] == 1


def test_scalar_counter_counts_only_inside_jobs():
    counter = tracing.ScalarCounter()
    counter.install()
    try:
        highwater.QQ.scalar(3)
        counter.begin_job(0)
        highwater.QQ.scalar(3) * highwater.QQ.scalar(2)
        counter.end_job()
    finally:
        counter.remove()
    assert counter.count == 3
