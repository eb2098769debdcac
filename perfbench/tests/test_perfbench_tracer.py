"""Tests of the benchmark's tracer, answer check and failure counting.

Run with: python3 -m pytest perfbench/tests
"""

import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

import layers
import run
from riccati4 import report as report_module
from riccati4.problem import ProblemSpec
from tracer import Tracer

SMALL = ProblemSpec(a3=0.0, a2=-5.0, a1=0.0, a0=4.0, r0="0.001*exp(-t)",
                    nodes=64)


def _spin(seconds):
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def _snapshot():
    return {(owner, name): value
            for owner in layers.PATCHED_OWNERS
            for name, value in vars(owner).items()}


def test_install_patches_and_restore_puts_every_attribute_back():
    before = _snapshot()
    tracer = Tracer()
    targets = layers.trace_targets(tracer)
    tracer.install(targets, layers.PATCHED_OWNERS)
    try:
        during = _snapshot()
        changed = {key for key in before if during[key] is not before[key]}
        # every target is patched where it is defined and where it is imported
        assert {value for key, value in before.items() if key in changed} == set(targets)
        assert (report_module, "residual_profile") in changed
        assert (report_module.picard, "head_transform") in changed
    finally:
        tracer.restore()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_untraced_calls_reach_no_wrapper(tmp_path):
    tracer = Tracer()
    tracer.install(layers.trace_targets(tracer), layers.PATCHED_OWNERS)
    session = run.Session(SMALL, None, tmp_path)
    try:
        session.call()
    finally:
        tracer.restore()
    traced = len(tracer.spans())
    assert traced > 0
    session.call()
    assert len(tracer.spans()) == traced
    assert session.failed == 0


def test_self_time_is_span_minus_children():
    module = types.ModuleType("synthetic")

    def inner():
        _spin(0.02)

    def outer():
        time.sleep(0.02)
        module.inner()
        module.inner()

    module.inner, module.outer = inner, outer
    tracer = Tracer()
    tracer.install({inner: tracer.wrap("t.inner", inner),
                    outer: tracer.wrap("t.outer", outer, top_level=True)},
                   [module])
    try:
        module.outer()
    finally:
        tracer.restore()
    spans = tracer.spans()
    top = next(s for s in spans if s.name == "t.outer")
    kids = [s for s in spans if s.name == "t.inner"]
    assert len(kids) == 2 and all(k.parent_id == top.span_id for k in kids)
    assert top.self_s == pytest.approx(top.wall_s - sum(k.wall_s for k in kids),
                                       abs=1e-12)
    assert top.self_s >= 0.02
    assert all(k.self_busy_s >= 0.019 for k in kids)
    assert top.self_busy_s < 0.01          # sleeping is not busy


def test_top_level_self_time_subtracts_union_of_worker_spans():
    module = types.ModuleType("synthetic")
    gate = threading.Barrier(2)

    def work():
        gate.wait(timeout=5)
        time.sleep(0.03)

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            for future in [pool.submit(module.work) for _ in range(2)]:
                future.result()

    module.work, module.fan_out = work, fan_out
    tracer = Tracer()
    tracer.install({work: tracer.wrap("t.work", work),
                    fan_out: tracer.wrap("t.fan_out", fan_out, top_level=True)},
                   [module])
    try:
        module.fan_out()
    finally:
        tracer.restore()
    spans = tracer.spans()
    top = next(s for s in spans if s.name == "t.fan_out")
    kids = [s for s in spans if s.name == "t.work"]
    assert all(k.parent_id == top.span_id for k in kids)
    union = max(k.end for k in kids) - min(k.start for k in kids)
    assert layers.self_walls(spans)[top.span_id] == pytest.approx(
        top.wall_s - union, abs=1e-12)


def test_traced_call_balances_every_root_span(tmp_path):
    tracer = Tracer()
    tracer.install(layers.trace_targets(tracer), layers.PATCHED_OWNERS)
    try:
        run.Session(SMALL, None, tmp_path).call()
    finally:
        tracer.restore()
    spans = tracer.spans()
    assert sum(s.name == "report.run_root" for s in spans) == 4
    assert layers.root_balance(spans) <= 1e-9
    metrics = layers.call_metrics(spans)
    assert set(metrics) == set(layers.UNITS)
    assert metrics["picard.T_applies"] > metrics["picard.iterations"] > 0
    assert 0.0 < metrics["picard.useful_frac"] < 1.0


def test_failing_root_is_counted_and_the_run_goes_on(tmp_path, monkeypatch):
    original = report_module._run_root

    def root_two_fails(spec, cd, i, mode, out_dir):
        result, fs = original(spec, cd, i, mode, out_dir)
        if i == 2:
            result["status"], result["pass"] = "error", False
        return result, fs

    monkeypatch.setattr(report_module, "_run_root", root_two_fails)
    session = run.Session(SMALL, None, tmp_path)
    session.loop(0.0)
    session.loop(0.0)
    assert (session.attempted, session.failed) == (8, 2)
    assert session.reasons == ["root 2: status error, pass False"] * 2


def test_raising_call_counts_four_failed_root_runs(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise ValueError("worker crashed")

    monkeypatch.setattr(report_module, "run_report", boom)
    session = run.Session(SMALL, None, tmp_path)
    session.loop(0.0)
    assert (session.attempted, session.failed) == (4, 4)


def test_reference_mismatch_fails_only_that_root():
    report = {
        "overall_pass": True,
        "wronskian": {"normalized_at_tmax": 72.0},
        "roots": {str(i): {"status": "ok", "pass": True,
                           "solve": {"riccati_residual_max": 1e-9,
                                     "z_norm": 1e-4}} for i in (1, 2, 3, 4)},
    }
    reference = {"z_norm": {"1": 1e-4, "2": 1e-4, "3": 1e-4, "4": 2e-4},
                 "wronskian": 72.0}
    assert run.check_report(report, reference, 1e-10)[0] == 1
    reference["z_norm"]["4"] = 1e-4
    assert run.check_report(report, reference, 1e-10)[0] == 0
    reference["wronskian"] = 71.0
    assert run.check_report(report, reference, 1e-10)[0] == 4
