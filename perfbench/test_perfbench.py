"""Tests of the benchmark itself: seeded inputs, tracing hygiene, repeatable counters.

Run with:  python3 -m pytest -q perfbench
"""

import dataclasses
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import spans
import workloads

# counters that depend only on the inputs, never on the machine
COUNT_KEYS = [key for key in spans.layer_metrics(spans.Tracer(), 0)
              if key.endswith(("_calls", "jobs", "output_bytes", "truncation_mean"))
              or key in ("oracle.steps", "oracle.rejected", "oracle.rhs_evals")]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    w = workloads.WORKLOADS[name]
    first = w.inputs(7, 0, 40)
    assert first == w.inputs(7, 0, 40)
    assert w.inputs(7, 0, 25) + w.inputs(7, 25, 15) == first  # block extension
    assert w.inputs(8, 0, 40) != first


def test_closed_form_inputs_split_between_bessel_regimes():
    zs = [inp["zabs"] for inp in workloads.WORKLOADS["closed_form_residual"].inputs(3, 0, 200)]
    series = sum(z <= workloads.SERIES_RADIUS for z in zs) / len(zs)
    assert 0.4 <= series <= 0.7
    assert all(workloads.Z_BOX[0] <= z <= workloads.Z_BOX[1] for z in zs)


def _probed(w, seen):
    def probe_run(inp, workdir):
        seen.append(spans.patched_attributes())
        return w.run(inp, workdir)

    return dataclasses.replace(w, run=probe_run)


def test_untraced_run_installs_no_wrappers(tmp_path):
    original = spans.patched_attributes()
    seen = []
    w = _probed(workloads.WORKLOADS["floquet_sweep"], seen)
    log = run.run_items(w, 1, [], str(tmp_path), lambda done: done >= 2)
    assert not log.failures
    assert seen and all(attrs == original for attrs in seen)
    assert not any(hasattr(fn, "__wrapped__") for fn in original.values())


def test_traced_run_wraps_every_patch_point_and_restores_them(tmp_path):
    original = spans.patched_attributes()
    seen = []
    tracer = spans.Tracer()
    w = _probed(workloads.WORKLOADS["floquet_sweep"], seen)
    with tracer.installed():
        run.run_items(w, 1, [], str(tmp_path), lambda done: done >= 1, tracer)
    assert all(seen[0][key] is not fn and seen[0][key].__wrapped__ is fn
               for key, fn in original.items())
    assert spans.patched_attributes() == original


def _traced_counts(name, items, tmp_path):
    tracer = spans.Tracer()
    w = workloads.WORKLOADS[name]
    with tracer.installed():
        log = run.run_items(w, 5, [], str(tmp_path), lambda done: done >= items, tracer)
    assert not log.failures
    metrics = spans.layer_metrics(tracer, log.output_bytes)
    assert len(log.latencies) == items and len(log.refs) == items + 1
    return {key: metrics[key] for key in COUNT_KEYS}


@pytest.mark.parametrize("name,items", [("floquet_sweep", 2), ("closed_form_residual", 2),
                                        ("reduction_pullback", 6), ("flux_demod", 1)])
def test_traced_counters_repeat_exactly(name, items, tmp_path, monkeypatch):
    monkeypatch.setenv("MATHIEU_KIT_TOL", workloads.FLUX_TOL)
    first = _traced_counts(name, items, tmp_path)
    assert first == _traced_counts(name, items, tmp_path)


def test_floquet_check_rejects_a_wrong_class(tmp_path):
    w = workloads.WORKLOADS["floquet_sweep"]
    inp = {"h": 1.0, "theta": 1.0}  # inside the first instability tongue
    gp, sol, label = w.run(inp, str(tmp_path))
    assert label == "unstable"
    right = w.check(inp, (gp, sol, label), str(tmp_path))
    wrong = w.check(inp, (gp, sol, "stable"), str(tmp_path))
    assert right.ok and wrong.ok  # the class is judged by the late check
    assert w.late_check(right.pending).ok
    assert not w.late_check(wrong.pending).ok


def test_late_check_failure_counts_against_its_item():
    w = workloads.WORKLOADS["floquet_sweep"]
    log = run.ItemLog(pending=[(0, (1.0, 1.0, "unstable")), (1, (1.0, 1.0, "stable"))])
    run.late_checks(w, log)
    assert [(idx, kind) for idx, kind, _ in log.failures] == [(1, "check")]


def test_y_regime_follows_the_path_bessel_y_takes():
    # |z| = 10 on the imaginary axis: Miller sweep for J, series for Y
    z = 10j
    assert spans._j_regime((3, z), {}, None) == "recurrence"
    assert spans._y_regime((3, z), {}, None) == "series"
    assert spans._y_regime((3, 10.0), {}, None) == "recurrence"
    assert spans._y_regime((12, 10.0), {}, None) == "series"


def test_reference_scaling_uses_the_kernel_times_around_and_during_each_item():
    nominal = run.REF_NOMINAL_S
    log = run.ItemLog(latencies=[0.1, 0.2], refs=[nominal, 3 * nominal, 2 * nominal, nominal],
                      ref_bounds=[0, 2, 3])
    # item 0: before, one sample during, after; item 1: before and after only
    assert log.scaled_latencies() == pytest.approx([0.05, 0.2 / 1.5])


def test_untraced_items_are_sampled_during_and_their_kernel_time_taken_off(tmp_path):
    w = workloads.WORKLOADS["floquet_sweep"]

    def slow_run(inp, workdir):
        t_end = time.perf_counter() + 2.5 * run.SAMPLE_INTERVAL_S
        while time.perf_counter() < t_end:
            pass
        return w.run(inp, workdir)

    log = run.run_items(dataclasses.replace(w, run=slow_run), 1, [], str(tmp_path),
                        lambda done: done >= 1)
    assert log.ref_bounds[1] - log.ref_bounds[0] >= 3  # before, and two or more during
    assert log.latencies[0] < 2.5 * run.SAMPLE_INTERVAL_S + 1.0


def test_closed_form_check_rejects_the_literal_variant(tmp_path):
    w = workloads.WORKLOADS["closed_form_residual"]
    side = {"passing_variant": "paper-literal", "residual_linf": 1e-12}
    (tmp_path / "residual.json").write_text(json.dumps(side))
    assert not w.check(w.warmup, 0, str(tmp_path)).ok


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(run.__file__).parent.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((run.ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "flux_demod",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""


def test_benchmark_json_names_the_harness_metrics():
    spec = run.Spec.load()
    assert tuple(spec.why) == tuple(workloads.WORKLOADS)
    traced = set(spans.layer_metrics(spans.Tracer(), 0))
    traced |= {"trace.items", "trace.item_s", "trace.items_per_s", "trace.ref_ms"}
    assert traced == set(spec.per_layer)
