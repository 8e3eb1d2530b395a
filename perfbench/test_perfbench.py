"""Tests of the benchmark itself: seeded inputs, declared metrics, and
that measuring without tracing patches nothing."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from perfbench import inputs, layers, run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _small_inputs(seed: int) -> dict:
    return {
        "tight_mix": inputs.tight_mix(seed, per_family=2),
        "loose_router": inputs.loose_router(seed, count=2),
        "churn_online": inputs.churn_online(seed, sessions=1, steps=4),
        "service_mixed": inputs.service_mix(seed, sessions=1, steps=3, unique=2),
    }


def _hashes(seed: int) -> dict:
    out = {}
    for name, value in _small_inputs(seed).items():
        if name == "service_mixed":
            dup, pool, sessions = value
            value = [dup, *pool, *sessions]
        out[name] = [inputs.digest(x) for x in value]
    return out


def test_same_seed_same_inputs_other_seed_other_inputs():
    first, again, other = _hashes(5), _hashes(5), _hashes(6)
    assert first == again
    for name in first:
        assert not set(first[name]) & set(other[name]), name


def test_relabelling_keeps_the_instance_shape():
    a = inputs.tight_mix(1, per_family=2)
    b = inputs.tight_mix(2, per_family=2)
    shape = lambda p: sorted((i.name, i.graph.n, i.graph.m, i.delay_bound) for i in p)
    assert shape(a) == shape(b)


def _site_objects() -> dict:
    objs = {}
    for sites in layers.LAYER_SITES.values():
        for target, name in sites:
            holder = layers._resolve_target(target)
            objs[(str(target), name)] = layers._get(holder, name)
    return objs


def test_untraced_run_leaves_wrapped_attributes_untouched():
    before = _site_objects()
    summary = run.library_run("loose_router", seed=3, seconds=0.3)
    after = _site_objects()
    assert summary["attempted"] >= 1
    for key, obj in before.items():
        assert after[key] is obj, key


def test_tracer_restores_sites_and_accounts_for_the_wall():
    from perfbench import library

    before = _site_objects()
    requests = library.make_requests("tight_mix", 1)
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        assert all(
            _site_objects()[key] is not obj for key, obj in before.items()
        )
        with tracer.window():
            log = library.run_window(requests, count=12)
    finally:
        tracer.uninstall()
    assert _site_objects() == before
    assert tracer.missing == []
    assert all(o.ok for o in log.outcomes)
    assert tracer.accounted_s() == pytest.approx(tracer.wall_s, rel=1e-9)
    assert tracer.calls["core.verify"] == 12


@pytest.mark.parametrize(
    "workload,trace",
    [("loose_router", 0), ("loose_router", 1), ("service_mixed", 0), ("service_mixed", 1)],
)
def test_emitted_metrics_are_the_declared_ones(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "2", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float))


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in run.ROOT.joinpath("perfbench").glob("*.py"):
        bench.joinpath(f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tight_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_host_speed_scaling_is_linear():
    from perfbench.hostspeed import REFERENCE_S, HostSpeed

    speed = HostSpeed()
    assert speed.scale(0.5, REFERENCE_S) == 0.5
    assert speed.scale(0.5, 2 * REFERENCE_S) == pytest.approx(0.25)
    speed.probes = [REFERENCE_S, 2 * REFERENCE_S, 4 * REFERENCE_S]
    assert speed.slowdown() == pytest.approx(2.0)


def test_scaled_window_probes_around_every_request():
    from perfbench import library
    from perfbench.hostspeed import HostSpeed

    speed = HostSpeed()
    requests = library.make_requests("tight_mix", 1)
    log = library.run_window(requests, count=5, speed=speed)
    assert len(speed.probes) == 6
    for i, o in enumerate(log.outcomes):
        around = (speed.probes[i] + speed.probes[i + 1]) / 2
        assert o.scaled_s == pytest.approx(speed.scale(o.latency_s, around))
