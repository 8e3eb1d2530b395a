"""kRSP benchmark: four workloads, every answer checked, one JSON result.

Run from the repository root::

    python3 perfbench/run.py --workload tight_mix --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is a separate run that wraps each layer and reports the
per-layer split (see ``perfbench/layers.py``). Every end-to-end timing is
scaled to the reference host speed by probes taken around it (see
``perfbench/hostspeed.py``). The last line of standard output is the
result object; the line before it is the environment fingerprint with
the sample count and the unscaled figures. A fuller report, with every
budget trip, is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("tight_mix", "loose_router", "churn_online", "service_mixed")
SETUP_REPEATS = 3
OUT_DIR = ".perfbench_out"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fingerprint(seed: int) -> dict:
    """Library versions, LP backend, CPU and the workload seed."""
    import numpy
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": "unknown",
        "seed": seed,
    }
    try:
        from scipy.optimize._highspy import _core

        env["highs"] = (
            f"{_core.HIGHS_VERSION_MAJOR}.{_core.HIGHS_VERSION_MINOR}."
            f"{_core.HIGHS_VERSION_PATCH}"
        )
    except (ImportError, AttributeError):
        env["highs"] = "unknown"
    try:
        from repro.lp import engine as lp_engine

        env["lp_backend"] = lp_engine.get_engine().backend_name
        env["highspy_available"] = lp_engine.highspy_available()
    except (ImportError, AttributeError):
        env["lp_backend"] = "no LP engine module"
        env["highspy_available"] = False
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return env


def _quantiles(values: list[float]) -> tuple[float, float]:
    """(p50, p90) by ``statistics.quantiles``."""
    q = statistics.quantiles(values, n=10)
    return q[4], q[8]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


# -- library workloads ------------------------------------------------------


def _library_setup(workload: str, seed: int, speed):
    """Build inputs and warm up (``open``); repeated, median reported at
    reference host speed."""
    from perfbench import library
    from perfbench.hostspeed import ScaledClock

    times = []
    for _ in range(SETUP_REPEATS):
        clock = ScaledClock(speed)
        requests = library.make_requests(workload, seed)
        clock.lap()
        requests.open(lap=clock.lap)
        clock.lap()
        times.append(clock.total_s)
    return requests, statistics.median(times)


def library_run(workload: str, seed: int, seconds: float) -> dict:
    from perfbench import library
    from perfbench.hostspeed import HostSpeed

    speed = HostSpeed()
    requests, setup_s = _library_setup(workload, seed, speed)
    log = library.run_window(requests, seconds=seconds, speed=speed)
    ok = [o for o in log.outcomes if o.ok]
    ratios = [o.ratio for o in ok if o.ratio is not None]
    scaled = [o.scaled_s for o in log.outcomes]
    p50, p90 = _quantiles(scaled)
    ops = len(ok) / sum(scaled)
    summary = {
        "attempted": len(log.outcomes),
        "failed": len(log.outcomes) - len(ok),
        "wrong": sum(o.wrong for o in log.outcomes),
        "trips": log.trips,
        "unscaled": {
            "ops_per_s": len(ok) / log.wall_s,
            "latency_p50_ms": 1e3 * _quantiles([o.latency_s for o in log.outcomes])[0],
            "host_slowdown": speed.slowdown(),
        },
    }
    summary["metrics"] = {
        "setup_s": _metric(setup_s, "s"),
        "ops_per_s": _metric(ops, "1/s"),
        "latency_p50_ms": _metric(1e3 * p50, "ms"),
        "latency_p90_ms": _metric(1e3 * p90, "ms"),
        "success_fraction": _metric(len(ok) / len(log.outcomes), "ratio"),
        "cost_ratio_mean": _metric(statistics.fmean(ratios) if ratios else None, "ratio"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
        # One closed-loop caller: the highest rate it sustains is its throughput.
        "max_rate_rps": _metric(ops, "1/s"),
    }
    return summary


def library_trace(workload: str, seed: int, seconds: float) -> dict:
    """Untraced half, then the same requests again with every layer wrapped."""
    from repro import obs
    from repro.online.engine import FALLBACK_REASONS

    from perfbench import layers, library
    from perfbench.hostspeed import HostSpeed

    requests, _ = _library_setup(workload, seed, HostSpeed())
    plain = library.run_window(requests, seconds=seconds / 2)
    requests.open()
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        with obs.session(label=f"perfbench-{workload}") as tel:
            tracer.telemetry = tel
            with tracer.window():
                traced = library.run_window(requests, count=len(plain.outcomes))
    finally:
        tracer.uninstall()
    counters = dict(tel.counters)
    both = plain.outcomes + traced.outcomes
    summary = {
        "attempted": len(both),
        "failed": sum(not o.ok for o in both),
        "wrong": sum(o.wrong for o in both),
        "trips": plain.trips + traced.trips,
    }
    per = tracer.metrics()
    hits = counters.get("search.aux_cache.hit", 0)
    misses = counters.get("search.aux_cache.miss", 0)
    resolves = counters.get("online.resolves", 0)
    per["perf.aux_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    per["online.warm_fraction"] = counters.get("online.warm", 0) / resolves if resolves else 0.0
    per["online.lb_refresh_fraction"] = (
        counters.get("online.lb_refresh", 0) / resolves if resolves else 0.0
    )
    for reason in FALLBACK_REASONS:
        per[f"online.fallback.{reason}"] = counters.get(f"online.fallback.{reason}", 0)
    per["bench.untraced_ops_per_s"] = len(plain.outcomes) / plain.wall_s
    per["bench.traced_ops_per_s"] = len(traced.outcomes) / tracer.wall_s
    per["bench.tracing_overhead"] = _paired_overhead(
        [o.latency_s for o in plain.outcomes], [o.latency_s for o in traced.outcomes]
    )
    per["bench.unwrapped_sites"] = len(tracer.missing)
    summary["accounted_s"] = tracer.accounted_s()
    summary["per_layer"] = per
    return summary


def _paired_overhead(plain: list[float], traced: list[float]) -> float:
    """Median over requests of traced / untraced latency, minus one.

    Both runs send the same requests in the same order, so pairing each
    request with itself keeps a few heavy requests, whose time varies
    run to run, from swamping the cost of tracing.
    """
    return statistics.median(t / p for p, t in zip(plain, traced) if p > 0) - 1


# -- service workload -------------------------------------------------------


def _service_setup(seed: int, out: Path, speed):
    """Generate inputs, start the server, warm it with the first solves."""
    from perfbench import service as svc
    from perfbench.hostspeed import ScaledClock

    # One resolve per cycle, round-robin over the sessions.
    steps = svc.CYCLES // svc.SESSIONS + 2
    times = []
    server = None
    for rep in range(SETUP_REPEATS):
        if server is not None:
            server.close()
        clock = ScaledClock(speed)
        load = svc.Load(seed, steps)
        clock.lap()
        server = svc.Server(ROOT, out / f"spool-{os.getpid()}-{rep}")
        clock.lap()
        try:
            load.restart(server.port)
        except BaseException:
            server.close()
            raise
        clock.lap()
        times.append(clock.total_s)
    return load, server, statistics.median(times)


def service_run(seed: int, seconds: float, out: Path, trace: bool) -> dict:
    from perfbench import service as svc
    from perfbench.hostspeed import HostSpeed

    speed = HostSpeed()
    load, server, setup_s = _service_setup(seed, out, speed)
    cap = svc.STREAM_CAP * seconds
    try:
        if trace:
            plain = svc.run_cycles(server.port, load, svc.CYCLES // 2, cap / 2)
            from perfbench import layers

            load.restart(server.port)
            tracer = layers.LayerTracer()
            tracer.install()
            try:
                with tracer.window():
                    traced = svc.run_cycles(server.port, load, len(plain) // 4)
            finally:
                tracer.uninstall()
            reqs = plain + traced
        else:
            reqs = svc.run_cycles(server.port, load, svc.CYCLES, cap, speed)
        rss = server.worker_peak_rss_mb()
    finally:
        server.close()

    checked = svc.check(reqs)
    failed = sum(not r.ok for r in reqs)
    lat = svc.latency_stats(reqs)
    wall = max(r.done for r in reqs) - min(r.due for r in reqs)
    ok_count = sum(r.ok for r in reqs)
    # Busy time: a dup pair shares one interval, so count each send once.
    busy: dict[float, float] = {}
    for r in reqs:
        busy[r.due] = max(busy.get(r.due, 0.0), r.scaled)
    ops = ok_count / sum(busy.values())
    ratios = checked["ratios"]
    summary = {
        "attempted": len(reqs),
        "failed": failed,
        "wrong": checked["wrong"],
        "trips": checked["trips"],
        "unscaled": {
            "latency_p50_ms": 1e3 * statistics.median(r.done - r.due for r in reqs),
            "ops_per_s": ok_count / wall,
            "host_slowdown": speed.slowdown(),
        },
    }
    summary["metrics"] = {
        "setup_s": _metric(setup_s, "s"),
        "ops_per_s": _metric(ops, "1/s"),
        "latency_p50_ms": _metric(1e3 * lat["p50"], "ms"),
        "latency_p90_ms": _metric(1e3 * lat["p90"], "ms"),
        "success_fraction": _metric(1 - failed / len(reqs), "ratio"),
        "cost_ratio_mean": _metric(statistics.fmean(ratios) if ratios else None, "ratio"),
        "peak_rss_mb": _metric(rss, "MB"),
        # One closed-loop caller: the highest rate it sustains is its throughput.
        "max_rate_rps": _metric(ops, "1/s"),
    }
    if trace:
        per = tracer.metrics()
        per.update(svc.split_stats(reqs))
        per["bench.untraced_ops_per_s"] = len(plain) / (
            max(r.done for r in plain) - min(r.due for r in plain)
        )
        per["bench.traced_ops_per_s"] = len(traced) / tracer.wall_s
        by_due = lambda reqs: [r.done - r.sent for r in sorted(reqs, key=lambda r: r.due)]
        per["bench.tracing_overhead"] = _paired_overhead(by_due(plain), by_due(traced))
        per["bench.unwrapped_sites"] = len(tracer.missing)
        summary["per_layer"] = per
        summary["accounted_s"] = tracer.accounted_s()
    return summary


# -- entry point ------------------------------------------------------------


def _spec_units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _exit_on_sigterm(signum, frame):
    # Raise SystemExit so ``finally`` blocks stop the service we started.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; nothing to run",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    out = ROOT / OUT_DIR
    out.mkdir(exist_ok=True)

    if args.workload == "service_mixed":
        summary = service_run(args.seed, args.seconds, out, bool(args.trace))
    elif args.trace:
        summary = library_trace(args.workload, args.seed, args.seconds)
    else:
        summary = library_run(args.workload, args.seed, args.seconds)

    if args.trace:
        units = _spec_units("per_layer")
        per = summary["per_layer"]
        per["bench.failed_fraction"] = summary["failed"] / summary["attempted"]
        per["bench.requests"] = summary["attempted"]
        wall = per["bench.wall_s"]
        gap = abs(summary["accounted_s"] - wall)
        if gap > 1e-6 * max(wall, 1.0):
            raise RuntimeError(f"layer self times miss the wall time by {gap:.6f} s")
        metrics = {name: _metric(per.get(name, 0), unit) for name, unit in units.items()}
    else:
        metrics = summary["metrics"]
        if metrics["cost_ratio_mean"]["value"] is None:
            raise RuntimeError("no answer carried a flow-LP lower bound")

    attempted = summary["attempted"]
    result = {
        "correct": summary["wrong"] == 0,
        "attempted": attempted,
        "failed": summary["failed"],
        "metrics": metrics,
    }
    env = fingerprint(args.seed)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "trips": summary["trips"],
        "unscaled": summary.get("unscaled"),
        "result": result,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({"env": env, "workload": args.workload, "samples": attempted,
                      "unscaled": summary.get("unscaled")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
