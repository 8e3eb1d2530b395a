"""Closed-loop ``service_mixed`` workload against ``repro serve --workers 1``.

One caller sends each request and waits for its answer; the mix cycles
``solve_unique`` (a fresh pool instance), ``resolve`` (the next churn
delta of an online session, so the bench always knows the session's
instance) and ``solve_dup`` (one pinned instance sent as a simultaneous
pair over two connections, the case in-flight dedup exists for). A run
is a fixed number of cycles, with a host-speed probe between requests,
while the service is idle (see ``perfbench/hostspeed.py``).

Every answer must come back HTTP 200 with ``verification.verified``; all
bodies served for one job must be byte-identical. After the window each
distinct answer is checked again, with ``verify_solution`` and its flow-LP
bound, against the instance the bench itself derived.
"""

from __future__ import annotations

import asyncio
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.verify import verify_solution
from repro.online.deltas import apply_delta, delta_to_dict
from repro.service import client as svc_client
from repro.service.protocol import instance_digest

from perfbench import inputs
from perfbench.hostspeed import HostSpeed

HOST = "127.0.0.1"
SESSIONS = 3
#: Per-request deadline in seconds at reference host speed, far above a
#: worker solve (~30 ms) or warm resolve (~10 ms); sent as this times the
#: host slowdown of the recent probes.
DEADLINE_S = 10.0
#: Mix cycles one run sends. Fixed work, so that every run sends the same
#: requests whatever the host speed; capped at ``STREAM_CAP`` times the
#: run's seconds only so that a run always ends. A cycle is four requests
#: (the dup pair counts two) carrying one resolve.
CYCLES = 80
STREAM_CAP = 2.5
MIX = ("solve_unique", "resolve", "solve_dup")


@dataclass
class Sent:
    """One request, filled in as it progresses."""

    shape: str
    due: float
    body: bytes = b""
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    headers: dict = field(default_factory=dict)
    payload: bytes = b""
    session: int | None = None
    instance: tuple | None = None  # (g, s, t, k, D) the answer must solve
    answered: bool = False  # HTTP 200, state done, verified by the worker
    ok: bool = False  # answered, and passed the bench's own check
    scaled: float = 0.0  # latency from due time, at reference host speed


class Server:
    """A ``repro serve`` child process; stops it and its workers on close."""

    def __init__(self, root: Path, spool: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["TMPDIR"] = str(spool)
        spool.mkdir(parents=True, exist_ok=True)
        self.spool = spool
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--spool", str(spool / "jobs")],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        self.port = int(self._await_ready(timeout=60.0).rsplit(":", 1)[1])

    def _await_ready(self, timeout: float) -> str:
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        deadline = time.monotonic() + timeout
        try:
            while time.monotonic() < deadline:
                if not sel.select(timeout=deadline - time.monotonic()):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    break
                if "ready on " in line:
                    return line.split("ready on ", 1)[1].split()[0]
        finally:
            sel.close()
        self.close()
        raise RuntimeError("repro serve did not become ready")

    def children(self) -> list[int]:
        """Pids of the server's child processes (the solver worker)."""
        pids = []
        for path in Path(f"/proc/{self.proc.pid}/task").glob("*/children"):
            try:
                pids += [int(p) for p in path.read_text().split()]
            except OSError:
                continue
        return pids

    def worker_peak_rss_mb(self) -> float:
        peak = 0
        for pid in self.children():
            try:
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
            except OSError:
                continue
        return peak / 1024.0

    def close(self) -> None:
        kids = self.children()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        # The server is gone; its idle worker would linger ~2 s on its own.
        for pid in kids:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        for pid in kids:
            _wait_gone(pid)
        shutil.rmtree(self.spool, ignore_errors=True)


def _wait_gone(pid: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while Path(f"/proc/{pid}").exists():
        if time.monotonic() > deadline:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                return
            deadline = time.monotonic() + timeout
        time.sleep(0.02)


async def _post(port: int, body: bytes) -> tuple[int, dict, bytes]:
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        head = (
            f"POST /v1/solve HTTP/1.1\r\nHost: {HOST}:{port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        status_line = (await reader.readline()).decode("latin-1")
        status = int(status_line.split()[1])
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        payload = await reader.readexactly(int(headers.get("content-length", "0")))
        return status, headers, payload
    finally:
        writer.close()
        await writer.wait_closed()


class Load:
    """The request mix over the pool and the sessions' churn traces.

    :meth:`restart` puts the server and the bench back at the start of the
    request sequence, so a traced run sends the same requests as the
    untraced one before it: the sessions are solved afresh (untimed),
    which resets them on the server. Resolves go round-robin to the
    sessions, so the bench knows each session's exact instance when it
    sends the next delta.
    """

    #: Probe time over ``REFERENCE_S``, kept current by the request loop.
    host_slowdown: float = 1.0

    def __init__(self, seed: int, steps: int):
        self.dup, self.unique, churn = inputs.service_mix(seed, SESSIONS, steps)
        self.sessions = [c.base for c in churn]
        self.traces = [c.deltas for c in churn]
        self.hashes = [instance_digest(i.as_dict()) for i in self.sessions]

    def _solve_body(self, inst: inputs.Instance, tenant: str) -> bytes:
        return json.dumps(svc_client.solve_request(
            inst.as_dict(), tenant=tenant,
            deadline_seconds=DEADLINE_S * self.host_slowdown,
        )).encode("utf-8")

    def restart(self, port: int) -> None:
        """Warm-up solves of the dup instance and every session (untimed)."""
        for inst in [self.dup, *self.sessions]:
            body = self._solve_body(inst, "alice")
            status, _, payload = asyncio.run(_post(port, body))
            if status != 200 or json.loads(payload).get("state") != "done":
                raise RuntimeError(f"service warm-up solve failed: HTTP {status}")
        self.mirror = [(i.graph, i.s, i.t, i.k, i.delay_bound) for i in self.sessions]
        self.step = [0] * SESSIONS
        self.dead = [False] * SESSIONS
        self.n_unique = 0
        self.n_resolve = 0

    def materialise(self, req: Sent) -> None:
        """Fill in the request body at send time."""
        if req.shape == "solve_dup":
            req.body = self._solve_body(self.dup, "alice")
            req.instance = (self.dup.graph, self.dup.s, self.dup.t, self.dup.k,
                            self.dup.delay_bound)
            return
        if req.shape == "resolve":
            j = self.n_resolve % SESSIONS
            self.n_resolve += 1
            if not self.dead[j] and self.step[j] < len(self.traces[j]):
                delta = self.traces[j][self.step[j]]
                req.session = j
                req.instance = apply_delta(*self.mirror[j], delta)
                req.body = json.dumps(svc_client.solve_request(
                    kind="resolve", instance_hash=self.hashes[j],
                    delta=delta_to_dict(delta), tenant="bravo",
                    deadline_seconds=DEADLINE_S * self.host_slowdown,
                )).encode("utf-8")
                return
            req.shape = "solve_unique"  # the session failed or is spent
        inst = self.unique[self.n_unique % len(self.unique)]
        self.n_unique += 1
        req.instance = (inst.graph, inst.s, inst.t, inst.k, inst.delay_bound)
        req.body = self._solve_body(inst, "bravo" if self.n_unique % 2 else "alice")

    def settle(self, req: Sent, state: str | None) -> None:
        """Advance a session's mirror once the server committed its delta."""
        j = req.session
        if j is None:
            return
        if req.status == 200 and state in ("done", "degraded"):
            self.mirror[j] = req.instance
            self.step[j] += 1
        else:
            self.dead[j] = True


async def _send(port: int, load: Load, req: Sent) -> None:
    req.sent = time.perf_counter()
    try:
        req.status, req.headers, req.payload = await _post(port, req.body)
    except (OSError, ValueError, asyncio.IncompleteReadError) as exc:
        req.status = 0
        req.payload = f"{type(exc).__name__}: {exc}".encode()
    req.done = time.perf_counter()
    state = None
    if req.status == 200:
        body = json.loads(req.payload)
        state = body.get("state")
        req.answered = state == "done" and bool(
            (body.get("verification") or {}).get("verified")
        )
    load.settle(req, state)


async def _cycles(
    port: int, load: Load, count: int, seconds: float | None, speed: HostSpeed | None
) -> list[Sent]:
    """Send ``count`` mix cycles back to back (a dup pair at once), until
    ``seconds`` run out at a cycle boundary.

    With a ``speed`` probe, one probe runs before the first request and
    after each one (or pair), while the service is idle; each request's
    ``scaled`` latency is its latency scaled by the mean of the probes
    around it, and deadlines follow the latest probe.
    """
    done: list[Sent] = []
    before = speed.probe() if speed is not None else None
    start = time.perf_counter()
    for i in range(count * len(MIX)):
        if seconds is not None and i % len(MIX) == 0 and time.perf_counter() - start >= seconds:
            break
        if speed is not None:
            load.host_slowdown = speed.recent_slowdown()
        shape = MIX[i % len(MIX)]
        due = time.perf_counter()
        reqs = [Sent(shape, due) for _ in range(2 if shape == "solve_dup" else 1)]
        for req in reqs:
            load.materialise(req)
        await asyncio.gather(*(_send(port, load, req) for req in reqs))
        after = speed.probe() if speed is not None else None
        for req in reqs:
            req.scaled = req.done - req.due
            if speed is not None:
                req.scaled = speed.scale(req.scaled, (before + after) / 2)
        before = after
        done.extend(reqs)
    return done


def run_cycles(
    port: int, load: Load, count: int, seconds: float | None = None,
    speed: HostSpeed | None = None,
) -> list[Sent]:
    """One closed-loop caller: see :func:`_cycles`."""
    return asyncio.run(_cycles(port, load, count, seconds, speed))


def check(requests: list[Sent]) -> dict:
    """Check every answer and set each request's ``ok``.

    Returns the count of wrong answers (failed verification, or deduped
    subscribers served differing bytes), the cost ratios of the good
    ones, and every degraded answer for reproduction.
    """
    by_job: dict[str, list[Sent]] = {}
    wrong = 0
    ratios = []
    trips = []
    verified: dict[tuple, tuple[bool, float | None]] = {}
    for req in requests:
        req.ok = False
        if not req.answered:
            if req.status == 200:
                body = json.loads(req.payload)
                trips.append({"where": f"service {req.shape} due {req.due:.3f}",
                              "status": body.get("state"), "error": body.get("error")})
                print(f"perfbench: service {req.shape}: state {body.get('state')}",
                      file=sys.stderr)
            continue
        by_job.setdefault(req.headers.get("x-krsp-job", ""), []).append(req)
        sol = json.loads(req.payload)["solution"]
        key = (id(req.instance[0]), tuple(map(tuple, sol["paths"])))
        if key not in verified:
            g, s, t, k, bound = req.instance
            report = verify_solution(
                g, s, t, k, bound, sol["paths"],
                claimed_cost=sol["cost"], claimed_delay=sol["delay"],
            )
            verified[key] = (report.clean, report.approximation_ratio_upper_bound)
        clean, ratio = verified[key]
        if not clean:
            wrong += 1
            print(f"perfbench: service {req.shape} answer failed verification",
                  file=sys.stderr)
            continue
        req.ok = True
        if ratio is not None:
            ratios.append(ratio)
    for job, reqs in by_job.items():
        if len({r.payload for r in reqs}) > 1:
            wrong += len(reqs)
            for r in reqs:
                r.ok = False
            print(f"perfbench: deduped job {job} served differing bytes", file=sys.stderr)
    return {"wrong": wrong, "ratios": ratios, "trips": trips}


def latency_stats(requests: list[Sent]) -> dict:
    """p50 and p90 of latency counted from when each request was due."""
    q = statistics.quantiles([r.scaled for r in requests], n=10)
    return {"p50": q[4], "p90": q[8], "n": len(requests)}


def split_stats(requests: list[Sent]) -> dict:
    """Queue wait, worker solve and service overhead from response fields."""
    waits, solves, overheads = [], [], []
    pairs = hits = 0
    for r in requests:
        if r.shape == "solve_dup":
            pairs += 0.5
            hits += r.headers.get("x-krsp-dedup") == "hit"
        if r.status != 200:
            continue
        body = json.loads(r.payload)
        wait = float(body.get("queue_wait_seconds") or 0.0)
        solve = float(body.get("elapsed_seconds") or 0.0)
        if r.headers.get("x-krsp-dedup") == "hit":
            continue  # a follower shares its leader's wait and solve
        waits.append(wait)
        solves.append(solve)
        overheads.append((r.done - r.sent) - wait - solve)

    def pct(values, p):
        return statistics.quantiles(values, n=10)[p] if len(values) >= 2 else 0.0

    return {
        "service.queue_wait_p90_ms": 1e3 * pct(waits, 8),
        "service.worker_solve_p50_ms": 1e3 * pct(solves, 4),
        "service.overhead_p50_ms": 1e3 * pct(overheads, 4),
        "service.dedup_hit_ratio": hits / pairs if pairs else 0.0,
    }
