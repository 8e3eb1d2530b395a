"""Closed-loop library workloads: one caller, one request at a time.

A request is one solve (or resolve) under a ``SolveBudget`` deadline plus
the independent check of its answer with ``verify_solution``; the request
latency covers both, because a user needs the answer verified. Every
answer is checked. Layer functions are called through their module
attributes so that :class:`~perfbench.layers.LayerTracer` sees them.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

import repro.core.krsp as krsp_mod
import repro.core.verify as verify_mod
import repro.online.engine as online_mod
from repro.online.deltas import apply_delta
from repro.robustness.budget import SolveBudget

from perfbench import inputs
from perfbench.hostspeed import HostSpeed

#: Per-request deadline in seconds at reference host speed (see
#: ``perfbench/hostspeed.py``), far above each workload's normal tail
#: (tight_mix max ~0.3 s, loose_router ~0.05 s; churn_online p99 ~0.5 s and
#: its heaviest normal step, session 0 step 35, ~2.5 s). The wall-clock
#: budget given to the solver is this times the host slowdown of the
#: recent probes, so a tripped request does the same work on a fast host
#: and a slow one.
DEADLINE_S = {"tight_mix": 10.0, "loose_router": 5.0, "churn_online": 6.0}
#: Cap on aux-graph search nodes per churn resolve. Normal churn steps
#: build none; the pathological step (session 1 step 84, 654 s unbudgeted)
#: builds 20k by 14 s and grows the heap by ~35 MB some seconds in, so a
#: wall-clock trip alone would make its cost and the run's peak memory
#: depend on where the clock cut it. The cap fails it at the same point
#: (~0.4 s) in every run; it still counts as a failed request.
CHURN_SEARCH_NODE_CAP = 5000
#: Deadline of the cold ``start_online`` solves that open churn sessions
#: (up to ~4 s each); they are set-up work, so a trip fails the run.
OPEN_DEADLINE_S = 30.0
#: A fixed-work stream may run this many times ``--seconds`` before it is cut.
STREAM_CAP = 2.5


#: verify_solution issues that follow from a declared delay-budget miss.
_DECLARED_MISS_ISSUES = ("delay ", "claimed cost beats the LP lower bound")


@dataclass
class Outcome:
    """What one request did and how its answer checked out."""

    latency_s: float
    ok: bool
    wrong: bool = False  # the answer failed verification
    ratio: float | None = None
    scaled_s: float | None = None  # latency at reference host speed


@dataclass
class RunLog:
    """Outcomes of a window plus every budget trip, for reproduction."""

    outcomes: list[Outcome] = field(default_factory=list)
    trips: list[dict] = field(default_factory=list)
    wall_s: float = 0.0


def _check(inst_args, sol, where: str, log: RunLog, t0: float) -> Outcome:
    """Verify one answer against the instance it was asked about.

    An answer whose status is not ``ok`` is a failed request. It is also
    *wrong* only if it fails verification for another reason than the
    delay-budget miss it declared (``delay_feasible`` false): such a
    partial answer may exceed D, and then may also undercut the flow-LP
    bound, which holds only for solutions within D.
    """
    g, s, t, k, bound = inst_args
    report = verify_mod.verify_solution(
        g, s, t, k, bound, sol.paths, claimed_cost=sol.cost, claimed_delay=sol.delay
    )
    latency = time.perf_counter() - t0
    if sol.status != "ok":
        reason = sol.certificate.exhausted_reason if sol.certificate else None
        log.trips.append({"where": where, "status": sol.status, "reason": reason})
        print(f"perfbench: {where}: status {sol.status} ({reason})", file=sys.stderr)
    declared_miss = not sol.delay_feasible and sol.status != "ok"
    blocking = [
        issue for issue in report.issues
        if not (declared_miss and issue.startswith(_DECLARED_MISS_ISSUES))
    ]
    wrong = not report.valid or bool(blocking) or (sol.delay > bound and not declared_miss)
    if wrong:
        print(f"perfbench: {where}: answer failed verification: {report.issues}",
              file=sys.stderr)
    return Outcome(
        latency_s=latency,
        ok=sol.status == "ok" and not wrong,
        wrong=wrong,
        ratio=report.approximation_ratio_upper_bound,
    )


def _failed(where: str, exc: Exception, t0: float) -> Outcome:
    print(f"perfbench: {where}: raised {type(exc).__name__}: {exc}", file=sys.stderr)
    return Outcome(time.perf_counter() - t0, ok=False)


class _Requests:
    """A request stream whose deadlines follow the host speed."""

    deadline_s: float
    max_search_nodes: int | None = None
    #: Probe time over ``REFERENCE_S``, kept current by :func:`run_window`.
    host_slowdown: float = 1.0

    def budget(self) -> SolveBudget:
        return SolveBudget(
            deadline_seconds=self.deadline_s * self.host_slowdown,
            max_search_nodes=self.max_search_nodes,
        )


class SolveRequests(_Requests):
    """Cycles through a pool: each request is ``solve_krsp`` + verify."""

    def __init__(self, pool: list[inputs.Instance], deadline_s: float, tag: str):
        self.pool = pool
        self.period = len(pool)
        self.deadline_s = deadline_s
        self.tag = tag

    def open(self, lap=None) -> None:
        """Warm up with one checked solve of the first instance (untimed)."""
        log = RunLog()
        if not self._request(0)(log).ok:
            raise RuntimeError(f"{self.tag}: warm-up solve failed")

    def __iter__(self):
        i = 0
        while True:
            yield self._request(i)
            i += 1

    def _request(self, i: int):
        inst = self.pool[i % len(self.pool)]
        args = (inst.graph, inst.s, inst.t, inst.k, inst.delay_bound)

        def run(log: RunLog) -> Outcome:
            where = f"{self.tag} request {i} ({inst.name} #{i % len(self.pool)})"
            t0 = time.perf_counter()
            try:
                sol = krsp_mod.solve_krsp(*args, budget=self.budget())
            except Exception as exc:  # a raise on valid input is a failed request
                return _failed(where, exc, t0)
            return _check(args, sol, where, log, t0)

        return run


class ChurnRequests(_Requests):
    """Online sessions, one per base instance, fed their deltas in turn.

    :meth:`open` starts every session with ``start_online`` (set-up work,
    checked but not timed as a request); iterating then yields the
    sessions' ``resolve`` calls round-robin until every trace is spent.
    The instance each answer is checked against comes from the bench's
    own ``apply_delta`` replay, computed at set-up, not from the session
    the program patched.
    """

    max_search_nodes = CHURN_SEARCH_NODE_CAP

    def __init__(self, sessions: list[inputs.ChurnSession], deadline_s: float, tag: str):
        self.sessions = sessions
        self.deadline_s = deadline_s
        self.tag = tag
        self.states: list = []
        self.expected = []
        for sess in sessions:
            b = sess.base
            state = (b.graph, b.s, b.t, b.k, b.delay_bound)
            steps = []
            for delta in sess.deltas:
                state = apply_delta(*state, delta)
                steps.append(state)
            self.expected.append(steps)

    def open(self, lap=None) -> None:
        """Start every session; ``lap`` is called after each one."""
        self.states = []
        log = RunLog()
        for j, sess in enumerate(self.sessions):
            b = sess.base
            args = (b.graph, b.s, b.t, b.k, b.delay_bound)
            t0 = time.perf_counter()
            state = online_mod.start_online(
                *args, budget=SolveBudget(deadline_seconds=OPEN_DEADLINE_S)
            )
            if not _check(args, state.solution, f"{self.tag} session {j} start", log, t0).ok:
                raise RuntimeError(f"{self.tag}: session {j} did not open cleanly")
            self.states.append(state)
            if lap is not None:
                lap()

    def __iter__(self):
        longest = max(len(s.deltas) for s in self.sessions)
        for step in range(longest):
            for j, sess in enumerate(self.sessions):
                if step < len(sess.deltas):
                    yield self._resolve(j, step)

    def _resolve(self, j: int, step: int):
        delta = self.sessions[j].deltas[step]
        args = self.expected[j][step]

        def run(log: RunLog) -> Outcome:
            where = f"{self.tag} session {j} step {step}"
            t0 = time.perf_counter()
            try:
                sol = online_mod.resolve(
                    self.states[j], delta, budget=self.budget()
                )
            except Exception as exc:
                return _failed(where, exc, t0)
            return _check(args, sol, where, log, t0)

        return run


def make_requests(workload: str, seed: int):
    """Inputs for one library workload, wrapped as a request stream."""
    tag = f"{workload} seed {seed}"
    deadline = DEADLINE_S[workload]
    if workload == "churn_online":
        return ChurnRequests(inputs.churn_online(seed), deadline, tag)
    pool = inputs.tight_mix(seed) if workload == "tight_mix" else inputs.loose_router(seed)
    return SolveRequests(pool, deadline, tag)


def run_window(
    requests,
    seconds: float | None = None,
    count: int | None = None,
    speed: HostSpeed | None = None,
) -> RunLog:
    """Run requests back to back until ``count`` are done, the stream
    ends, or ``seconds`` have passed *and* a pass over the pool is complete.

    Ending on a pass boundary weighs every pool instance equally, so where
    the clock runs out inside a pass cannot move the result. A stream
    without a pool (churn) is fixed work: it runs to its end, capped at
    ``STREAM_CAP`` times ``seconds`` only so that a run always ends.

    With a ``speed`` probe, one probe runs before the first request and
    after each one; every outcome's ``scaled_s`` is its latency scaled by
    the mean of the two probes around it, and the stream's deadlines
    follow the latest probe.
    """
    log = RunLog()
    period = getattr(requests, "period", None)
    if period is None and seconds is not None:
        seconds *= STREAM_CAP
    before = None
    if speed is not None:
        before = speed.probe()
        requests.host_slowdown = speed.recent_slowdown()
    start = time.perf_counter()
    for run in requests:
        done = len(log.outcomes)
        if count is not None and done >= count:
            break
        if (
            seconds is not None
            and time.perf_counter() - start >= seconds
            and (period is None or done % period == 0)
        ):
            break
        outcome = run(log)
        if speed is not None:
            after = speed.probe()
            outcome.scaled_s = speed.scale(outcome.latency_s, (before + after) / 2)
            requests.host_slowdown = speed.recent_slowdown()
            before = after
        log.outcomes.append(outcome)
    log.wall_s = time.perf_counter() - start
    return log
