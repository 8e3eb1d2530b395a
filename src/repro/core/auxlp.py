"""The min-ratio cycle oracle, LP (6), and candidate-cycle extraction.

The paper solves a linear program over circulations of the auxiliary graph
and releases the cycles in its support (Algorithm 3 steps 1(a)ii–iii,
Theorem 16). The production search asks the Charnes–Cooper normalization
of ``min d(O)/|c(O)|``:

    minimize    sum_{e in H} d(e) x_e
    subject to  x is a circulation in H        (conservation everywhere)
                sum_{wraps of chosen sign} |wrap_cost| * x = 1
                x >= 0, other-sign wraps fixed to 0

A circulation LP with one normalization row has single-cycle basic optima
(Theorem 16 of the full version), so its optimum is attained by one
*minimum cost-to-time ratio cycle* of ``H`` with time ``t(e) = |wrap_cost|``
on chosen-sign wraps and 0 elsewhere. :func:`solve_ratio_lp` computes that
cycle exactly, in integers, without an LP:

1. Drop other-sign wraps, and every edge outside a strongly connected
   component (no cycle uses it).
2. Dinkelbach/Newton steps on ``lambda = p/q``: search for a negative cycle
   under the integer weights ``q*d - p*t``; a hit ``C`` with ``t(C) > 0``
   sets ``p/q = d(C)/t(C)`` (strictly smaller) and repeats, starting from
   ``p = sum |d| + 1, q = 1`` (above every cycle's ratio). The step that
   finds no negative cycle proves ``p/q`` optimal, and its Bellman–Ford
   potentials are an exact dual certificate.
3. A hit with ``t(C) = 0`` is a negative-delay cycle of zero cost — the
   type-0 candidate the search wants most — and is returned at once. (An
   LP would be unbounded on it.)

Each negative-cycle search is a synchronous numpy Bellman–Ford from a
virtual source that checks the predecessor graph for a cycle every
:data:`CYCLE_CHECK_EVERY` rounds (vectorized pointer doubling). Such a
cycle is strictly negative even under synchronous updates, so the search
stops as soon as one forms instead of running ``n`` rounds. Weights and
distances stay in int64 while the magnitude bound allows and switch to
Python integers beyond it, so every accepted instance is solved exactly.

The returned 0/1 H-edge vector is peeled into H-cycles, projected to
residual closed walks, split into simple residual cycles, and returned with
*exact integer* totals (:func:`candidates_from_circulation`).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro._util.intmath import ratio_lt
from repro.core.auxgraph import AuxGraph
from repro.core.bicameral import CandidateCycle
from repro.core.cycle_decompose import split_closed_walk
from repro.errors import SolverError
from repro.graph.digraph import DiGraph
from repro.lp.engine import get_engine
from repro.robustness.budget import current_meter

#: Mass below this is treated as zero when peeling fractional circulations.
PEEL_TOL = 1e-7

#: Per-edge mass cap in LP (6); see :func:`solve_lp6`.
MASS_CAP = 1e6

#: Bellman–Ford rounds between predecessor-graph cycle checks. A check
#: costs about one round; checking later also lets more negative cycles
#: form, so fewer Newton steps follow (12 minimized total rounds on the E5
#: and ``tight_mix`` kernels among intervals 4-32).
CYCLE_CHECK_EVERY = 12

#: Largest magnitude the oracle lets int64 weights and distances reach
#: (headroom below ``2**63`` for one more addition).
INT64_SAFE = 2**62


def solve_ratio_lp(aux: AuxGraph, cost_sign: int) -> np.ndarray | None:
    """Exact minimum-ratio cycle of ``aux`` for one wrap sign.

    ``cost_sign`` selects the wrap family that carries time (+1: cycles of
    positive cost; -1: negative cost). Returns the 0/1 H-edge indicator of
    the optimal cycle — or of a zero-time negative-delay cycle when one
    exists — or ``None`` when ``H`` has neither. The value equals the
    optimum of the normalized circulation LP in the module docstring.

    Raises :class:`~repro.errors.BudgetExhaustedError` when the ambient
    budget runs out between Bellman–Ford rounds, and
    :class:`~repro.errors.SolverError` if the answer fails its exact
    certificate.
    """
    wraps = aux.wrap_cost
    chosen = (wraps * cost_sign) > 0
    if not chosen.any():
        return None
    h = aux.graph
    obs.inc("ratio_oracle.solves")
    with obs.span("ratio_oracle"):
        eids = _cyclic_edges(h, np.nonzero((wraps == 0) | chosen)[0])
        if len(eids) == 0:
            return None
        nodes, inv = np.unique(
            np.concatenate([h.tail[eids], h.head[eids]]), return_inverse=True
        )
        tail, head = inv[: len(eids)], inv[len(eids) :]
        d = h.delay[eids]
        t = np.abs(wraps[eids])
        cycle = _min_ratio_cycle(len(nodes), tail, head, d, t)
    if cycle is None:
        return None
    x = np.zeros(h.m)
    x[eids[cycle]] = 1.0
    return x


def _cyclic_edges(h: DiGraph, live: np.ndarray) -> np.ndarray:
    """The edges of ``live`` that lie inside a strongly connected component
    of the subgraph they span — the only ones any cycle can use."""
    # Imported on first use: csgraph adds ~1 MB of RSS to processes that
    # never search (phase 1 already meets D).
    from scipy.sparse.csgraph import connected_components  # noqa: PLC0415

    tail, head = h.tail[live], h.head[live]
    adj = sp.csr_matrix(
        (np.ones(len(live), dtype=np.int32), (tail, head)), shape=(h.n, h.n)
    )
    _, label = connected_components(adj, directed=True, connection="strong")
    return live[label[tail] == label[head]]


def _min_ratio_cycle(
    n: int, tail: np.ndarray, head: np.ndarray, d: np.ndarray, t: np.ndarray
) -> list[int] | None:
    """Dinkelbach steps over Bellman–Ford; see the module docstring.

    Works on a compact graph (nodes ``0..n-1``, edge arrays ``tail``,
    ``head``, delay ``d``, time ``t >= 0``). Returns a list of edge
    indices, or ``None`` when no cycle has negative delay or positive time.
    """
    d_l, t_l = d.tolist(), t.tolist()
    max_d, max_t = int(np.abs(d).max()), int(t.max())
    p, q = sum(map(abs, d_l)) + 1, 1  # Python ints: exact at any magnitude
    best: list[int] | None = None
    while True:
        obs.inc("ratio_oracle.steps")
        # |w| <= q*max|d| + |p|*max t; a distance sums at most n + 1 weights.
        if (n + 1) * (q * max_d + abs(p) * max_t) < INT64_SAFE:
            w = q * d - p * t
        else:
            obs.inc("ratio_oracle.wide_steps")
            w = q * d.astype(object) - p * t.astype(object)
        cycles, dist = _negative_cycles(n, tail, head, w)
        if dist is not None:
            break
        step = None
        for cyc in cycles:
            _check_closed(cyc, tail, head)
            dc = sum(d_l[e] for e in cyc)
            tc = sum(t_l[e] for e in cyc)
            if tc == 0:
                if dc >= 0:
                    raise SolverError("ratio oracle: zero-time cycle is not negative")
                return cyc  # zero-cost negative-delay cycle: type 0
            if step is None or ratio_lt(dc, tc, step[1], step[2]):
                step = (cyc, dc, tc)
        assert step is not None
        best, dc, tc = step
        if not ratio_lt(dc, tc, p, q):
            raise SolverError("ratio oracle: Newton step did not lower the ratio")
        g = math.gcd(dc, tc)
        p, q = dc // g, tc // g
    # Exact dual certificate: the final potentials admit no negative
    # reduced weight, so no cycle has ratio below p/q — which ``best``
    # attains. With no ``best``, p exceeds every cycle's possible ratio, so
    # no cycle has positive time (nor negative delay at zero time).
    if np.any(dist[tail] + w < dist[head]):
        raise SolverError("ratio oracle: final potentials are infeasible")
    return best


def _negative_cycles(
    n: int, tail: np.ndarray, head: np.ndarray, w: np.ndarray
) -> tuple[list[list[int]], np.ndarray | None]:
    """Bellman–Ford from a virtual source with early cycle detection.

    Returns ``(cycles, None)`` with the predecessor-graph cycles (edge index
    lists, each strictly negative under ``w``) as soon as any forms, or
    ``([], dist)`` with feasible potentials once no edge relaxes. Only
    edges out of vertices improved in the previous round are rescanned.
    """
    meter = current_meter()
    dist = np.zeros(n, dtype=w.dtype)
    pred = np.full(n, -1, dtype=np.int64)
    active = np.arange(len(w), dtype=np.int64)
    rounds = 0
    try:
        while True:
            if meter is not None:
                meter.check("auxlp.ratio_lp")
            rounds += 1
            cand = dist[tail[active]] + w[active]
            improved = cand < dist[head[active]]
            if not improved.any():
                return [], dist
            active, cand = active[improved], cand[improved]
            targets = head[active]
            new = dist.copy()
            np.minimum.at(new, targets, cand)
            win = cand == new[targets]
            pred[targets[win]] = active[win]
            dist = new
            if rounds % CYCLE_CHECK_EVERY == 0 or rounds >= n:
                cycles = _pred_cycles(pred, tail, n)
                if cycles:
                    return cycles, None
                if rounds >= n:
                    raise SolverError(
                        "ratio oracle: still relaxing after n rounds "
                        "without a predecessor cycle"
                    )
            changed = np.zeros(n, dtype=bool)
            changed[targets] = True
            active = np.nonzero(changed[tail])[0]
    finally:
        obs.add("bellman_ford.rounds", rounds)


def _pred_cycles(pred: np.ndarray, tail: np.ndarray, n: int) -> list[list[int]]:
    """Every cycle of the predecessor graph, as forward edge-index lists.

    Pointer doubling finds the vertex ``2**k >= n`` predecessor steps up
    from each vertex — on a cycle whenever the chain never ends — in
    ``O(n log n)`` vectorized work; only the cycles themselves are walked
    in Python. Vertex ``n`` is a sentinel root that every chain without a
    predecessor ends in.
    """
    up = np.append(np.where(pred >= 0, tail[pred], n), n)
    jump = up
    reach = 1
    while reach < n:
        jump = jump[jump]
        reach *= 2
    on_cycle = np.unique(jump[:n][jump[:n] != n])
    if len(on_cycle) == 0:
        return []
    pred_l, up_l = pred.tolist(), up.tolist()
    seen: set[int] = set()
    cycles = []
    for start in on_cycle.tolist():
        if start in seen:
            continue
        walk = []
        v = start
        while v not in seen:
            seen.add(v)
            walk.append(pred_l[v])
            v = up_l[v]
        walk.reverse()
        cycles.append(walk)
    return cycles


def _check_closed(cycle: list[int], tail: np.ndarray, head: np.ndarray) -> None:
    """Raise :class:`SolverError` unless ``cycle`` is a closed edge chain."""
    if not cycle:
        raise SolverError("ratio oracle: empty cycle")
    c = np.asarray(cycle, dtype=np.int64)
    if not np.array_equal(head[c], tail[np.roll(c, -1)]):
        raise SolverError("ratio oracle: cycle edges do not close up")


def peel_fractional_cycles(
    g: DiGraph,
    x: np.ndarray,
    tol: float = PEEL_TOL,
) -> list[list[int]]:
    """Decompose a fractional circulation into cycles (edge-id lists).

    Greedy peel: walk along edges with remaining mass, following the
    largest-mass out-edge; on revisiting a vertex, subtract the cycle's
    bottleneck mass. Terminates because every peel removes at least one
    edge from the support. Tiny conservation noise from the LP is absorbed
    by ``tol``.
    """
    x = np.asarray(x, dtype=np.float64).copy()
    out: dict[int, list[int]] = {}
    for e in np.nonzero(x > tol)[0]:
        out.setdefault(int(g.tail[e]), []).append(int(e))

    cycles: list[list[int]] = []
    for _ in range(g.m + len(x) + 1):
        support = np.nonzero(x > tol)[0]
        if len(support) == 0:
            break
        start_edge = int(support[np.argmax(x[support])])
        walk: list[int] = []
        pos: dict[int, int] = {}
        cur = int(g.tail[start_edge])
        pos[cur] = 0
        while True:
            cand = [e for e in out.get(cur, ()) if x[e] > tol]
            if not cand:
                # Conservation noise stranded this walk — drop its mass.
                for e in walk:
                    x[e] = 0.0
                walk = []
                break
            e = max(cand, key=lambda ee: x[ee])
            walk.append(e)
            cur = int(g.head[e])
            if cur in pos:
                cycle = walk[pos[cur] :]
                bottleneck = min(x[e2] for e2 in cycle)
                for e2 in cycle:
                    x[e2] -= bottleneck
                cycles.append(cycle)
                break
            pos[cur] = len(walk)
            if len(walk) > g.m + 1:
                raise SolverError("fractional peel did not terminate")
    else:
        raise SolverError("fractional peel exceeded iteration budget")
    return cycles


def candidates_from_circulation(
    aux: AuxGraph,
    residual: DiGraph,
    x: np.ndarray,
) -> list[CandidateCycle]:
    """Project a fractional H-circulation to exact residual cycle candidates.

    Every peeled H-cycle maps (wraps dropped) to a closed residual walk,
    which splits into simple residual cycles; totals are recomputed from
    the residual integer weights, so LP float noise cannot leak into
    classification.
    """
    h_cycles = peel_fractional_cycles(aux.graph, x)
    seen: set[tuple[int, ...]] = set()
    out: list[CandidateCycle] = []
    for h_cycle in h_cycles:
        walk = aux.to_residual_walk(h_cycle)
        if not walk:
            continue
        for cyc in split_closed_walk(residual, walk):
            key = tuple(sorted(cyc))
            if key in seen:
                continue
            seen.add(key)
            out.append(
                CandidateCycle(
                    edges=tuple(cyc),
                    cost=residual.cost_of(cyc),
                    delay=residual.delay_of(cyc),
                )
            )
    return out


def solve_lp6(aux: AuxGraph, delta_d: int) -> np.ndarray | None:
    """The paper's LP (6), literally: minimum-cost circulation in ``H``
    whose total delay is at most ``DeltaD``.

    ``DeltaD = D - sum d(P_i)`` is *negative* while the solution is
    delay-infeasible, so ``x = 0`` is infeasible and the budget row forces
    the circulation to buy at least ``|DeltaD|`` of delay reduction; the
    objective then finds the cheapest way to buy it. (The paper notes
    ``0 <= x <= 1`` "is not necessary"; we cap at :data:`MASS_CAP` for the
    same boundedness reason as :func:`solve_ratio_lp`.)

    Returns the fractional circulation or ``None`` when no circulation in
    ``H`` reaches the required delay reduction (then a larger ``B`` or a
    different anchor is needed — Algorithm 3's outer loops).
    """
    res = get_engine().solve_lp6(aux, delta_d)
    obs.inc("lp.lp6.solves")
    if res.status == 2:
        return None
    if not res.success:
        raise SolverError(f"LP (6) failed: status={res.status} {res.message}")
    return np.maximum(res.x, 0.0)
