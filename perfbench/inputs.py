"""Seeded inputs for the four benchmark workloads.

Solve times in this solver are heavy-tailed: one instance in ten can take
30x the median, and a churn step can fall into ratio-LP sweeps that run
for seconds. A pool drawn afresh from each run seed would let the seed,
not the program, decide the result. So every workload uses a fixed
population built from the constant ``POPULATION_SEED``, and the run seed
draws an isomorphic relabelling of every instance's vertices (and of the
churn deltas that name vertices); the request order is fixed. Runs with
different seeds therefore send different inputs of the same difficulty.

Everything here is a pure function of its arguments.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass

import numpy as np

from repro.eval.workloads import (
    er_anticorrelated,
    grid_anticorrelated,
    layered_anticorrelated,
    ring_anticorrelated,
    waxman_euclidean,
)
from repro.graph.digraph import DiGraph
from repro.graph.io import instance_to_dict
from repro.online.deltas import (
    DemandMove,
    EdgeAddition,
    InstanceDelta,
    delta_to_dict,
)
from repro.oracle.churn import generate_churn_trace
from repro.oracle.instances import OracleInstance

#: Seed of the fixed populations behind ``tight_mix`` and ``churn_online``.
#: Fixed once, before any measurement; never tuned.
POPULATION_SEED = 2015


@dataclass(frozen=True)
class Instance:
    """One kRSP query: graph, terminals, k and the delay budget D."""

    name: str
    graph: DiGraph
    s: int
    t: int
    k: int
    delay_bound: int

    def as_dict(self) -> dict:
        return instance_to_dict(self.graph, self.s, self.t, self.k, self.delay_bound)


@dataclass(frozen=True)
class ChurnSession:
    """A base instance plus the ordered deltas one online session replays."""

    base: Instance
    deltas: tuple[InstanceDelta, ...]


def _relabel(inst: Instance, perm: np.ndarray) -> Instance:
    """The same instance with vertex ``v`` renamed ``perm[v]``.

    Edge ids keep their order, so churn deltas that address edge ids stay
    valid after relabelling.
    """
    g = inst.graph
    h = DiGraph(g.n, perm[g.tail], perm[g.head], g.cost.copy(), g.delay.copy())
    return Instance(
        inst.name, h, int(perm[inst.s]), int(perm[inst.t]), inst.k, inst.delay_bound
    )


def _relabel_delta(delta: InstanceDelta, perm: np.ndarray) -> InstanceDelta:
    ops = []
    for op in delta.ops:
        if isinstance(op, EdgeAddition):
            op = EdgeAddition(int(perm[op.tail]), int(perm[op.head]), op.cost, op.delay)
        elif isinstance(op, DemandMove):
            op = DemandMove(
                None if op.s is None else int(perm[op.s]),
                None if op.t is None else int(perm[op.t]),
                op.k,
                op.delay_bound,
            )
        ops.append(op)
    return InstanceDelta(ops=tuple(ops), label=delta.label)


def _collect(stream, count: int) -> list[Instance]:
    out = [
        Instance(w.name, w.graph, w.s, w.t, w.k, w.delay_bound)
        for w in itertools.islice(stream, count)
    ]
    if len(out) < count:
        raise RuntimeError(f"generator gave {len(out)} instances, wanted {count}")
    return out


def _relabelled(population: list[Instance], seed: int) -> list[Instance]:
    """Every instance relabelled by ``seed``; the order stays fixed, so a
    window that ends mid-pass covers the same instances on every seed."""
    rng = np.random.default_rng([seed, 1])
    return [_relabel(inst, rng.permutation(inst.graph.n)) for inst in population]


def _churn_sessions(
    bases: list[Instance], seed: int, steps: int
) -> list[ChurnSession]:
    """A fixed churn trace per base, relabelled with the base by ``seed``."""
    rng = np.random.default_rng([seed, 2])
    out = []
    for i, inst in enumerate(bases):
        trace = generate_churn_trace(
            OracleInstance(inst.graph, inst.s, inst.t, inst.k, inst.delay_bound, label=inst.name),
            steps,
            rng=POPULATION_SEED + i,
        )
        perm = rng.permutation(inst.graph.n)
        out.append(
            ChurnSession(
                _relabel(inst, perm),
                tuple(_relabel_delta(d, perm) for d in trace.deltas),
            )
        )
    return out


# Each generator over-draws: instances without an interesting delay band
# are skipped by the generator, so it is asked for more than it must give.

def tight_mix(seed: int, per_family: int = 12) -> list[Instance]:
    """Anti-correlated grid, ER, ring and layered instances at tightness 0.8,
    the families interleaved."""
    base = POPULATION_SEED
    over = 3 * per_family
    families = (
        _collect(grid_anticorrelated(3, 5, tightness=0.8, n_instances=over, seed=base), per_family),
        _collect(er_anticorrelated(n=12, p=0.35, tightness=0.8, n_instances=over, seed=base + 1), per_family),
        _collect(ring_anticorrelated(4, 3, tightness=0.8, n_instances=over, seed=base + 2), per_family),
        _collect(layered_anticorrelated(4, 3, tightness=0.8, n_instances=over, seed=base + 3), per_family),
    )
    return _relabelled([inst for group in zip(*families) for inst in group], seed)


def _routers(count: int, population_seed: int) -> list[Instance]:
    """Waxman router graphs (n=60, m~1.4k) at tightness 0.15."""
    return _collect(
        waxman_euclidean(n=60, tightness=0.15, n_instances=2 * count, seed=population_seed),
        count,
    )


def loose_router(seed: int, count: int = 48) -> list[Instance]:
    """Router instances where phase 1 already meets D: no ratio LP runs."""
    return _relabelled(_routers(count, POPULATION_SEED), seed)


def churn_online(seed: int, sessions: int = 3, steps: int = 100) -> list[ChurnSession]:
    """Anti-correlated ER bases (n=20) at tightness 0.8, each with a churn trace."""
    bases = _collect(
        er_anticorrelated(n=20, p=0.3, tightness=0.8, n_instances=3 * sessions, seed=POPULATION_SEED),
        sessions,
    )
    return _churn_sessions(bases, seed, steps)


def service_mix(
    seed: int, sessions: int, steps: int, unique: int = 16
) -> tuple[Instance, list[Instance], list[ChurnSession]]:
    """The ``loose_router`` population, served: the dup instance, the
    unique pool, and the online sessions with their churn traces."""
    population = _routers(1 + sessions + unique, POPULATION_SEED)
    rng = np.random.default_rng([seed, 3])
    dup = _relabel(population[0], rng.permutation(population[0].graph.n))
    pool = _relabelled(population[1 + sessions:], seed)
    return dup, pool, _churn_sessions(population[1:1 + sessions], seed, steps)


def digest(obj) -> str:
    """SHA-256 of an instance, a churn session or a list of them."""
    def plain(x):
        if isinstance(x, Instance):
            return x.as_dict()
        if isinstance(x, ChurnSession):
            return {"base": x.base.as_dict(), "deltas": [delta_to_dict(d) for d in x.deltas]}
        return [plain(y) for y in x]

    blob = json.dumps(plain(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
