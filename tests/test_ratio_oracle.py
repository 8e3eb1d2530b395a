"""The exact min-ratio cycle oracle (:func:`repro.core.auxlp.solve_ratio_lp`).

The oracle replaces the normalized min-ratio circulation LP, so the LP
stays here, on the test side only, as the reference: on every generated
shifted auxiliary graph the oracle's cycle ratio must equal the LP
optimum, for both cost signs. Also covered: zero-time negative-delay
cycles (where the uncapped LP is unbounded), graphs with no circulation of
the chosen sign, the exact certificate, the ambient budget, and delays far
beyond what a float LP can solve.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp
from hypothesis import event, given, settings, strategies as st

from repro import obs
from repro.core import auxlp
from repro.core.auxgraph import build_aux_shifted
from repro.core.auxlp import solve_ratio_lp
from repro.core.krsp import solve_krsp
from repro.core.residual import build_residual
from repro.core.verify import verify_solution
from repro.errors import BudgetExhaustedError, SolverError
from repro.eval.workloads import er_anticorrelated
from repro.graph import anticorrelated_weights, from_edges, gnp_digraph
from repro.graph.digraph import DiGraph
from repro.lp.flow_lp import incidence_matrix
from repro.perf.auxcache import AuxCache
from repro.robustness.budget import SolveBudget, metered


def reference_ratio_lp(aux, cost_sign: int):
    """The normalized min-ratio circulation LP, uncapped, via linprog.

    Status 0: optimum ``fun``; 2: no circulation of the chosen sign;
    3: unbounded (a zero-time negative-delay cycle exists).
    """
    h = aux.graph
    wraps = aux.wrap_cost
    idx = np.nonzero(wraps * cost_sign > 0)[0]
    norm_row = sp.csr_matrix(
        (np.abs(wraps[idx]).astype(np.float64), (np.zeros(len(idx), dtype=np.int64), idx)),
        shape=(1, h.m),
    )
    ub = np.full(h.m, np.inf)
    ub[wraps * cost_sign < 0] = 0.0
    return scipy.optimize.linprog(
        c=h.delay.astype(np.float64),
        A_eq=sp.vstack([incidence_matrix(h), norm_row], format="csr"),
        b_eq=np.concatenate([np.zeros(h.n), [1.0]]),
        bounds=np.stack([np.zeros(h.m), ub], axis=1),
        method="highs",
    )


def reference_zero_time_negative(aux) -> bool:
    """Whether the wrap-free subgraph has a negative-delay cycle (LP form)."""
    h = aux.graph
    ub = np.where(aux.wrap_cost == 0, 1.0, 0.0)
    res = scipy.optimize.linprog(
        c=h.delay.astype(np.float64),
        A_eq=incidence_matrix(h),
        b_eq=np.zeros(h.n),
        bounds=np.stack([np.zeros(h.m), ub], axis=1),
        method="highs",
    )
    assert res.status == 0
    return res.fun < -1e-9


def cycle_totals(aux, x):
    """(delay, time) of the H-cycle the oracle returned, after checking it
    is a 0/1 circulation."""
    h = aux.graph
    assert set(np.unique(x)) <= {0.0, 1.0}
    assert np.abs(incidence_matrix(h) @ x).max() == 0
    e = np.nonzero(x)[0]
    assert len(e)
    return int(h.delay[e].sum()), int(np.abs(aux.wrap_cost[e]).sum())


def check_against_reference(aux, sign: int) -> str:
    x = solve_ratio_lp(aux, sign)
    ref = reference_ratio_lp(aux, sign)
    zero_time = reference_zero_time_negative(aux)
    if zero_time:
        assert x is not None
        d, t = cycle_totals(aux, x)
        assert t == 0 and d < 0
        assert ref.status in (2, 3)
        return "zero-time"
    if ref.status == 2:
        assert x is None
        return "no circulation"
    assert ref.status == 0, ref.message
    d, t = cycle_totals(aux, x)
    assert t > 0
    assert d / t == pytest.approx(ref.fun, rel=1e-9, abs=1e-9)
    return "optimum"


@st.composite
def signed_graphs(draw):
    """Small digraphs with signed integer costs and delays, like residuals
    (zero-cost cycles and negative delays included)."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(2, 14))
    tail = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    head = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    pairs = [(u, v) for u, v in zip(tail, head) if u != v]
    if not pairs:
        pairs = [(0, 1)]
    cost = draw(st.lists(st.integers(-3, 3), min_size=len(pairs), max_size=len(pairs)))
    delay = draw(st.lists(st.integers(-6, 6), min_size=len(pairs), max_size=len(pairs)))
    g = DiGraph(
        n,
        np.array([u for u, _ in pairs], dtype=np.int64),
        np.array([v for _, v in pairs], dtype=np.int64),
        np.array(cost, dtype=np.int64),
        np.array(delay, dtype=np.int64),
    )
    return g, draw(st.integers(1, 4))


class TestAgainstReferenceLp:
    @settings(max_examples=200, deadline=None)
    @given(gb=signed_graphs(), sign=st.sampled_from([+1, -1]))
    def test_optimum_equals_reference_lp(self, gb, sign):
        g, B = gb
        event(check_against_reference(build_aux_shifted(g, B), sign))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(6, 10),
        sign=st.sampled_from([+1, -1]),
        B=st.integers(1, 10),
    )
    def test_optimum_equals_reference_lp_on_residuals(self, seed, n, sign, B):
        g = anticorrelated_weights(gnp_digraph(n, 0.45, rng=seed), rng=seed + 1)
        res = build_residual(g, [int(e) for e in range(0, g.m, 3)])
        event(check_against_reference(build_aux_shifted(res.graph, B), sign))

    def test_zero_time_cycle_is_returned(self):
        # a->b twice: the fast copy held, the slow one free. The residual
        # cycle (free a->b, reversed held a->b) has cost 0 and delay -1.
        g, _ = from_edges([("a", "b", 1, 1), ("a", "b", 1, 0)])
        res = build_residual(g, [0])
        aux = build_aux_shifted(res.graph, 2)
        for sign in (+1, -1):
            assert check_against_reference(aux, sign) == "zero-time"

    def test_no_circulation_returns_none(self):
        g, _ = from_edges([("s", "a", 1, 1), ("a", "t", 1, 1), ("s", "t", 1, 5)])
        res = build_residual(g, [2])
        aux = build_aux_shifted(res.graph, 3)
        # Every residual cycle has positive cost: none of the negative sign.
        assert check_against_reference(aux, -1) == "no circulation"
        assert check_against_reference(aux, +1) == "optimum"

    def test_cache_served_aux_gives_identical_answers(self):
        g = anticorrelated_weights(gnp_digraph(9, 0.45, rng=2), rng=3)
        res = build_residual(g, [int(e) for e in range(0, g.m, 3)])
        cache = AuxCache(res)
        for _ in range(3):
            fresh = build_aux_shifted(res.graph, 3)
            for sign in (+1, -1):
                a = solve_ratio_lp(cache.get(3), sign)
                b = solve_ratio_lp(fresh, sign)
                assert (a is None) == (b is None)
                if a is not None:
                    assert np.array_equal(a, b)
            cache.note_flips(res.apply_flip([0, 1]))


class TestCertificate:
    def _aux(self):
        g, _ = from_edges(
            [
                ("s", "a", 1, 6),
                ("a", "t", 1, 6),
                ("s", "b", 2, 1),
                ("b", "t", 2, 1),
            ]
        )
        return build_aux_shifted(build_residual(g, [0, 1]).graph, 4)

    def test_corrupted_cycle_fails_certificate(self, monkeypatch):
        real = auxlp._pred_cycles

        def drop_an_edge(*args):
            return [cyc[:-1] for cyc in real(*args)]

        monkeypatch.setattr(auxlp, "_pred_cycles", drop_an_edge)
        with pytest.raises(SolverError, match="do not close"):
            solve_ratio_lp(self._aux(), +1)

    def test_counters(self):
        with obs.session() as tel:
            assert solve_ratio_lp(self._aux(), +1) is not None
        c = tel.counters
        assert c["ratio_oracle.solves"] == 1
        assert c["ratio_oracle.steps"] >= 2  # at least one step plus the proof
        assert c["bellman_ford.rounds"] >= c["ratio_oracle.steps"]
        assert "lp.pivots" not in c

    def test_spent_budget_raises_deadline(self):
        meter = SolveBudget(deadline_seconds=1e-9).start()
        with metered(meter), pytest.raises(BudgetExhaustedError) as info:
            solve_ratio_lp(self._aux(), +1)
        assert info.value.reason == "deadline"
        assert info.value.where == "auxlp.ratio_lp"


class TestMagnitudeEnvelope:
    @pytest.mark.parametrize("scale", [10**8, 10**9, 10**12])
    def test_scaled_delays_verify_with_the_same_ratio(self, scale):
        # The pinned E5 instance; at 10**9 and up a float LP gave up here.
        inst = next(iter(er_anticorrelated(n=10, n_instances=1, seed=6500, k=2)))
        g0 = inst.graph
        g = DiGraph(g0.n, g0.tail, g0.head, g0.cost, g0.delay * scale)
        bound = inst.delay_bound * scale
        with obs.session() as tel:
            sol = solve_krsp(g, inst.s, inst.t, inst.k, bound, phase1="minsum")
        report = verify_solution(
            g, inst.s, inst.t, inst.k, bound, [list(p) for p in sol.paths]
        )
        assert report.valid and report.clean
        assert report.approximation_ratio_upper_bound == pytest.approx(1.2323, abs=1e-4)
        if scale == 10**12:
            assert tel.counters.get("ratio_oracle.wide_steps", 0) > 0

    def test_wide_weights_match_int64_weights(self, monkeypatch):
        g, _ = from_edges(
            [("s", "a", 1, 6), ("a", "t", 1, 6), ("s", "b", 2, 1), ("b", "t", 2, 1)]
        )
        aux = build_aux_shifted(build_residual(g, [0, 1]).graph, 4)
        narrow = [solve_ratio_lp(aux, s) for s in (+1, -1)]
        assert narrow[0] is not None
        monkeypatch.setattr(auxlp, "INT64_SAFE", 1)  # force Python ints
        with obs.session() as tel:
            wide = [solve_ratio_lp(aux, s) for s in (+1, -1)]
        assert tel.counters.get("ratio_oracle.wide_steps", 0) > 0
        for a, b in zip(narrow, wide):
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(a, b)
