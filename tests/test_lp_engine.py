"""LP engine contract tests (:mod:`repro.lp.engine`).

The engine serves the flow LP and LP (6); the min-ratio cycle search
solves no LP (its reference LP lives in ``tests/test_ratio_oracle.py``).
Three layers of guarantees:

1. **scipy bit-compatibility** — the engine's scipy path must return the
   exact arrays the pre-engine inline ``linprog`` calls returned (same
   assembly, same method, same options), so the fallback is byte-equal to
   the historical solver on every instance.
2. **Accounting** — pivot counts are never silently dropped
   (``lp.pivots_unreported`` instead of a fake 0), per-backend solve
   counters fire, and the :func:`repro.obs.report.validate_trace`
   cross-checks accept real traces and reject cooked ones.
3. **Backend parity & process safety** — with highspy installed, both
   backends' answers verify against the same certificates (hypothesis
   property), and engine state never leaks across pickling boundaries
   (spawn-context worker pools).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core import solve_krsp
from repro.core.auxgraph import build_aux_shifted
from repro.core.auxlp import MASS_CAP, solve_lp6
from repro.core.residual import build_residual
from repro.core.verify import verify_solution
from repro.graph import anticorrelated_weights, gnp_digraph
from repro.lp import engine as eng
from repro.lp.engine import (
    LPResult,
    count_pivots,
    force_backend,
    get_engine,
    highspy_available,
    reset_engine,
)
from repro.lp.flow_lp import incidence_matrix, solve_flow_lp


@pytest.fixture(autouse=True)
def _fresh_engine():
    reset_engine()
    yield
    reset_engine()


def _residual(seed: int, n: int = 9, p: float = 0.45):
    g = anticorrelated_weights(gnp_digraph(n, p, rng=seed), rng=seed + 1)
    flow_edges = [int(e) for e in range(0, g.m, 3)]
    return build_residual(g, flow_edges)


class TestScipyBitCompat:
    """The scipy path must be byte-equal to the pre-engine inline calls."""

    def test_flow_lp_bit_identical_to_legacy_assembly(self):
        for seed in range(10):
            g = anticorrelated_weights(gnp_digraph(9, 0.4, rng=seed), rng=seed + 1)
            A_eq = incidence_matrix(g)
            b_eq = np.zeros(g.n)
            b_eq[0] += 2
            b_eq[8] -= 2
            legacy = scipy.optimize.linprog(
                c=g.cost.astype(np.float64),
                A_ub=sp.csr_matrix(g.delay.astype(np.float64)[None, :]),
                b_ub=np.array([30.0]),
                A_eq=A_eq,
                b_eq=b_eq,
                bounds=(0.0, 1.0),
                method="highs-ds",
                options={},
            )
            with force_backend("scipy"):
                lp = solve_flow_lp(g, 0, 8, 2, 30)
            if legacy.status == 2:
                assert lp is None
                continue
            assert lp is not None
            assert np.array_equal(lp.x, np.clip(legacy.x, 0.0, 1.0))
            assert lp.cost == float(legacy.fun)
            assert lp.dual_delay == float(-legacy.ineqlin.marginals[0])

    def test_lp6_bit_identical_to_legacy_assembly(self):
        res = _residual(4)
        aux = build_aux_shifted(res.graph, 2)
        h = aux.graph
        legacy = scipy.optimize.linprog(
            c=h.cost.astype(np.float64),
            A_ub=sp.csr_matrix(h.delay.astype(np.float64)[None, :]),
            b_ub=np.array([-1.0]),
            A_eq=incidence_matrix(h),
            b_eq=np.zeros(h.n),
            bounds=(0.0, MASS_CAP),
            method="highs",
        )
        with force_backend("scipy"):
            x = solve_lp6(aux, -1)
        if legacy.status == 2:
            assert x is None
        else:
            assert np.array_equal(x, np.maximum(legacy.x, 0.0))


class TestAccounting:
    def test_pivots_counted_when_reported(self):
        with obs.session():
            count_pivots(LPResult(status=0, success=True, x=None, fun=None, nit=7))
            count_pivots(LPResult(status=0, success=True, x=None, fun=None, nit=0))
            snap = obs.snapshot()
        # A genuine zero-pivot solve (presolve-solved) is *reported* zero,
        # not "unreported".
        assert snap.get("lp.pivots", 0) == 7
        assert "lp.pivots_unreported" not in snap

    def test_missing_nit_counts_unreported_not_zero(self):
        with obs.session():
            count_pivots(
                LPResult(status=0, success=True, x=None, fun=None, nit=None)
            )
            snap = obs.snapshot()
        assert snap.get("lp.pivots_unreported") == 1
        assert "lp.pivots" not in snap

    def test_backend_counter_fires_per_solve(self):
        g = anticorrelated_weights(gnp_digraph(8, 0.45, rng=3), rng=4)
        with obs.session(), force_backend("scipy"):
            solve_flow_lp(g, 0, 7, 2, 40)
            snap = obs.snapshot()
        assert snap.get("lp.backend.scipy.solves") == 1
        assert snap.get("lp.flow_lp.solves") == 1
        # Warm accounting is a highspy-only concept.
        assert "lp.warm_start.hit" not in snap
        assert "lp.warm_start.miss" not in snap

    def test_validate_trace_accepts_real_solver_run(self, tmp_path):
        from repro.obs.report import validate_file

        g = anticorrelated_weights(gnp_digraph(10, 0.4, rng=6), rng=7)
        trace = tmp_path / "trace.jsonl"
        with obs.session(trace_path=trace):
            solve_krsp(g, 0, 9, 2, 40)
        assert validate_file(trace) == []

    def test_validate_trace_rejects_cooked_lp_counters(self, tmp_path):
        import json

        from repro.obs.report import load_trace, validate_trace

        g = anticorrelated_weights(gnp_digraph(10, 0.4, rng=6), rng=7)
        trace = tmp_path / "trace.jsonl"
        with obs.session(trace_path=trace):
            solve_krsp(g, 0, 9, 2, 40)
        cooked = []
        for line in trace.read_text().splitlines():
            rec = json.loads(line)
            if rec.get("type") == "counters":
                rec["values"].pop("lp.pivots", None)
                rec["values"]["lp.pivots_unreported"] = 10_000
            cooked.append(json.dumps(rec))
        trace.write_text("\n".join(cooked) + "\n")
        problems = validate_trace(load_trace(trace))
        assert any("lp.pivots_unreported" in p for p in problems)

    def test_validate_trace_rejects_unbalanced_warm_accounting(self, tmp_path):
        import json

        from repro.obs.report import load_trace, validate_trace

        g = anticorrelated_weights(gnp_digraph(10, 0.4, rng=6), rng=7)
        trace = tmp_path / "trace.jsonl"
        with obs.session(trace_path=trace):
            solve_krsp(g, 0, 9, 2, 40)
        cooked = []
        for line in trace.read_text().splitlines():
            rec = json.loads(line)
            if rec.get("type") == "counters":
                # Warm hits with no matching highspy solve count.
                rec["values"]["lp.warm_start.hit"] = 5
            cooked.append(json.dumps(rec))
        trace.write_text("\n".join(cooked) + "\n")
        problems = validate_trace(load_trace(trace))
        assert any("lp.warm_start" in p for p in problems)


class TestBackendSelection:
    def test_env_override_scipy(self, monkeypatch):
        monkeypatch.setenv(eng.BACKEND_ENV, "scipy")
        reset_engine()
        assert get_engine().backend_name == "scipy"

    def test_env_override_bogus_rejected(self, monkeypatch):
        from repro.errors import SolverError

        monkeypatch.setenv(eng.BACKEND_ENV, "turbopascal")
        reset_engine()
        with pytest.raises(SolverError):
            get_engine()

    def test_env_highspy_without_install_rejected(self, monkeypatch):
        if highspy_available():
            pytest.skip("highspy installed — forced selection succeeds")
        from repro.errors import SolverError

        monkeypatch.setenv(eng.BACKEND_ENV, "highspy")
        reset_engine()
        with pytest.raises(SolverError):
            get_engine()

    def test_auto_resolves_to_available_backend(self, monkeypatch):
        monkeypatch.delenv(eng.BACKEND_ENV, raising=False)
        reset_engine()
        expected = "highspy" if highspy_available() else "scipy"
        assert get_engine().backend_name == expected

    def test_force_backend_restores_previous_engine(self):
        outer = get_engine()
        with force_backend("scipy") as inner:
            assert get_engine() is inner
            assert inner is not outer
        assert get_engine() is outer


class TestProcessSafety:
    def test_engine_pickle_drops_models(self):
        engine = get_engine()
        g = anticorrelated_weights(gnp_digraph(8, 0.45, rng=3), rng=4)
        engine.solve_flow(g, 0, 7, 2, 40)
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.backend_name == engine.backend_name
        assert not clone._store.models  # no HiGHS handle crosses a pickle

    def test_incremental_search_exposes_global_engine(self):
        from repro.perf import IncrementalSearch

        g = anticorrelated_weights(gnp_digraph(8, 0.45, rng=3), rng=4)
        search = IncrementalSearch(g)
        assert search.lp_engine is get_engine()
        # Not stored on the instance — nothing unpicklable to leak.
        assert "lp_engine" not in vars(search)


class TestOnlineResolveLiveness:
    def test_resolve_runs_through_engine(self):
        # The cold-fallback taxonomy itself is frozen by the pinned corpus
        # replay in tests/test_online_resolve.py; this asserts the engine
        # is actually the path those resolves take (per-backend counters
        # fire inside a resolve session).
        from repro.online import EdgeReweight, InstanceDelta, resolve, start_online

        g = anticorrelated_weights(gnp_digraph(10, 0.4, rng=6), rng=7)
        state = start_online(g, 0, 9, 2, 40)
        with obs.session():
            resolve(state, InstanceDelta(ops=(EdgeReweight(0, cost=2, delay=3),)))
            snap = obs.snapshot()
        backend = get_engine().backend_name
        assert snap.get(f"lp.backend.{backend}.solves", 0) >= 1


# ---------------------------------------------------------------------------
# highspy-only: backend parity
# ---------------------------------------------------------------------------

needs_highspy = pytest.mark.skipif(
    not highspy_available(), reason="highspy not installed (perf extra)"
)


@needs_highspy
class TestBackendParity:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_full_solver_certificates_verify_on_both_backends(self, seed):
        g = anticorrelated_weights(
            gnp_digraph(9, 0.4, rng=seed), rng=seed + 1
        )
        for backend in ("scipy", "highspy"):
            with force_backend(backend):
                try:
                    sol = solve_krsp(g, 0, 8, 2, 40)
                except Exception:
                    continue  # infeasible instances raise uniformly
                report = verify_solution(
                    g, 0, 8, 2, 40, [list(p) for p in sol.paths],
                    check_bounds=False,
                )
                assert report.valid, f"{backend}: {report.issues}"
