"""Pluggable LP engine: a warm-started highspy backend for the flow LP,
with a bit-compatible scipy fallback.

Every LP in the pipeline — the phase-1 flow LP and the paper's LP (6) —
goes through one :class:`LPEngine` with two backends:

* **scipy** — the exact ``scipy.optimize.linprog`` calls the call sites
  made before the engine existed, assembled from the same arrays in the
  same order, so the fallback is *bit-compatible* with the pre-engine
  solver (the differential/chaos suites rely on this determinism).
* **highspy** — a persistent ``highspy.Highs`` model per flow-LP structure
  signature. Between successive solves the engine applies only the
  *value deltas* (objective costs, the delay row, the budget bound) and
  HiGHS re-solves from the previous optimal basis. LP (6) always solves
  cold: every paper-literal solve has its own anchored graph.

The min-ratio cycle search solves no LP; see
:func:`repro.core.auxlp.solve_ratio_lp`.

Backend selection is automatic: ``highspy`` when importable, else
``scipy`` (install with the ``perf`` extra: ``pip install repro[perf]``).
``REPRO_LP_BACKEND=scipy|highspy|auto`` forces it, and
:func:`force_backend` scopes a choice to a ``with`` block (used by the
backend-differential tests and the bench gate's backend-ratio kernels).

Determinism note: warm starts make HiGHS answers *history-dependent* —
a warm solve may return a different optimal vertex than a cold one.
Every consumer in this repo verifies answers independently (certificates,
differential oracles), so correctness never depends on which optimum
comes back; but the byte-replay gates (``tests/test_search_incremental``,
``scripts/chaos_gate.py``) pin ``REPRO_LP_BACKEND=scipy``, the
deterministic backend, and docs/PERFORMANCE.md documents the trade.

Counters (docs/OBSERVABILITY.md): ``lp.backend.scipy.solves`` /
``lp.backend.highspy.solves``, ``lp.warm_start.hit`` / ``.miss`` /
``.error``, ``lp.pivots``, and ``lp.pivots_unreported`` (solves whose
backend reported no iteration count — never silently counted as zero).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize
import scipy.sparse as sp

from repro import obs
from repro.errors import SolverError

#: Environment variable forcing the backend: ``scipy``, ``highspy``, ``auto``.
BACKEND_ENV = "REPRO_LP_BACKEND"

#: Cap on persistent warm-start models kept per engine (LRU-evicted).
MAX_MODELS = 24

_highspy_mod = None


def highspy_available() -> bool:
    """True when the optional ``highspy`` backend is importable."""
    global _highspy_mod
    if _highspy_mod is None:
        try:
            import highspy  # noqa: PLC0415 — optional perf extra

            _highspy_mod = highspy
        except ImportError:
            _highspy_mod = False
    return bool(_highspy_mod)


def default_backend_name() -> str:
    """Resolve the backend: ``REPRO_LP_BACKEND`` override, else autodetect."""
    choice = os.environ.get(BACKEND_ENV, "auto").strip().lower() or "auto"
    if choice == "auto":
        return "highspy" if highspy_available() else "scipy"
    if choice == "highspy" and not highspy_available():
        raise SolverError(
            "REPRO_LP_BACKEND=highspy but highspy is not installed "
            "(pip install repro[perf])"
        )
    if choice not in ("scipy", "highspy"):
        raise SolverError(
            f"REPRO_LP_BACKEND={choice!r} is not one of scipy|highspy|auto"
        )
    return choice


@dataclass
class LPResult:
    """Backend-neutral LP outcome, in scipy ``linprog`` status conventions.

    ``status``: 0 optimal, 1 iteration/time limit, 2 infeasible,
    3 unbounded, 4 numerical/other. ``nit`` is the simplex iteration
    count, or ``None`` when the backend did not report one (counted as
    ``lp.pivots_unreported``, never as zero pivots). ``ineq_marginals``
    are the inequality-row duals in linprog's sign convention
    (nonpositive for binding ``<=`` rows of a minimization).
    """

    status: int
    success: bool
    x: np.ndarray | None
    fun: float | None
    nit: int | None
    message: str = ""
    ineq_marginals: np.ndarray | None = None
    backend: str = "scipy"
    warm: bool = False


def count_pivots(res: LPResult) -> None:
    """Fold one solve's iteration count into the ``lp.*`` counters.

    A missing count increments ``lp.pivots_unreported`` instead of adding
    zero to ``lp.pivots`` — the old ``int(getattr(res, "nit", 0) or 0)``
    idiom silently undercounted whenever a backend dropped the field, and
    ``validate_trace`` now cross-checks the two counters against the
    solve totals.
    """
    if res.nit is None:
        obs.inc("lp.pivots_unreported")
    else:
        obs.add("lp.pivots", int(res.nit))


def _scipy_result(res) -> LPResult:
    nit = getattr(res, "nit", None)
    marginals = None
    ineqlin = getattr(res, "ineqlin", None)
    if (
        ineqlin is not None
        and ineqlin.marginals is not None
        and len(ineqlin.marginals)
    ):
        marginals = np.asarray(ineqlin.marginals, dtype=np.float64)
    return LPResult(
        status=int(res.status),
        success=bool(res.success),
        x=getattr(res, "x", None),
        fun=getattr(res, "fun", None),
        nit=None if nit is None else int(nit),
        message=str(getattr(res, "message", "")),
        ineq_marginals=marginals,
        backend="scipy",
        warm=False,
    )


# ---------------------------------------------------------------------------
# problem assembly
# ---------------------------------------------------------------------------


def _graph_digest(tail: np.ndarray, head: np.ndarray) -> str:
    """Structure signature of an incidence pattern (tails + heads)."""
    h = hashlib.sha1()
    h.update(np.ascontiguousarray(tail, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(head, dtype=np.int64).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# highspy backend
# ---------------------------------------------------------------------------


def _highs_status(hs, model_status) -> tuple[int, bool]:
    """Map a HighsModelStatus onto linprog's (status, success) pair."""
    S = hs.HighsModelStatus
    if model_status == S.kOptimal:
        return 0, True
    if model_status == S.kInfeasible:
        return 2, False
    if model_status in (S.kTimeLimit, S.kIterationLimit):
        return 1, False
    if model_status == S.kUnbounded:
        return 3, False
    return 4, False


def _new_highs(hs):
    h = hs.Highs()
    h.setOptionValue("output_flag", False)
    return h


def _run_highs(h, hs, options: dict | None) -> tuple:
    """Apply per-solve options, run, and read back (status, success, x,
    fun, nit, duals)."""
    time_limit = float((options or {}).get("time_limit", np.inf))
    h.setOptionValue("time_limit", time_limit if np.isfinite(time_limit) else 1e30)
    h.run()
    status, success = _highs_status(hs, h.getModelStatus())
    info = h.getInfo()
    nit = getattr(info, "simplex_iteration_count", None)
    if nit is not None and nit < 0:
        nit = None
    x = fun = duals = None
    if success:
        sol = h.getSolution()
        x = np.asarray(sol.col_value, dtype=np.float64)
        fun = float(info.objective_function_value)
        duals = np.asarray(sol.row_dual, dtype=np.float64)
    return status, success, x, fun, nit, duals


def _pass_model(h, hs, c, A_csc: sp.csc_matrix, col_lb, col_ub, row_lb, row_ub):
    """Load a full model column-wise (one vectorized CSC handoff)."""
    lp = hs.HighsLp()
    n_rows, n_cols = A_csc.shape
    lp.num_col_ = int(n_cols)
    lp.num_row_ = int(n_rows)
    lp.col_cost_ = np.asarray(c, dtype=np.float64)
    lp.col_lower_ = np.asarray(col_lb, dtype=np.float64)
    lp.col_upper_ = np.asarray(col_ub, dtype=np.float64)
    lp.row_lower_ = np.asarray(row_lb, dtype=np.float64)
    lp.row_upper_ = np.asarray(row_ub, dtype=np.float64)
    lp.a_matrix_.format_ = hs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = A_csc.indptr.astype(np.int64)
    lp.a_matrix_.index_ = A_csc.indices.astype(np.int32)
    lp.a_matrix_.value_ = A_csc.data.astype(np.float64)
    h.passModel(lp)


class _FlowModel:
    """Persistent HiGHS model for one flow-LP structure signature.

    The incidence pattern (tails/heads) is part of the family key, so a
    warm hit only ever needs value deltas: objective costs, the delay
    row's coefficients, and the budget bound.
    """

    def __init__(self, hs) -> None:
        self._hs = hs
        self.h = _new_highs(hs)
        self.cost: np.ndarray | None = None
        self.delay: np.ndarray | None = None
        self.bound: float | None = None
        self.n = 0

    def build(self, g, s: int, t: int, k: int, delay_bound: int) -> None:
        from repro.lp.flow_lp import incidence_matrix  # late: import cycle

        A_eq = incidence_matrix(g)
        delay_row = sp.csr_matrix(g.delay.astype(np.float64)[None, :])
        A = sp.vstack([A_eq, delay_row], format="csc")
        b_eq = np.zeros(g.n)
        b_eq[s] += k
        b_eq[t] -= k
        row_lb = np.concatenate([b_eq, [-np.inf]])
        row_ub = np.concatenate([b_eq, [float(delay_bound)]])
        self.h = _new_highs(self._hs)
        self.h.setOptionValue("solver", "simplex")
        _pass_model(
            self.h,
            self._hs,
            g.cost.astype(np.float64),
            A,
            np.zeros(g.m),
            np.ones(g.m),
            row_lb,
            row_ub,
        )
        self.cost = g.cost.astype(np.float64)
        self.delay = g.delay.astype(np.float64)
        self.bound = float(delay_bound)
        self.n = g.n

    def apply_delta(self, g, delay_bound: int) -> None:
        h = self.h
        assert self.cost is not None and self.delay is not None
        new_cost = g.cost.astype(np.float64)
        for c_i in np.nonzero(new_cost != self.cost)[0].tolist():
            h.changeColCost(c_i, float(new_cost[c_i]))
        new_delay = g.delay.astype(np.float64)
        for c_i in np.nonzero(new_delay != self.delay)[0].tolist():
            h.changeCoeff(self.n, c_i, float(new_delay[c_i]))
        if float(delay_bound) != self.bound:
            h.changeRowBounds(self.n, -np.inf, float(delay_bound))
        self.cost = new_cost
        self.delay = new_delay
        self.bound = float(delay_bound)


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


@dataclass
class _ModelStore:
    """LRU of persistent warm-start models (insertion-ordered dict)."""

    cap: int = MAX_MODELS
    models: dict = field(default_factory=dict)

    def get(self, key):
        m = self.models.pop(key, None)
        if m is not None:
            self.models[key] = m
        return m

    def put(self, key, model) -> None:
        self.models.pop(key, None)
        self.models[key] = model
        while len(self.models) > self.cap:
            self.models.pop(next(iter(self.models)))


class LPEngine:
    """Warm-started LP solving for every LP family in the pipeline.

    One engine lives per process (see :func:`get_engine`); its model
    store is what lets warm flow-LP bases survive online ``resolve``
    sessions, which funnel through the same call sites. The engine is
    deliberately **unpicklable state-free**: pickling (spawn-context
    worker pools) keeps only the backend choice, so HiGHS handles never
    cross a process boundary (see ``tests/test_lp_engine.py``).
    """

    def __init__(self, backend: str | None = None) -> None:
        self._backend = backend or default_backend_name()
        self._store = _ModelStore()

    @property
    def backend_name(self) -> str:
        """The resolved backend: ``"scipy"`` or ``"highspy"``."""
        return self._backend

    def reset(self) -> None:
        """Drop every persistent model (tests)."""
        self._store = _ModelStore()

    # -- spawn safety -------------------------------------------------------

    def __getstate__(self):
        # HiGHS models must never cross a process boundary; a worker
        # warms its own engine. Only the backend choice survives.
        return {"backend": self._backend}

    def __setstate__(self, state):
        self.__init__(backend=state.get("backend"))

    # -- bookkeeping --------------------------------------------------------

    def _count_solve(self, res: LPResult) -> None:
        obs.inc(f"lp.backend.{res.backend}.solves")
        count_pivots(res)

    @staticmethod
    def _conservation(graph) -> sp.csr_matrix:
        from repro.lp.flow_lp import incidence_matrix  # late: import cycle

        return incidence_matrix(graph)

    # -- flow LP ------------------------------------------------------------

    def solve_flow(
        self, g, s: int, t: int, k: int, delay_bound: int, options: dict | None = None
    ) -> LPResult:
        """Delay-budgeted fractional k-flow LP (phase-1 relaxation).

        Warm families are keyed by the incidence structure digest plus
        ``(s, t, k)``, so online re-solves of a reweighted instance reuse
        the standing basis while any structural churn (edge add/remove)
        rotates the key and starts cold.
        """
        with obs.span("lp.flow_lp"):
            if self._backend == "highspy":
                res = self._solve_flow_highspy(g, s, t, k, delay_bound, options)
            else:
                A_eq = self._conservation(g)
                b_eq = np.zeros(g.n)
                b_eq[s] += k
                b_eq[t] -= k
                res = _scipy_result(
                    scipy.optimize.linprog(
                        c=g.cost.astype(np.float64),
                        A_ub=sp.csr_matrix(g.delay.astype(np.float64)[None, :]),
                        b_ub=np.array([float(delay_bound)]),
                        A_eq=A_eq,
                        b_eq=b_eq,
                        bounds=(0.0, 1.0),
                        method="highs-ds",
                        options=options or {},
                    )
                )
        self._count_solve(res)
        return res

    def _solve_flow_highspy(
        self, g, s, t, k, delay_bound, options: dict | None
    ) -> LPResult:
        hs = _highspy_mod
        key = ("flow", g.n, g.m, s, t, k, _graph_digest(g.tail, g.head))
        model = self._store.get(key)
        warm_used = False
        if model is not None:
            try:
                model.apply_delta(g, delay_bound)
                warm_used = True
            except Exception:  # noqa: BLE001 — degrade to a cold rebuild
                obs.inc("lp.warm_start.error")
                model = None
        if model is None:
            model = _FlowModel(hs)
            model.build(g, s, t, k, delay_bound)
            self._store.put(key, model)
        obs.inc("lp.warm_start.hit" if warm_used else "lp.warm_start.miss")
        status, success, x, fun, nit, duals = _run_highs(model.h, hs, options)
        marginals = None
        if duals is not None and len(duals) == g.n + 1:
            marginals = duals[-1:].copy()
        return LPResult(
            status=status,
            success=success,
            x=x,
            fun=fun,
            nit=nit,
            message=f"highspy model status {status}",
            ineq_marginals=marginals,
            backend="highspy",
            warm=warm_used,
        )

    # -- LP (6), paper-literal ----------------------------------------------

    def solve_lp6(self, aux, delta_d: int) -> LPResult:
        """The paper's LP (6) on one anchored aux graph (one-shot).

        The paper-literal finder builds a distinct ``(v, B, sign)`` graph
        per solve, so there is no delta to exploit — each solve uses a
        fresh model on either backend (still counted per backend).
        """
        from repro.core.auxlp import MASS_CAP  # late: avoid an import cycle

        h = aux.graph
        with obs.span("lp.lp6"):
            if self._backend == "highspy":
                hs = _highspy_mod
                A = sp.vstack(
                    [
                        self._conservation(h),
                        sp.csr_matrix(h.delay.astype(np.float64)[None, :]),
                    ],
                    format="csc",
                )
                row_lb = np.concatenate([np.zeros(h.n), [-np.inf]])
                row_ub = np.concatenate([np.zeros(h.n), [float(delta_d)]])
                model = _new_highs(hs)
                _pass_model(
                    model,
                    hs,
                    h.cost.astype(np.float64),
                    A,
                    np.zeros(h.m),
                    np.full(h.m, MASS_CAP),
                    row_lb,
                    row_ub,
                )
                # Always cold (see docstring) — but still one warm-account
                # entry per highspy solve, so the validate_trace balance
                # hit + miss == backend.highspy.solves stays exact.
                obs.inc("lp.warm_start.miss")
                status, success, x, fun, nit, _ = _run_highs(model, hs, None)
                res = LPResult(
                    status=status,
                    success=success,
                    x=x,
                    fun=fun,
                    nit=nit,
                    message=f"highspy model status {status}",
                    backend="highspy",
                )
            else:
                res = _scipy_result(
                    scipy.optimize.linprog(
                        c=h.cost.astype(np.float64),
                        A_ub=sp.csr_matrix(h.delay.astype(np.float64)[None, :]),
                        b_ub=np.array([float(delta_d)]),
                        A_eq=self._conservation(h),
                        b_eq=np.zeros(h.n),
                        bounds=(0.0, MASS_CAP),
                        method="highs",
                    )
                )
        self._count_solve(res)
        return res


# ---------------------------------------------------------------------------
# the process-global engine
# ---------------------------------------------------------------------------

_engine: LPEngine | None = None


def get_engine() -> LPEngine:
    """The process-global engine (created lazily; spawn workers get their
    own on first LP solve)."""
    global _engine
    if _engine is None:
        _engine = LPEngine()
    return _engine


def reset_engine() -> None:
    """Discard the global engine (tests and backend switches)."""
    global _engine
    _engine = None


class force_backend:
    """Scope a backend choice: ``with force_backend("scipy"): ...``.

    Swaps in a fresh engine of the requested backend and restores the
    previous engine (with its warm models intact) on exit. Used by the
    backend-differential tests and the bench gate's backend-ratio
    kernels.
    """

    def __init__(self, name: str) -> None:
        self._name = name
        self._saved: LPEngine | None = None

    def __enter__(self) -> LPEngine:
        global _engine
        self._saved = _engine
        _engine = LPEngine(backend=self._name)
        return _engine

    def __exit__(self, *exc) -> None:
        global _engine
        _engine = self._saved
