"""Per-layer tracing from outside the program.

:class:`LayerTracer` replaces the public functions of each layer at the
module attributes its callers read, times every call into a span stack,
and takes a layer's *self time* as its span duration minus the time its
child spans cover. While a :func:`repro.obs.session` is open it also reads
the program's own counters before and after each call, so counts such as
LP pivots are split by the layer that spent them.

Nothing is patched until :meth:`LayerTracer.install`; :meth:`uninstall`
puts every original attribute back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

from repro.perf.engine import IncrementalSearch

#: layer -> ((module or class, attribute), ...): the bindings callers use.
LAYER_SITES: dict[str, tuple[tuple[object, str], ...]] = {
    "flow.maxflow": (("repro.core.krsp", "has_k_disjoint_paths"),),
    "flow.mincost": (
        ("repro.core.krsp", "min_cost_k_flow"),
        ("repro.core.phase1", "min_cost_k_flow"),
    ),
    "flow.decompose": tuple(
        (mod, fn)
        for mod in ("repro.core.krsp", "repro.core.phase1", "repro.core.cancellation")
        for fn in ("decompose_flow", "strip_improving_cycles")
    ),
    "lp.flow_lp": (
        ("repro.core.krsp", "solve_flow_lp"),
        ("repro.core.phase1", "solve_flow_lp"),
        ("repro.online.engine", "solve_flow_lp"),
        # verify_solution imports it lazily from its home module.
        ("repro.lp.flow_lp", "solve_flow_lp"),
    ),
    "core.phase1": (("repro.core.phase1:PROVIDERS", "lp_rounding"),),
    "core.cancellation": (
        ("repro.core.krsp", "cancel_to_feasibility"),
        ("repro.online.engine", "cancel_to_feasibility"),
    ),
    "core.search": (("repro.core.cancellation", "find_bicameral_cycle"),),
    "core.auxlp.ratio_lp": (("repro.core.search", "solve_ratio_lp"),),
    "core.auxlp.peel": (("repro.core.search", "candidates_from_circulation"),),
    "paths.bellman_ford": (("repro.core.search", "find_negative_cycle"),),
    "perf.aux_provider": ((IncrementalSearch, "aux_provider"),),
    "perf.writes": tuple(
        (IncrementalSearch, fn) for fn in ("apply_reweight", "remove_edges", "add_edges")
    ),
    "core.verify": (("repro.core.verify", "verify_solution"),),
    "online.resolve": (("repro.online.engine", "resolve"),),
}

LAYERS = tuple(LAYER_SITES)

#: Program counters split by the layer whose calls spent them:
#: (layer, program counter, metric name).
SPLIT_COUNTERS = (
    ("core.auxlp.ratio_lp", "lp.pivots", "core.auxlp.ratio_lp.pivots"),
    ("lp.flow_lp", "lp.pivots", "lp.flow_lp.pivots"),
    ("paths.bellman_ford", "bellman_ford.rounds", "paths.bellman_ford.rounds"),
    ("core.search", "search.aux_edges", "core.search.aux_edges"),
)


def _resolve_target(target: object) -> object:
    """A module, a class, or ``"module:DICT"`` for an entry of a dict."""
    if not isinstance(target, str):
        return target
    mod_name, _, dict_name = target.partition(":")
    mod = importlib.import_module(mod_name)
    return getattr(mod, dict_name) if dict_name else mod


def _get(holder, name):
    return holder[name] if isinstance(holder, dict) else getattr(holder, name)


def _set(holder, name, value) -> None:
    if isinstance(holder, dict):
        holder[name] = value
    else:
        setattr(holder, name, value)


class LayerTracer:
    """Span stack over the wrapped layers; one instance per traced run."""

    def __init__(self) -> None:
        self.calls = {layer: 0 for layer in LAYERS}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.counts = {metric: 0 for _, _, metric in SPLIT_COUNTERS}
        self._split = {}
        for layer, counter, metric in SPLIT_COUNTERS:
            self._split.setdefault(layer, []).append((counter, metric))
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.telemetry = None  # the open obs session, when counters are read
        self.wall_s = 0.0
        self.glue_s = 0.0

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every site; a site the program no longer has is recorded
        in ``missing`` (and reported) instead of failing the run."""
        for layer, sites in LAYER_SITES.items():
            for target, name in sites:
                try:
                    holder = _resolve_target(target)
                    original = _get(holder, name)
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(f"{target}.{name}")
                    print(f"perfbench: layer {layer}: no {target}.{name} to wrap",
                          file=sys.stderr)
                    continue
                self._saved.append((holder, name, original))
                _set(holder, name, self._wrap(layer, original))

    def uninstall(self) -> None:
        while self._saved:
            holder, name, original = self._saved.pop()
            _set(holder, name, original)

    def _wrap(self, layer: str, fn):
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return traced

    # -- spans -------------------------------------------------------------

    def _read(self, layer: str) -> list[int]:
        tel = self.telemetry
        if tel is None:
            return []
        return [tel.counters.get(c, 0) for c, _ in self._split.get(layer, ())]

    def _enter(self, layer: str) -> None:
        self._stack.append([layer, time.perf_counter(), 0.0, self._read(layer)])

    def _leave(self) -> None:
        layer, t0, child, before = self._stack.pop()
        dur = time.perf_counter() - t0
        self.calls[layer] += 1
        self.self_s[layer] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if before:
            after = self._read(layer)
            for (_, metric), b, a in zip(self._split[layer], before, after):
                self.counts[metric] += a - b

    @contextlib.contextmanager
    def window(self):
        """The timed window: a root span whose self time is bench glue."""
        self._stack.append(["bench", time.perf_counter(), 0.0, []])
        try:
            yield self
        finally:
            _, t0, child, _ = self._stack.pop()
            dur = time.perf_counter() - t0
            self.wall_s += dur
            self.glue_s += dur - child

    def metrics(self) -> dict[str, float]:
        """``<layer>.calls``, ``.self_s`` and ``.share`` of the window."""
        out: dict[str, float] = {}
        wall = self.wall_s or 1.0
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.share"] = self.self_s[layer] / wall
        out.update(self.counts)
        out["bench.glue.self_s"] = self.glue_s
        out["bench.wall_s"] = self.wall_s
        return out

    def accounted_s(self) -> float:
        """Layer self times plus glue: equals ``wall_s`` when no span leaked."""
        return sum(self.self_s.values()) + self.glue_s
