"""Spans and counters recorded around the library's layer boundaries.

Nothing here is imported by the library.  `Tracer.install` rebinds, from
the outside, every public function of each measured module at every module
that binds it, so a function bound in two modules (`schottky_margin` in
`interval_builder` and `criteria_engine`) is counted per binding site.
`Tracer.uninstall` restores the original bindings; an untraced run never
installs anything.

Spans carry name, start, end, parent span and family id and stay in
memory until the run writes them out.  Self time (a span's duration minus
the time covered by its child spans) is accumulated for every timed call;
only the layer-boundary functions in SPAN_FUNCTIONS keep individual spans,
so hot helpers add no per-call records.  The highest-frequency helpers in
COUNT_ONLY are counted without timing, and their time stays in the caller.
"""

from __future__ import annotations

import functools
import importlib
import json
import types
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "moebius_core",
    "pair_geometry",
    "boundary_arcs",
    "interval_builder",
    "criteria_engine",
    "search_oracle",
    "cli",
)
# Private functions that are named stages of the decision procedure.
STAGES = {"_assemble_once", "_witness_scan", "_report"}
COUNT_ONLY = {"apply_boundary", "apply_interior", "compose", "inverse", "ccw_gap", "contains"}
SPAN_FUNCTIONS = {
    "criteria_engine.certify",
    "criteria_engine.find_rank_one_interval",
    "criteria_engine.Thresholds.from_generators",
    "criteria_engine._witness_scan",
    "criteria_engine._report",
    "criteria_engine.elliptic_witness_disjoint",
    "criteria_engine.triple_crossing_test",
    "criteria_engine.certificate_to_dict",
    "interval_builder.assemble_global",
    "interval_builder._assemble_once",
    "interval_builder.build_disjoint_pair_intervals",
    "interval_builder.build_crossing_pair_intervals",
    "interval_builder.build_shared_alpha_intervals",
    "boundary_arcs.schottky_margin",
    "search_oracle.enumerate_words",
    "search_oracle.find_elliptic",
    "search_oracle.inverse_free_probe",
    "search_oracle.chaos_game",
}
MAX_SPANS = 500_000


class Tracer:
    """Collector for one traced run; wrappers close over it."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.dropped_spans = 0
        self.calls: Counter = Counter()  # (name, site) -> calls
        self.self_s: defaultdict = defaultdict(float)  # name -> self seconds
        self.raised: Counter = Counter()  # (name, exception class) -> count
        self.non_null: Counter = Counter()  # name -> calls returning something
        self.family = -1  # input index of the open request
        # Open frames: [span index or -1, seconds covered by children].
        self._stack: list[list] = []
        self._undo: list = []

    # --- spans -----------------------------------------------------------

    def _open(self, keep: bool, name: str, start: float) -> None:
        parent = next((f[0] for f in reversed(self._stack) if f[0] >= 0), -1)
        index = -1
        if keep:
            if len(self.spans) < MAX_SPANS:
                index = len(self.spans)
                self.spans.append((name, start, start, parent, self.family))
            else:
                self.dropped_spans += 1
        self._stack.append([index, 0.0])

    def _close(self, name: str, start: float, end: float) -> None:
        frame = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        if frame[0] >= 0:
            _, _, _, parent, family = self.spans[frame[0]]
            self.spans[frame[0]] = (name, start, end, parent, family)

    def span(self, name: str, family: int):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name, family)

    # --- wrappers --------------------------------------------------------

    def _timed(self, fn, name: str, site: str):
        keep = name in SPAN_FUNCTIONS
        key = (name, site)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            start = perf_counter()
            self._open(keep, name, start)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                self._close(name, start, perf_counter())
            if result is not None:
                self.non_null[name] += 1
            return result

        return wrapper

    def _counted(self, fn, name: str, site: str):
        key = (name, site)
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every measured function at every module binding it."""
        modules = {layer: importlib.import_module(f"semicert.{layer}") for layer in LAYERS}
        modules["package"] = importlib.import_module("semicert")
        for site, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if home not in LAYERS or (attr.startswith("_") and attr not in STAGES):
                    continue
                name = f"{home}.{obj.__name__}"
                make = self._counted if obj.__name__ in COUNT_ONLY else self._timed
                self._rebind(module, attr, make(obj, name, site))
        core, crit, oracle = modules["moebius_core"], modules["criteria_engine"], modules["search_oracle"]
        angle = core.BoundaryPoint.__dict__["angle"]
        self._rebind(core.BoundaryPoint, "angle", property(self._counted(angle.fget, "moebius_core.angle", "moebius_core")))
        from_gens = crit.Thresholds.__dict__["from_generators"].__func__
        self._rebind(
            crit.Thresholds,
            "from_generators",
            staticmethod(self._timed(from_gens, "criteria_engine.Thresholds.from_generators", "criteria_engine")),
        )
        bfs_init = oracle._Bfs.__dict__["__init__"]
        self._rebind(oracle._Bfs, "__init__", self._counted(bfs_init, "search_oracle._Bfs", "search_oracle"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # --- results ---------------------------------------------------------

    def total_calls(self, name: str, site: str | None = None) -> int:
        return sum(v for (n, s), v in self.calls.items() if n == name and (site is None or s == site))

    def layer_self_s(self, layer: str) -> float:
        return sum(v for name, v in self.self_s.items() if name.split(".", 1)[0] == layer)

    def table(self) -> list[dict]:
        """Per-function rows: calls per binding site, self time, exceptions."""
        names = sorted({n for n, _ in self.calls} | set(self.self_s))
        return [
            {
                "name": name,
                "calls": {s: v for (n, s), v in sorted(self.calls.items()) if n == name},
                "self_s": self.self_s.get(name, 0.0),
                "non_null": self.non_null.get(name, 0),
                "raised": {e: v for (n, e), v in sorted(self.raised.items()) if n == name},
            }
            for name in names
        ]

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str, family: int):
        self.tracer, self.name, self.family = tracer, name, family

    def __enter__(self):
        self.tracer.family = self.family
        self.start = perf_counter()
        self.tracer._open(True, self.name, self.start)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.name, self.start, perf_counter())
        return False


def layer_metrics(t: Tracer, units: int, busy: float) -> dict:
    """Per-layer metrics: counts per unit of work, ratios, self time as % of `busy`."""
    s = t.self_s

    def per_unit(name, site=None):
        return (t.total_calls(name, site) / units, "count")

    def pct(seconds):
        return (100.0 * seconds / busy, "%")

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio")

    builders = ("interval_builder.build_disjoint_pair_intervals", "interval_builder.build_crossing_pair_intervals")
    builder_calls = sum(t.total_calls(b) for b in builders)
    assemble = "interval_builder.assemble_global"
    assemble_calls = t.total_calls(assemble)
    assemble_raised = sum(v for (n, _), v in t.raised.items() if n == assemble)
    margin = "boundary_arcs.schottky_margin"
    clearances = "boundary_arcs.image_clearances"
    rank_one = "criteria_engine.find_rank_one_interval"
    out = {
        "moebius_core.classify.calls": per_unit("moebius_core.classify"),
        "moebius_core.classify.self_pct": pct(s["moebius_core.classify"]),
        "moebius_core.apply_boundary.calls": per_unit("moebius_core.apply_boundary"),
        "moebius_core.angle.calls": per_unit("moebius_core.angle"),
        "pair_geometry.cross_ratio.calls": per_unit("pair_geometry.cross_ratio_of_points"),
        "pair_geometry.configuration.calls": per_unit("pair_geometry.configuration"),
        "pair_geometry.configuration.self_pct": pct(s["pair_geometry.configuration"]),
        "boundary_arcs.schottky_margin.calls.interval_builder": per_unit(margin, "interval_builder"),
        "boundary_arcs.schottky_margin.calls.criteria_engine": per_unit(margin, "criteria_engine"),
        "boundary_arcs.schottky_margin.self_pct": pct(s[margin]),
        "boundary_arcs.image_clearances.calls": per_unit(clearances),
        "boundary_arcs.image_clearances.hit_ratio": ratio(t.non_null[clearances], t.total_calls(clearances)),
        "interval_builder.assemble_global.calls": per_unit(assemble),
        "interval_builder.assemble_global.self_pct": pct(s[assemble]),
        "interval_builder.schedules_per_assembly": (
            ratio(t.total_calls("interval_builder._assemble_once"), assemble_calls)[0],
            "count",
        ),
        "interval_builder.assembly_success_ratio": ratio(assemble_calls - assemble_raised, assemble_calls),
        "interval_builder.pair_builders.calls": (builder_calls / units, "count"),
        "interval_builder.pair_builders.self_pct": pct(sum(s[b] for b in builders)),
        "interval_builder.pair_builders.skip_ratio": ratio(
            sum(t.raised[(b, "ThresholdNotMet")] for b in builders), builder_calls
        ),
        "interval_builder.shared_alpha.calls": per_unit("interval_builder.build_shared_alpha_intervals"),
        "interval_builder.shared_alpha.self_pct": pct(s["interval_builder.build_shared_alpha_intervals"]),
        "criteria_engine.certify.self_pct": pct(s["criteria_engine.certify"]),
        "criteria_engine.thresholds.self_pct": pct(s["criteria_engine.Thresholds.from_generators"]),
        "criteria_engine.serialize.self_pct": pct(s["criteria_engine.certificate_to_dict"]),
        "criteria_engine.rank_one.self_pct": pct(s[rank_one]),
        # Every rank-one candidate interval is verified by one schottky_margin call.
        "criteria_engine.rank_one.candidates_verified": per_unit(margin, "criteria_engine"),
        "criteria_engine.rank_one.hit_ratio": ratio(t.non_null[rank_one], t.total_calls(margin, "criteria_engine")),
        "criteria_engine.witness.calls": per_unit("criteria_engine._witness_scan"),
        "criteria_engine.witness.self_pct": pct(s["criteria_engine._witness_scan"]),
        "search_oracle.enumerate_words.self_pct": pct(s["search_oracle.enumerate_words"]),
        "search_oracle.find_elliptic.self_pct": pct(s["search_oracle.find_elliptic"]),
        "search_oracle.inverse_free_probe.self_pct": pct(s["search_oracle.inverse_free_probe"]),
        "search_oracle.chaos_game.self_pct": pct(s["search_oracle.chaos_game"]),
        "search_oracle.bfs_sweeps": per_unit("search_oracle._Bfs"),
    }
    for layer in LAYERS[:-1]:  # the cli layer is timed by cli.import_s and cli.invoke_s
        out[f"{layer}.self_pct"] = pct(t.layer_self_s(layer))
    return out
