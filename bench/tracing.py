"""Spans around the program's public functions, installed from outside.

Every public function of each traced module is wrapped in its defining
module and in every program module that bound it by name (``characters``
binds ``pochhammer_inf_inverse`` and ``q_binomial`` directly).  A few
methods are wrapped on their classes.  ``height`` and ``horizon`` are never
wrapped: they run about a million times per workload and would swamp it.

A span records its name, start, end, parent span and the request (one
benchmark operation) it belongs to.  Spans stay in memory in flat arrays
and are written out once the run ends.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from statistics import quantiles

PACKAGE = "viracomb"
TRACED_MODULES = ("qseries", "characters", "rsos", "halfpath", "bijections", "particles")

# (module, class, method); staticmethods stay static when wrapped
TRACED_METHODS = (
    ("qseries", "QSeries", "__mul__"),
    ("qseries", "QSeries", "invert"),
    ("rsos", "RsosPath", "of"),
    ("rsos", "RsosPath", "from_line"),
    ("rsos", "RsosPath", "to_line"),
    ("halfpath", "HalfPath", "of"),
    ("halfpath", "HalfPath", "from_line"),
    ("halfpath", "HalfPath", "to_line"),
)


def _enumerate_size(args, kwargs, result) -> int:
    return len(result)


def _mul_products(args, kwargs, result) -> int:
    # coefficient products a schoolbook truncated product performs
    n = min(args[0].order, args[1].order)
    return (n + 1) * (n + 2) // 2


def _max_weight(position: int):
    return lambda args, kwargs: args[position] if len(args) > position else kwargs["max_weight"]


# span name -> the order an enumeration runs at, kept as the span's tag
_TAGS = {"rsos.enumerate_paths": _max_weight(4), "halfpath.enumerate_paths": _max_weight(3)}
# span name -> the work a call did, kept as the span's count
_COUNTS = {
    "rsos.enumerate_paths": _enumerate_size,
    "halfpath.enumerate_paths": _enumerate_size,
    "qseries.QSeries.__mul__": _mul_products,
}


class Tracer:
    """Span recorder.  ``install`` patches the program; ``uninstall`` puts
    every original back.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("q")
        self.end = array("q")
        self.raised = array("b")
        self.tag = array("q")
        self.count = array("q")
        self._stack: list[int] = []
        self._request = -1
        self._requests = 0
        self._undo: list[tuple[object, str, object]] = []
        self._patches: list[tuple[object, str, object]] | None = None

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int, tag: int) -> int:
        sid = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._request)
        self.raised.append(0)
        self.tag.append(tag)
        self.count.append(0)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int, raised: bool) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()
        if raised:
            self.raised[sid] = 1

    def wrap(self, fn, name: str):
        name_id = self._name_id(name)
        tag_of = _TAGS.get(name)
        count_of = _COUNTS.get(name)

        def traced(*args, **kwargs):
            sid = self._open(name_id, tag_of(args, kwargs) if tag_of else -1)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(sid, True)
                raise
            self._close(sid, False)
            if count_of:
                self.count[sid] = count_of(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def request_span(self, name: str):
        """Context for one benchmark operation: a root span that every
        program span inside it descends from, all sharing one request id.
        """
        tracer = self

        class _Root:
            def __enter__(self):
                tracer._request = tracer._requests
                tracer._requests += 1
                self.sid = tracer._open(tracer._name_id(name), -1)

            def __exit__(self, exc_type, exc, tb):
                tracer._close(self.sid, exc_type is not None)
                tracer._request = -1

        return _Root()

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, value in self._patches:
            self._undo.append((owner, attr, inspect.getattr_static(owner, attr)))
            setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _plan(self) -> list[tuple[object, str, object]]:
        """Every (owner, attribute, wrapper) the tracer patches."""
        wrappers: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue  # imported from elsewhere; wrapped where defined
                wrappers[id(obj)] = self.wrap(obj, f"{short}.{attr}")
        patches = []
        for name, mod in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, obj in vars(mod).items():
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    patches.append((mod, attr, wrapper))
        for short, cls_name, meth in TRACED_METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{short}"], cls_name)
            raw = inspect.getattr_static(cls, meth)
            name = f"{short}.{cls_name}.{meth}"
            if isinstance(raw, staticmethod):
                patches.append((cls, meth, staticmethod(self.wrap(raw.__func__, name))))
            else:
                patches.append((cls, meth, self.wrap(raw, name)))
        return patches

    # -- results -------------------------------------------------------------

    def self_times(self) -> array:
        """Self time of every span, in nanoseconds."""
        own = array("q", (e - s for s, e in zip(self.start, self.end)))
        for sid, par in enumerate(self.parent):
            if par >= 0:
                own[par] -= self.end[sid] - self.start[sid]
        return own

    def write(self, path: Path) -> None:
        """One span per line: id, parent, request, name, start and end in ns
        from the first span, raised flag, tag, count.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\trequest\tname\tstart_ns\tend_ns\traised\ttag\tcount\n")
            for sid in range(len(self.name)):
                fh.write(
                    f"{sid}\t{self.parent[sid]}\t{self.request[sid]}\t"
                    f"{self.names[self.name[sid]]}\t{self.start[sid] - t0}\t"
                    f"{self.end[sid] - t0}\t{self.raised[sid]}\t{self.tag[sid]}\t"
                    f"{self.count[sid]}\n"
                )


# Per-layer metric groups: metric prefix -> (span counted as calls, spans
# whose self time is summed).  Helpers without a group of their own are
# folded into the layer that calls them.
GROUPS = {
    "qseries.mul": ("qseries.QSeries.__mul__", ("qseries.QSeries.__mul__",)),
    "qseries.invert": ("qseries.QSeries.invert", ("qseries.QSeries.invert",)),
    "qseries.pochhammer": (None, ("qseries.pochhammer_finite", "qseries.pochhammer_inf_inverse")),
    "qseries.q_binomial": (None, ("qseries.q_binomial",)),
    "qseries.modular_product": (None, ("qseries.modular_product",)),
    "characters.bosonic": ("characters.bosonic_character",
                           ("characters.bosonic_character", "characters.alternating_sum_series")),
    "characters.fermionic": ("characters.fermionic_character_12",
                             ("characters.fermionic_character_12", "characters.b_matrix",
                              "characters.m_vector_of")),
    "characters.closed_forms": (None, ("characters.fermionic_sum_2_5",
                                       "characters.fermionic_sum_3_7",
                                       "characters.fermionic_sum_4_7")),
    "characters.verify_symmetries": (None, ("characters.verify_symmetries",)),
    "rsos.enumerate": ("rsos.enumerate_paths", ("rsos.enumerate_paths",)),
    "rsos.generating_function": (None, ("rsos.generating_function",)),
    "rsos.weight": ("rsos.weight", ("rsos.weight", "rsos.tail_band_index", "rsos.dark_floors",
                                    "rsos.band_is_dark")),
    "rsos.classify": ("rsos.classify", ("rsos.classify",)),
    "rsos.path_of": ("rsos.RsosPath.of", ("rsos.RsosPath.of",)),
    "rsos.line_io": ("rsos.RsosPath.from_line", ("rsos.RsosPath.from_line",
                                                 "rsos.RsosPath.to_line")),
    "halfpath.enumerate": ("halfpath.enumerate_paths", ("halfpath.enumerate_paths",)),
    "halfpath.generating_function": (None, ("halfpath.generating_function",)),
    "halfpath.weight": ("halfpath.weight", ("halfpath.weight", "halfpath.raw_weight_quarters",
                                            "halfpath.ground_state")),
    "halfpath.path_of": ("halfpath.HalfPath.of", ("halfpath.HalfPath.of",
                                                  "halfpath.find_violation",
                                                  "halfpath.theorem1_domain")),
    "halfpath.line_io": ("halfpath.HalfPath.from_line", ("halfpath.HalfPath.from_line",
                                                         "halfpath.HalfPath.to_line")),
    "particles.dissect": ("particles.dissect", ("particles.dissect",)),
    "particles.enumerate_moves": ("particles.enumerate_moves", ("particles.enumerate_moves",)),
    "particles.apply_move": ("particles.apply_move", ("particles.apply_move",)),
}
for _name in ("bij1_forward", "bij1_inverse", "bij2_forward", "bij2_inverse"):
    GROUPS[f"bijections.{_name}"] = (f"bijections.{_name}", (f"bijections.{_name}",))
# line_io counts both directions as calls
_EXTRA_CALLS = {"rsos.line_io": "rsos.RsosPath.to_line",
                "halfpath.line_io": "halfpath.HalfPath.to_line"}
_LATENCY = tuple(f"bijections.{n}" for n in ("bij1_forward", "bij1_inverse",
                                              "bij2_forward", "bij2_inverse"))
_GROWTH = {"rsos.enumerate": "rsos.enumerate_paths",
           "halfpath.enumerate": "halfpath.enumerate_paths"}


def _quantile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric (name, unit) the traced run reports, in order."""
    return [(name, unit) for name, (_, unit) in layer_metrics(Tracer(), 1.0).items()]


def layer_metrics(tr: Tracer, overhead: float) -> dict[str, tuple[float, str]]:
    """Aggregate the spans into the per-layer metrics: name -> (value, unit).
    Layers without spans report 0.
    """
    own = tr.self_times()
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    failed: dict[str, int] = defaultdict(int)
    counted: dict[str, int] = defaultdict(int)
    durations: dict[str, list[float]] = defaultdict(list)
    by_tag: dict[tuple[str, int], list[int]] = defaultdict(list)
    inner_dissects = 0
    names = tr.names
    mover_ids = {i for i, n in enumerate(names)
                 if n in ("particles.enumerate_moves", "particles.apply_move")}
    for sid in range(len(tr.name)):
        name = names[tr.name[sid]]
        dur = tr.end[sid] - tr.start[sid]
        calls[name] += 1
        self_ns[name] += own[sid]
        failed[name] += tr.raised[sid]
        counted[name] += tr.count[sid]
        if name in _LATENCY:
            durations[name].append(dur / 1e6)
        if tr.tag[sid] >= 0:
            by_tag[(name, tr.tag[sid])].append(dur)
        if name == "particles.dissect" and tr.parent[sid] >= 0 \
                and tr.name[tr.parent[sid]] in mover_ids:
            inner_dissects += 1

    def growth(span: str) -> float:
        tags = sorted(t for n, t in by_tag if n == span)
        if len(tags) < 2:
            return 0.0
        lo, hi = by_tag[(span, tags[0])], by_tag[(span, tags[-1])]
        return (sum(hi) / len(hi)) / (sum(lo) / len(lo))

    out: dict[str, tuple[float, str]] = {}
    for prefix, (call_span, self_spans) in GROUPS.items():
        if call_span:
            n = calls[call_span] + calls.get(_EXTRA_CALLS.get(prefix, ""), 0)
            out[f"{prefix}.calls"] = (n, "count")
        out[f"{prefix}.self_s"] = (sum(self_ns[s] for s in self_spans) / 1e9, "s")
        if prefix == "qseries.mul":
            out["qseries.mul.coeff_products"] = (counted[call_span], "count")
        if prefix in _GROWTH:
            out[f"{prefix}.paths"] = (counted[_GROWTH[prefix]], "count")
            out[f"{prefix}.growth"] = (growth(_GROWTH[prefix]), "ratio")
        if prefix in _LATENCY:
            out[f"{prefix}.p50_ms"] = (_quantile(durations[prefix], 50), "ms")
            out[f"{prefix}.p99_ms"] = (_quantile(durations[prefix], 99), "ms")
        if prefix == "particles.apply_move":
            out["particles.apply_move.failed"] = (failed[call_span], "count")
    moves = calls["particles.apply_move"]
    out["particles.dissects_per_move"] = (inner_dissects / moves if moves else 0.0, "ratio")
    out["trace.overhead"] = (overhead, "ratio")
    return out


def self_time_table(tr: Tracer) -> dict[str, dict]:
    """Calls and self seconds of every span name, largest self time first."""
    own = tr.self_times()
    rows: dict[str, list] = defaultdict(lambda: [0, 0])
    for sid in range(len(tr.name)):
        row = rows[tr.names[tr.name[sid]]]
        row[0] += 1
        row[1] += own[sid]
    return {
        name: {"calls": c, "self_s": ns / 1e9}
        for name, (c, ns) in sorted(rows.items(), key=lambda kv: -kv[1][1])
    }
