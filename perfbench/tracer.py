"""Outside-in tracer: wraps public trunclab functions at their call sites.

``trunclab.harness`` and ``trunclab.thresholds`` import names directly
(``from .engine import component_labels``), so patching the defining module
alone would miss their calls.  Every wrapper is therefore installed on the
namespace the caller looks the name up in, and :meth:`Tracer.restore` puts
every original attribute back.

A span records its name, start, end, the index of its parent span, the op it
belongs to, and a small dict of counts taken from the arguments and the
result.  Spans stay in memory; :meth:`Tracer.write` dumps them once, at the
end of the run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op = 0

    def _open(self, name: str, attrs: dict) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, op=self.op, attrs=attrs))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        index = self._open(name, attrs)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def wrap(self, owner, attribute: str, name: str, describe=None) -> None:
        """Replace ``owner.attribute`` with a spanning wrapper.

        ``describe(args, kwargs, result)`` returns the span's count dict; it
        runs after the call, outside the span's interval.
        """
        original = vars(owner)[attribute]
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer._open(name, {})
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if describe is not None:
                tracer.spans[index].attrs = describe(args, kwargs, result)
            return result

        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def op_spans(self, op: int) -> list[Span]:
        """The spans of one op, parents re-indexed so the op's root span is 0."""
        chosen = [i for i, s in enumerate(self.spans) if s.op == op]
        base = chosen[0]
        return [
            Span(s.name, s.start, s.end, None if s.parent is None else s.parent - base, s.op, s.attrs)
            for s in self.spans[base : chosen[-1] + 1]
        ]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for index, s in enumerate(self.spans):
                record = {
                    "id": index,
                    "op": s.op,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "attrs": s.attrs,
                }
                handle.write(json.dumps(record, default=str) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def _window_class(window) -> str:
    if window.family.startswith("slab"):
        return "slab"
    if window.family == "embedded":
        return "embedded"
    return "long_range"


def install(tracer: Tracer, harness, thresholds, engine) -> None:
    """Wrap every traced public function at each namespace that calls it."""

    def window_attrs(key):
        return lambda args, kwargs, result: {"key": key(*args, **kwargs), "edges": result.n_edges}

    def cluster_attrs(args, kwargs, result):
        return {"class": _window_class(args[0])}

    def estimate_attrs(args, kwargs, result):
        return {"trials": result.trials}

    tracer.wrap(harness, "choose_slab_parameters", "harness.choose_slab_parameters")
    tracer.wrap(harness, "select_scales", "harness.select_scales")
    tracer.wrap(harness, "verify_isomorphism", "harness.verify_isomorphism")
    tracer.wrap(
        harness,
        "embedded_radial_window",
        "harness.embedded_radial_window",
        window_attrs(lambda graph, seq, radius: f"embedded/{graph.scales.scales}/{seq.describe()}/r{radius}"),
    )
    tracer.wrap(
        harness,
        "long_range_radial_window",
        "harness.long_range_radial_window",
        window_attrs(lambda seq, radius, **_: f"long-range/{seq.describe()}/r{radius}"),
    )
    tracer.wrap(harness, "origin_boundary_estimate", "harness.origin_boundary_estimate", estimate_attrs)
    tracer.wrap(harness, "containment_check", "harness.containment_check")
    tracer.wrap(harness, "component_labels", "harness.component_labels", cluster_attrs)
    tracer.wrap(
        harness,
        "keyed_uniforms",
        "harness.keyed_uniforms",
        lambda args, kwargs, result: {"uniforms": int(result.shape[0])},
    )
    tracer.wrap(thresholds, "estimate_pc", "thresholds.estimate_pc")
    tracer.wrap(thresholds, "crossing_estimate", "thresholds.crossing_estimate", estimate_attrs)
    tracer.wrap(
        thresholds.LatticeFamily,
        "crossing_window",
        "thresholds.LatticeFamily.crossing_window",
        window_attrs(lambda family, p, side: f"{family.key}/p{p!r}/L{side}"),
    )
    tracer.wrap(engine, "component_labels", "engine.component_labels", cluster_attrs)
    tracer.wrap(
        engine,
        "propagation_labels",
        "engine.propagation_labels",
        lambda args, kwargs, result: {"rows": int(result.shape[0])},
    )
    tracer.wrap(
        engine,
        "indexed_uniforms",
        "engine.indexed_uniforms",
        lambda args, kwargs, result: {"uniforms": int(result.size)},
    )
    tracer.wrap(
        engine,
        "indexed_uniform_matrix",
        "engine.indexed_uniform_matrix",
        lambda args, kwargs, result: {"uniforms": int(result.size)},
    )
