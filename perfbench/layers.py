"""Per-layer metrics from one traced op's spans plus the untraced run's outputs.

``BENCHMARK.json`` lists the metrics with their units; this module only
computes them.

Layers are named after trunclab's modules.  ``cli`` and ``sequences`` get no
metrics: ``trunclab pipeline`` is ``run_pipeline`` plus a print, and sequence
lookups (under 10 ms a run) are counted inside ``embedding.select_scales_s``
and ``windows.build_s``.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import Span, self_times

WINDOW_BUILDS = (
    "thresholds.LatticeFamily.crossing_window",
    "harness.embedded_radial_window",
    "harness.long_range_radial_window",
)
CLUSTER = ("engine.component_labels", "harness.component_labels")
ESTIMATES = (
    "harness.origin_boundary_estimate",
    "thresholds.crossing_estimate",
    "engine.mc_event_probability",
)
INDEXED = ("engine.indexed_uniforms", "engine.indexed_uniform_matrix")


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def op_metrics(spans: list[Span], root: int) -> dict[str, float]:
    """Span-derived metrics of one op; ``spans`` holds that op's spans, root included."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for index, s in enumerate(spans):
        by_name[s.name].append(index)

    def indices(*names):
        return [i for name in names for i in by_name[name]]

    def total(*names):
        return sum(spans[i].duration for i in indices(*names))

    def own_total(*names):
        return sum(own[i] for i in indices(*names))

    def attr_sum(key, *names):
        return sum(spans[i].attrs.get(key, 0) for i in indices(*names))

    def under_exact(index):
        parent = spans[index].parent
        while parent is not None:
            if spans[parent].name == "engine.exact_event_probability":
                return True
            parent = spans[parent].parent
        return False

    m: dict[str, float] = {}
    m["harness.containment.self_s"] = own_total("harness.containment_check")
    m["harness.unattributed_s"] = own[root]
    m["thresholds.families_computed"] = len(indices("thresholds.estimate_pc"))
    m["thresholds.probes"] = len(indices("thresholds.crossing_estimate"))
    m["thresholds.probe_trials"] = attr_sum("trials", "thresholds.crossing_estimate")
    m["thresholds.estimate_pc_s"] = total("thresholds.estimate_pc")
    m["thresholds.self_s"] = own_total("thresholds.estimate_pc")
    m["embedding.select_scales_s"] = total("harness.select_scales")
    m["embedding.verify_s"] = total("harness.verify_isomorphism")

    builds = indices(*WINDOW_BUILDS)
    m["windows.builds"] = len(builds)
    m["windows.distinct"] = len({spans[i].attrs["key"] for i in builds})
    m["windows.distinct_ratio"] = _ratio(m["windows.distinct"], m["windows.builds"])
    m["windows.build_s"] = total(*WINDOW_BUILDS)
    m["windows.edges_built"] = attr_sum("edges", *WINDOW_BUILDS)

    cluster = indices(*CLUSTER)
    m["engine.cluster_calls"] = len(cluster)
    m["engine.cluster_s"] = total(*CLUSTER)
    for kind in ("slab", "long_range", "embedded"):
        chosen = [i for i in cluster if spans[i].attrs["class"] == kind]
        seconds = sum(spans[i].duration for i in chosen)
        m[f"engine.cluster_us_per_trial.{kind}"] = _ratio(seconds, len(chosen), 1e6)
    propagation = [i for i in by_name["engine.propagation_labels"] if not under_exact(i)]
    m["engine.propagation_calls"] = len(propagation)
    m["engine.propagation_s"] = sum(spans[i].duration for i in propagation)
    rows = sum(spans[i].attrs["rows"] for i in propagation)
    m["engine.propagation_us_per_trial"] = _ratio(m["engine.propagation_s"], rows, 1e6)
    m["engine.estimate_self_s"] = own_total(*ESTIMATES)
    m["engine.exact_s"] = total("engine.exact_event_probability")
    m["engine.exact_configs"] = sum(
        2 ** spans[i].attrs["edges"] for i in by_name["engine.exact_event_probability"]
    )

    m["rng.indexed_calls"] = len(indices(*INDEXED))
    m["rng.indexed_uniforms"] = attr_sum("uniforms", *INDEXED)
    m["rng.indexed_s"] = total(*INDEXED)
    m["rng.indexed_matrix_s"] = total("engine.indexed_uniform_matrix")
    m["rng.keyed_calls"] = len(indices("harness.keyed_uniforms"))
    m["rng.keyed_uniforms"] = attr_sum("uniforms", "harness.keyed_uniforms")
    m["rng.keyed_s"] = total("harness.keyed_uniforms")
    m["rng.ns_per_uniform.indexed"] = _ratio(m["rng.indexed_s"], m["rng.indexed_uniforms"], 1e9)
    m["rng.ns_per_uniform.keyed"] = _ratio(m["rng.keyed_s"], m["rng.keyed_uniforms"], 1e9)
    # Computed from the uniform counts (8-byte doubles), not measured traffic.
    m["rng.bytes_computed"] = 8 * (m["rng.indexed_uniforms"] + m["rng.keyed_uniforms"])

    top_level = sum(s.duration for s in spans if s.parent == root)
    m["trace.coverage"] = _ratio(top_level, spans[root].duration)
    return m
