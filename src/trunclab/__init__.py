"""trunclab: truncated long-range percolation laboratory.

Builds heavy-tailed edge-probability sequences, truncates them, embeds a
supercritical slab into the planar lattice at selected scales, and certifies
percolation of the truncated process numerically with a reproducible
Monte Carlo engine whose compiled kernel draws and clusters a range of
trials in one call.
"""

__version__ = "0.1.0"

from .embedding import (
    EmbeddedGraph,
    HypothesisNotWitnessed,
    ScaleVector,
    SlabCoord,
    SlabParameters,
    select_scales,
    verify_isomorphism,
)
from .engine import (
    Estimate,
    UnionFind,
    crossing_estimate,
    exact_event_probability,
    mc_event_probability,
    origin_boundary_estimate,
    origin_radius_profile,
)
from .harness import (
    PipelineConfig,
    PipelineReport,
    containment_check,
    load_config,
    run_pipeline,
)
from .sequences import EpsilonCertificate, ProbabilitySequence, scan_support
from .thresholds import (
    CalibrationTable,
    LatticeFamily,
    ParametersNotFound,
    ThresholdSettings,
    choose_slab_parameters,
    estimate_pc,
)
from .windows import ConfigError, GraphWindow

__all__ = [
    "CalibrationTable",
    "ConfigError",
    "EmbeddedGraph",
    "EpsilonCertificate",
    "Estimate",
    "GraphWindow",
    "HypothesisNotWitnessed",
    "LatticeFamily",
    "ParametersNotFound",
    "PipelineConfig",
    "PipelineReport",
    "ProbabilitySequence",
    "ScaleVector",
    "SlabCoord",
    "SlabParameters",
    "ThresholdSettings",
    "UnionFind",
    "choose_slab_parameters",
    "containment_check",
    "crossing_estimate",
    "estimate_pc",
    "exact_event_probability",
    "load_config",
    "mc_event_probability",
    "origin_boundary_estimate",
    "origin_radius_profile",
    "run_pipeline",
    "scan_support",
    "select_scales",
    "verify_isomorphism",
]
