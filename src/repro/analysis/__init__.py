"""Statistical analysis: CDFs, normalization, fairness, CIs, timelines."""

from repro.analysis.stats import Cdf
from repro.analysis.normalize import normalized_jct, performance_gap
from repro.analysis.fairness import jain_index
from repro.analysis.barchart import Bar, render_barchart
from repro.analysis.ci import ConfidenceInterval, bootstrap_ratio_ci
from repro.analysis.timeline import Span, render_timeline

__all__ = [
    "Bar",
    "Cdf",
    "ConfidenceInterval",
    "Span",
    "bootstrap_ratio_ci",
    "jain_index",
    "normalized_jct",
    "performance_gap",
    "render_barchart",
    "render_timeline",
]
