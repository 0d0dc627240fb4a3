"""One generator per table/figure in the paper's evaluation.

Each module exposes ``generate(base=None, **overrides)`` returning a
result object with ``render()`` for the text report — the same
rows/series the paper plots — and, all but ``impact``, ``claims()``:
the paper claims it checks (``tensorlights reproduce`` prints both).
"""

from repro.experiments.figures import (  # noqa: F401
    codesign,
    collectives,
    fct,
    fig1,
    fig2,
    fig3,
    fig4,
    fig5a,
    fig5b,
    fig6,
    impact,
    robustness,
    table1,
    table2,
)

__all__ = ["codesign", "collectives", "fct", "fig1", "fig2", "fig3", "fig4",
           "fig5a", "fig5b", "fig6", "impact", "robustness", "table1",
           "table2"]
