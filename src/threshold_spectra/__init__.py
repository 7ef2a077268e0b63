"""Threshold graphs: encodings, exact lazy-walk counts, spectral bounds.

The package models connected threshold graphs in four interchangeable
encodings, counts lazy walks between dominating-type vertices exactly,
computes spectral radii, evaluates closed-form lower and upper bounds on
them, and searches exhaustively for the spectral-radius maximizers at a
fixed number of vertices and edges.

The names below are the core: each result comes from one routine.  The
paper's alternative formulas for the same results (the other F_p routes,
brute-force walk counts, the bound polynomials, the dense adjacency
matrix) are checks of that core, in :mod:`threshold_spectra.identities`,
which this package does not import.
"""

from .graph_model import (
    ParseError,
    ThresholdGraph,
    degree_sequence,
    from_bzp,
    from_composition,
    from_fop,
    from_generating_sequence,
    to_bzp,
    to_composition,
    to_fop,
)
from .walks import WalkTable, bracket_cubics, lw_recurrence
from .spectral import (
    ConvergenceError,
    RootResult,
    greatest_real_root,
    spectral_radii,
    spectral_radius,
)
from .bounds import BoundReport, PreconditionError, bound_report
from .extremal import (
    ExtremalResult,
    enumerate_threshold_graphs,
    find_extremal,
    predict_maximizers,
    verify_predictions,
)

__all__ = [
    "ParseError",
    "ThresholdGraph",
    "degree_sequence",
    "from_bzp",
    "from_composition",
    "from_fop",
    "from_generating_sequence",
    "to_bzp",
    "to_composition",
    "to_fop",
    "WalkTable",
    "bracket_cubics",
    "lw_recurrence",
    "ConvergenceError",
    "RootResult",
    "greatest_real_root",
    "spectral_radii",
    "spectral_radius",
    "BoundReport",
    "PreconditionError",
    "bound_report",
    "ExtremalResult",
    "enumerate_threshold_graphs",
    "find_extremal",
    "predict_maximizers",
    "verify_predictions",
]
