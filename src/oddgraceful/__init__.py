"""Odd-graceful labeling laboratory.

Builds ladder-family graphs with pendant edges, applies three closed-form
labeling schemes (transcribed literally, defects and all), verifies the
odd-graceful property exactly, and cross-checks existence claims with a
complete backtracking search.
"""

from .graphs import (Family, Graph, build_theorem1, build_theorem2,
                     build_theorem3, cycle_graph, is_bipartite, pendant)
from .labeling import (VerificationReport, Violation, complement_labeling,
                       is_odd_graceful, labeling_from_json_obj,
                       labeling_to_json, verify_odd_graceful)
from .formulas import (FormulaInterpretation, label_theorem1, label_theorem2,
                       label_theorem3)
from .search import (SearchConfig, SearchOutcome, SearchStats, engine_name,
                     exhaustive_oracle, find_odd_graceful)

__version__ = "0.1.0"

__all__ = [
    "Family", "Graph", "build_theorem1", "build_theorem2", "build_theorem3",
    "cycle_graph", "is_bipartite", "pendant",
    "VerificationReport", "Violation", "complement_labeling",
    "is_odd_graceful", "labeling_from_json_obj", "labeling_to_json",
    "verify_odd_graceful",
    "FormulaInterpretation", "label_theorem1", "label_theorem2",
    "label_theorem3",
    "SearchConfig", "SearchOutcome", "SearchStats", "engine_name",
    "exhaustive_oracle", "find_odd_graceful",
    "__version__",
]
