"""Multiparameter persistence toolkit.

Bifiltered simplicial complexes, one-parameter barcodes over F2, the rank
invariant, exact bottleneck distance, a sampled lower bound for the
multidimensional matching distance, and a harness that verifies the
stability inequalities relating them.
"""
from .bottleneck import bottleneck_distance, diagonal_cost, interval_cost
from .complexes import (
    Grade,
    InadmissibleLineError,
    Line,
    MultiFilteredComplex,
    ParseError,
    ScalarFiltration,
    Simplex,
    ValidationError,
    canonicalize_line,
    diagonal_shift,
    parse_bifiltration,
    push_to_line,
    restrict,
    serialize_bifiltration,
)
from .homology import (
    Barcode,
    Interval,
    RankQuery,
    barcode_from_json,
    barcode_to_json,
    betti_at,
    compute_barcode,
    line_barcodes,
    order_simplices,
    rank_invariant,
)
from .matching import (
    LineGrid,
    MatchResult,
    default_offset_box,
    line_distances,
    match_result_to_csv,
    match_result_to_json,
    matching_distance_lb,
    sample_lines,
)
from .stability import (
    EtaBound,
    InterleavedPair,
    StabilityReport,
    eta_bound,
    perturb_grades,
    report_to_json,
    shift_pair,
    verify_internal_stability,
    verify_rank_stability,
)

__all__ = [
    "Barcode",
    "EtaBound",
    "Grade",
    "InadmissibleLineError",
    "InterleavedPair",
    "Interval",
    "Line",
    "LineGrid",
    "MatchResult",
    "MultiFilteredComplex",
    "ParseError",
    "RankQuery",
    "ScalarFiltration",
    "Simplex",
    "StabilityReport",
    "ValidationError",
    "barcode_from_json",
    "barcode_to_json",
    "betti_at",
    "bottleneck_distance",
    "canonicalize_line",
    "compute_barcode",
    "default_offset_box",
    "diagonal_cost",
    "diagonal_shift",
    "eta_bound",
    "interval_cost",
    "line_barcodes",
    "line_distances",
    "match_result_to_csv",
    "match_result_to_json",
    "matching_distance_lb",
    "order_simplices",
    "parse_bifiltration",
    "perturb_grades",
    "push_to_line",
    "rank_invariant",
    "report_to_json",
    "restrict",
    "sample_lines",
    "serialize_bifiltration",
    "shift_pair",
    "verify_internal_stability",
    "verify_rank_stability",
]

__version__ = "0.1.0"
