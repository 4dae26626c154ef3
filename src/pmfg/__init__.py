"""Planar maximally filtered graphs and sphere-triangulation combinatorics.

The package builds PMFGs from similarity matrices, censuses their 3- and
4-cliques, generates every maximal planar graph on a given vertex count by
wheel insertions and by diagonal flips, normalizes triangulations to the
standard spherical form, and verifies the clique maxima 3n - 8 and n - 3
exhaustively at small n.

The package logger ``pmfg`` is silent unless the application configures
logging; a campaign logs one INFO line per vertex count it verifies.
"""

import logging

from .cliques import (
    CliqueCensus,
    brute_force_cliques,
    count_cliques,
    standard_form_expected,
)
from .embedding import (
    Face,
    PlanarEmbedding,
    degree_sequence,
    euler_check,
)
from .errors import (
    CeilingError,
    FlipForbiddenError,
    InputError,
    OperationError,
    PmfgError,
    StructuralError,
    VerificationFailure,
)
from .generator import (
    CanonicalCode,
    EberhardOp,
    FlipMove,
    GenerationRecord,
    apply_eberhard,
    apply_trace,
    canonical_code,
    diagonal_flip,
    eberhard_ops,
    flip_closure,
    generate_all,
    generate_levels,
    k4,
    legal_flips,
    normalize_to_standard,
    pure_chord_cycle_sets,
    random_triangulation,
    standard_form,
)
from .planarity import PlanarityVerdict, is_planar, kuratowski_oracle
from .verify import (
    BoundsReport,
    DegreeSequenceCensus,
    degree_census,
    degree_multisets,
    run_campaign,
    verify_level,
)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "BoundsReport",
    "CanonicalCode",
    "CeilingError",
    "CliqueCensus",
    "DegreeSequenceCensus",
    "EberhardOp",
    "Face",
    "FlipForbiddenError",
    "FlipMove",
    "GenerationRecord",
    "InputError",
    "OperationError",
    "PlanarEmbedding",
    "PlanarityVerdict",
    "PmfgError",
    "PmfgResult",
    "SimilarityMatrix",
    "StructuralError",
    "VerificationFailure",
    "apply_eberhard",
    "apply_trace",
    "brute_force_cliques",
    "build_pmfg",
    "canonical_code",
    "correlation_from_returns",
    "count_cliques",
    "degree_census",
    "degree_multisets",
    "degree_sequence",
    "diagonal_flip",
    "eberhard_ops",
    "euler_check",
    "flip_closure",
    "generate_all",
    "generate_levels",
    "is_planar",
    "k4",
    "kuratowski_oracle",
    "legal_flips",
    "normalize_to_standard",
    "pure_chord_cycle_sets",
    "random_triangulation",
    "run_campaign",
    "standard_form",
    "standard_form_expected",
    "verify_level",
    "weighted_edge_list",
]


def __getattr__(name: str):
    # The builder's exports, imported on first use: only it loads numpy.
    if name in __all__:
        from . import builder

        return getattr(builder, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
