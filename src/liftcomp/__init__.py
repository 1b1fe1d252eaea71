"""Factor-graph compression with certified inference error bounds.

Compresses a discrete factor graph by merging factors whose tables agree
entrywise within a relative tolerance, replaces each group by its mean
table, and certifies how far any posterior computed on the compressed
model can drift from the original. Includes exact and lifted query
evaluators and a reproducible experiment harness.
"""

from .acp import (
    ColourPassResult,
    CrvSpec,
    ParfactorGraph,
    colour_pass,
    construct_pfg,
    expand_crv,
    ground,
    pfg_equal,
)
from .bench import (
    CSV_COLUMNS,
    EPS_DOMAIN,
    K_DOMAIN,
    X_DOMAIN,
    ExperimentRecord,
    GenConfig,
    QueryOutcome,
    emit_csv,
    generate_fg,
    perturb,
    run_experiment,
    run_grid,
)
from .bounds import (
    BoundSet,
    DistanceReport,
    bound_general,
    bound_set,
    bound_tight,
    distance_exact,
    modified_factor_count,
    odds_envelope,
    prob_envelope,
    worst_case_fg,
)
from .eacp import CompressionResult, run_eacp
from .equivalence import (
    ARITY_CAP,
    Alignment,
    aligned_args,
    aligned_table,
    commutative_blocks,
    eps_equiv_factors,
    unaligned_table,
)
from .errors import (
    ArityCapError,
    EnumerationCapError,
    InvariantError,
    LiftcompError,
    ModelFormatError,
    UnsupportedTopologyError,
)
from .grouping import Grouping, GroupMember, mean_of_tables, phase1_group
from .inference import (
    Query,
    QueryResult,
    query_enumerate,
    query_lifted_star,
    query_ve,
)
from .io import load_evidence, load_fg, pfg_to_json, save_fg, save_pfg
from .model import (
    DEFAULT_ENUM_CAP,
    Evidence,
    Factor,
    FactorGraph,
    RandomVariable,
    fg_equal,
    joint_table,
    replace_tables,
    resolve_cap,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "RandomVariable",
    "Factor",
    "FactorGraph",
    "Evidence",
    "joint_table",
    "fg_equal",
    "replace_tables",
    "resolve_cap",
    "DEFAULT_ENUM_CAP",
    # io
    "load_fg",
    "save_fg",
    "load_evidence",
    "pfg_to_json",
    "save_pfg",
    # equivalence
    "Alignment",
    "ARITY_CAP",
    "eps_equiv_factors",
    "aligned_table",
    "unaligned_table",
    "aligned_args",
    "commutative_blocks",
    # grouping
    "GroupMember",
    "Grouping",
    "phase1_group",
    "mean_of_tables",
    # colour passing / parfactors
    "ColourPassResult",
    "colour_pass",
    "ParfactorGraph",
    "CrvSpec",
    "construct_pfg",
    "expand_crv",
    "ground",
    "pfg_equal",
    # pipelines
    "CompressionResult",
    "run_eacp",
    # bounds
    "BoundSet",
    "DistanceReport",
    "bound_general",
    "bound_tight",
    "bound_set",
    "distance_exact",
    "modified_factor_count",
    "odds_envelope",
    "prob_envelope",
    "worst_case_fg",
    # inference
    "Query",
    "QueryResult",
    "query_enumerate",
    "query_ve",
    "query_lifted_star",
    # bench
    "GenConfig",
    "QueryOutcome",
    "ExperimentRecord",
    "generate_fg",
    "perturb",
    "run_experiment",
    "run_grid",
    "emit_csv",
    "CSV_COLUMNS",
    "K_DOMAIN",
    "X_DOMAIN",
    "EPS_DOMAIN",
    # errors
    "LiftcompError",
    "ModelFormatError",
    "InvariantError",
    "EnumerationCapError",
    "ArityCapError",
    "UnsupportedTopologyError",
]
