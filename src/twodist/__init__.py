"""2-distance coloring workbench for embedded planar graphs.

Connected simple planar graphs are carried with explicit rotation systems.
The package colors any such graph with maximum degree at least 6 using at
most 3*Delta + 2 colors so that vertices within distance 2 differ, audits
the exact-rational discharging argument behind that bound on concrete
graphs, and cross-checks everything against a brute-force chromatic oracle.
"""

from .classify import VertexClass, classify_all, is_special_vertex
from .colorer import (
    ColorReport,
    Coloring,
    RunTrace,
    color,
    extend,
    merge_at_cut,
    verify_coloring,
)
from .discharge import (
    AuditReport,
    ChargeLedger,
    Transfer,
    apply_rules,
    audit,
    initial_charges,
    rule_totals,
)
from .errors import (
    BudgetExhausted,
    DegreeBudgetExceeded,
    EmbeddingInvalid,
    GenerationFailed,
    InvariantViolated,
    NoSafeColor,
    NotACutVertex,
    NotConnected,
    ParseError,
    PermutationInfeasible,
    SurgeryDisconnects,
    SurgeryNotPlanar,
    TwodistError,
    UnknownVertex,
)
from .oracle import OracleResult, chi2_exact, greedy_square
from .planar import (
    Embedding,
    PlanarGraph,
    SurgeryResult,
    articulation_points,
    distance_profile,
    edge_key,
    is_cut_vertex,
    split_at,
    square,
    surgery,
    trace_faces,
)
from .reductions import (
    ProofGapReport,
    Reduction,
    check_properness,
    find_reduction,
    match_case,
    reduce_in_place,
)
from .workbench import (
    HuntReport,
    gen_planar,
    hunt,
    parse_coloring,
    parse_graph,
    write_coloring,
    write_graph,
)

__version__ = "0.1.0"
