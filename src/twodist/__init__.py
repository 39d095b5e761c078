"""2-distance coloring workbench for embedded planar graphs.

Connected simple planar graphs are carried with explicit rotation systems.
The package colors any such graph with maximum degree at least 6 using at
most 3*Delta + 2 colors so that vertices within distance 2 differ, audits
the exact-rational discharging argument behind that bound on concrete
graphs, and cross-checks everything against a brute-force chromatic oracle.

The names here are the boundary types and the entry points through which
the paper's claims are checked; everything else lives in its submodule.
"""

from .classify import classify_all
from .colorer import Coloring, RunTrace, color, verify_coloring
from .discharge import audit
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
from .oracle import chi2_exact
from .planar import Embedding, PlanarGraph
from .reductions import Reduction, check_properness, find_reduction, match_case, reduce_in_place
from .workbench import gen_planar, hunt, parse_coloring, parse_graph, write_coloring, write_graph

__version__ = "0.1.0"
