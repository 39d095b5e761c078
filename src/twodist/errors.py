"""Exception types shared across the package.

Every one derives from ``TwodistError``.  The package exports all but
``NoApplyInForce``, which only a caller of ``Embedding.undo`` can meet.
"""


class TwodistError(Exception):
    """Base class for all package errors."""


class EmbeddingInvalid(TwodistError):
    """The rotation system does not describe a planar embedding of a
    connected graph (symmetry, simplicity, or Euler count fails)."""


class NotConnected(EmbeddingInvalid):
    """The graph has more than one connected component."""


class UnknownVertex(TwodistError):
    """A vertex id outside 1..n was passed in."""


class SurgeryNotPlanar(TwodistError):
    """A requested edge addition has no shared face to be drawn into."""


class SurgeryDisconnects(TwodistError):
    """The requested deletions would disconnect the graph."""


class DegreeBudgetExceeded(TwodistError):
    """A reduction's surgery raised the maximum degree, so the smaller
    graph may need more colors (``reductions.reduce_in_place``)."""


class NoApplyInForce(TwodistError):
    """``Embedding.undo`` with no apply in force (none made, or undone)."""


class NotACutVertex(TwodistError):
    """A split was asked for at a vertex whose removal keeps the graph
    connected (``Embedding.smaller_side``)."""


class NoSafeColor(TwodistError):
    """Every palette color is forbidden at a pending vertex.  Indicates a
    wrong forbidden-count bound in the matcher that produced the reduction."""


class PermutationInfeasible(TwodistError):
    """No color permutation can reconcile the two sides of a cut-vertex
    merge.  Cannot happen while the palette has at least 2*Delta+1 colors."""


class BudgetExhausted(TwodistError):
    """The coloring engine could not finish within the color budget."""

    def __init__(self, message, gap=None):
        super().__init__(message)
        self.gap = gap


class InvariantViolated(TwodistError):
    """A library invariant failed: a reduction did not shrink the graph, or
    the initial charges do not total -8.  Points at a bug, not bad input."""


class ParseError(TwodistError):
    """Malformed graph or coloring file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class GenerationFailed(TwodistError):
    """The random generator could not reach the requested minimum maximum
    degree within its retry budget."""
