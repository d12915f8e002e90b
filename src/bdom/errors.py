"""Exception hierarchy for the package.

The grouping mirrors how the CLI maps failures to exit codes: malformed
input (2), infeasible parameters (3), and guard violations on the
deliberately bounded exact searches (4).
"""


class BdomError(Exception):
    """Base class for all package-specific errors."""


class ParseError(BdomError):
    """Malformed input: .ug/.dg/.pat text or parameter values."""


class InvalidParams(ParseError):
    """t or r below 1."""


class GraphConstructionError(BdomError):
    """Invalid graph or digraph description."""


class InvalidVertex(GraphConstructionError):
    pass


class LoopEdge(GraphConstructionError):
    pass


class DuplicateEdge(GraphConstructionError):
    pass


class LengthMismatch(GraphConstructionError):
    """Orientation bit-vector length does not match the edge count."""


class InfeasibleParams(BdomError):
    """r > t: outside the model's domain r <= t, in which the whole
    vertex set always dominates (each vertex gives itself t >= r).

    Some digraphs do have dominating sets for r > t (both towers of the
    doubly directed K2 at (2, 3) receive 3), but the model, and so
    Params, excludes these pairs.
    """


class GuardError(BdomError):
    """An exact search was asked to exceed its size guard."""


class TooLarge(GuardError):
    pass


class TooManyEdges(GuardError):
    pass


class InvalidDims(GuardError):
    pass


class OutOfFormulaDomain(GuardError):
    """Closed-form value requested outside the range the formula covers."""


class OutOfRange(GuardError):
    pass


class NotAMultiple(GuardError):
    """Torus dimensions must be multiples of the pattern period."""


class DegenerateTorus(GuardError):
    """Tori below 3x3 collapse wrap-around neighbors into parallel arcs."""
