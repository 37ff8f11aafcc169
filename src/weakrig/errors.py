"""Exception hierarchy shared across the package."""


class WeakRigError(Exception):
    """Base class for all errors raised by this package."""


class SelfLoop(WeakRigError):
    """An edge connects a vertex to itself."""


class DuplicateConstraint(WeakRigError):
    """An edge or angle triple appears more than once."""


class IndexOutOfRange(WeakRigError):
    """A vertex index is negative or >= the vertex count."""


class DegenerateAngleTriple(WeakRigError):
    """An angle triple repeats a vertex."""


class CollocatedPoints(WeakRigError):
    """Two positions coincide within the collocation tolerance."""


class EmptyEdgeSet(WeakRigError):
    """The framework has no constraints at all: no edge and no angle."""


class DegenerateConfiguration(WeakRigError):
    """All vertices are collinear, so the rigid motions lose their rank."""


class TargetMismatch(WeakRigError):
    """Targets do not cover the framework's constraints one-to-one, in order."""


class WrongTopology(WeakRigError):
    """The framework is not the canonical three-agent topology."""


class BadAnchor(WeakRigError):
    """Extension anchors are invalid (repeated or out of range)."""


class CollinearPlacement(WeakRigError):
    """A new vertex placement makes an added angle degenerate."""


class EdgeNotFound(WeakRigError):
    """The edge to remove is not in the graph."""


class SeedNotRigid(WeakRigError):
    """The growth seed is not minimally (weakly) rigid."""


class PlacementExhausted(WeakRigError):
    """Rejection sampling failed to find an acceptable extension."""


class ParseError(WeakRigError):
    """An input file is malformed; the message carries a diagnostic."""


class WriteError(WeakRigError):
    """An output file cannot be written; the message names the path."""
