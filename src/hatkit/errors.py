"""Exception types shared by all hatkit modules."""


class HatError(Exception):
    """Base class for every error raised by hatkit."""


# graph construction and serialization

class LoopEdge(HatError):
    pass


class DuplicateEdge(HatError):
    pass


class VertexOutOfRange(HatError):
    pass


class MalformedGraph6(HatError):
    pass


class EmptyEdgeSet(HatError):
    pass


class MalformedCensus(HatError):
    """A census JSON file is not a list of entry objects with distinct
    string names, a string graph6 and an optional expected object, or an
    entry's graph6 string does not parse."""


# permutations and groups

class DegreeMismatch(HatError):
    pass


class NotInvariant(HatError):
    """A block list is not permuted by the group, or a block is moved by
    an element that must fix it."""


class OrderBoundExceeded(HatError):
    """A stabiliser chain built under a proven order bound grew past it:
    the bound, or the proof behind it, is wrong.  Carries both numbers."""

    def __init__(self, bound, product):
        super().__init__(bound, product)
        self.bound = bound
        self.product = product

    def __str__(self):
        return (f"product of basic orbit lengths {self.product} exceeds "
                f"the proven order bound {self.bound}")


# automorphism engine

class TooLarge(HatError):
    pass


class NotAutomorphisms(HatError):
    """A supplied group contains a generator that is not a graph automorphism."""


# alternating-cycle analysis

class NotTetravalent(HatError):
    pass


class NotHalfArcTransitive(HatError):
    pass


class OrientationInvalid(HatError):
    pass


class StructureViolation(HatError):
    """An alternating-cycle invariant failed; the orientation was not
    induced by a half-arc-transitive action (or the engine has a bug)."""


class TightlyAttached(HatError):
    """Fewer than three alternating cycles: the attachment number equals
    twice the radius and the graph of alternating cycles is degenerate."""


class OddAttachment(HatError):
    pass


class AntipodeMismatch(HatError):
    """The two antipodes of some vertex disagree across its two cycles."""


class DivisibilityRuleViolation(HatError):
    """A genuinely half-arc-transitive graph with odd radius whose
    attachment number does not divide the radius.  Unreachable for correct
    input; raised so an engine bug cannot slip through silently."""


# constructions

class NotCubic(HatError):
    pass


class NotConnected(HatError):
    pass


class Not2ArcTransitive(HatError):
    pass


class WrongParameters(HatError):
    """Radius/attachment pair is not the (3, 2) the construction needs."""


class TooSmall(HatError):
    pass


# covers

class FixedPoint(HatError):
    pass


class OrbitNotIndependent(HatError):
    pass


class DegenerateWreath(HatError):
    """Two adjacent involution orbits induce K_{2,2}; the graph is a wreath
    of a cycle over two vertices.  Carries the offending orbit pair."""

    def __init__(self, message, pair=None, orbits=None):
        super().__init__(message)
        self.pair = pair
        self.orbits = orbits


class NotCentralizing(HatError):
    pass


class NotInvolution(HatError, ValueError):
    """A permutation that must be an involution squares to something other
    than the identity.  Also a ValueError, so callers that catch
    ValueError from quotient_by_tau keep working."""


class TauInG(HatError):
    pass


class OrderTooSmall(HatError):
    pass
