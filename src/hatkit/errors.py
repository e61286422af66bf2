"""Exception types shared by all hatkit modules, and check, which makes
the named theorem checks."""


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


class NotPermutation(HatError, ValueError):
    """A tuple that must be a permutation of 0..n-1 has an image out of
    that range or a repeated one.  Also a ValueError, so callers that
    catch ValueError from check_perm keep working."""


class InvalidArgument(HatError, ValueError):
    """An argument that schreier_sims cannot take: a base that repeats a
    point, or an empty generating set without its degree.  Also a
    ValueError, so callers that catch ValueError keep working."""


class NotInvariant(HatError):
    """A block list is not permuted by the group, or a block is moved by
    an element that must fix it."""


class OrderBoundExceeded(HatError):
    """A stabiliser chain built under a proven order bound grew past it:
    the bound, or the proof behind it, is wrong.  Carries both numbers
    and, as group, the partial chain the build stopped at: each of its
    basic orbits is the orbit of its base point under a subgroup of that
    point's stabiliser."""

    def __init__(self, bound, product, group=None):
        super().__init__(bound, product)
        self.bound = bound
        self.product = product
        self.group = group

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
    """An invariant that a construction or the automorphism search
    guarantees failed: an alternating-cycle invariant of an orientation
    no half-arc-transitive action induces, a constructed map that is no
    isomorphism, or (only through an engine bug) a search result that is
    no automorphism.  The message is "check: witness"; check and witness
    read its two parts."""

    @property
    def check(self):
        return str(self).partition(": ")[0]

    @property
    def witness(self):
        return str(self).partition(": ")[2]


def check(passed, name, ok, witness):
    """One named theorem check: unless ok, raise StructureViolation
    "name: witness"; otherwise append (name, witness) to the list passed.
    A check that compares a value passes that value as its witness; one
    that searches for a counterexample passes "" when it found none."""
    if not ok:
        raise StructureViolation(f"{name}: {witness}")
    passed.append((name, witness))


def check_fault(name, fault):
    """Raise StructureViolation "name: fault" unless the fault text is
    empty: the raise of a check whose witness comes from a *_fault
    function, such as graphs.isomorphism_fault."""
    if fault:
        raise StructureViolation(f"{name}: {fault}")


class OddAttachment(HatError):
    pass


class AntipodeMismatch(HatError):
    """The two antipodes of some vertex disagree across its two cycles."""


# constructions

class NotCubic(HatError):
    pass


class NotConnected(HatError):
    pass


class Not2ArcTransitive(HatError):
    pass


class WrongParameters(HatError):
    """Parameters a construction does not take: a radius/attachment pair
    other than (3, 2), or a PGL(2, p) prime p that is not 3 (mod 4)."""


class TooSmall(HatError):
    pass


# covers

class FixedPoint(HatError):
    pass


class OrbitNotIndependent(HatError):
    pass


class DegenerateWreath(HatError):
    """The graph is the wreath C_r[2K1] of an r-cycle over two vertices,
    and the construction at hand degenerates: either two adjacent
    involution orbits induce K_{2,2} (quotient_by_tau; carries the
    offending orbit pair), or there are fewer than three alternating
    cycles, the attachment number being twice the radius (alt_graph;
    pair and orbits are None)."""

    def __init__(self, message, pair=None, orbits=None):
        super().__init__(message)
        self.pair = pair
        self.orbits = orbits


class OrbitPairNotMatching(HatError, ValueError):
    """Two involution orbits are joined by a number of edges other than
    the 2 of a perfect matching or the 4 of K_{2,2}; an involutory
    automorphism joins them by an even number.  Also a ValueError, so
    callers that catch ValueError from quotient_by_tau keep working."""


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
