"""Exception types shared across the package."""


class OrdspaceError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(OrdspaceError):
    """Malformed input: bad matrix shape, non-surjective levels, parse failure."""


class AxiomViolation(OrdspaceError):
    """A comparison list contradicts the ordinal-space axioms.

    axiom: short identifier of the violated axiom ("i", "iii", "v/vi", "vii").
    witnesses: the input entries that together form the contradiction.
    """

    def __init__(self, axiom, witnesses):
        self.axiom = axiom
        self.witnesses = list(witnesses)
        super().__init__(f"axiom ({axiom}) violated; witnesses: {self.witnesses}")


class UnderdeterminedOrder(OrdspaceError):
    """A comparison list leaves two pair classes incomparable."""

    def __init__(self, class_a, class_b):
        self.class_a = tuple(class_a)
        self.class_b = tuple(class_b)
        super().__init__(
            f"order between pair classes {self.class_a} and {self.class_b} "
            "is not determined by the given comparisons"
        )


class SizeLimitError(OrdspaceError):
    """A combinatorial search guard was exceeded; raise instead of hanging."""

    def __init__(self, what, size, limit):
        self.what = what
        self.size = size
        self.limit = limit
        super().__init__(f"{what}: size {size} exceeds guard limit {limit}")


class SolverError(OrdspaceError):
    """Internal solver failure (iteration cap, broken invariant).

    Deliberately distinct from a negative decision: callers must never
    translate this into "not embeddable".
    """
