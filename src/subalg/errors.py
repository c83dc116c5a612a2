"""Exception types shared across the toolkit."""


class ShapeMismatchError(ValueError):
    """Two objects that must share a shape (block structures, matrix sizes) do not."""


class DomainError(ValueError):
    """An argument violates a semantic precondition (e.g. a non-unital embedding)."""


class NumericalInstabilityError(RuntimeError):
    """A decision could not be made reliably at the working tolerance.

    Raised for a rank inside ``_stable_rank``'s band, a meet that lost the
    identity, a probe element moved past its Lipschitz bound, and a given u
    within resolution of the identity; the measured defect (the ambiguous
    singular value, the nullity, the excess or the distance) is attached.
    """

    def __init__(self, message: str, defect: float):
        super().__init__(f"{message} (defect {defect:.3e})")
        self.defect = defect


class SearchExhaustedError(RuntimeError):
    """The staged builder ran out of attempts without finding an irreducible perturbation."""

    def __init__(self, stage: int, dim: int, best_dim: int, tries: int):
        super().__init__(
            f"stage {stage} (dimension {dim}): no irreducible perturbation in "
            f"{tries} tries; smallest joint commutant dimension seen was {best_dim}"
        )
        self.stage = stage
        self.dim = dim
        self.best_dim = best_dim
        self.tries = tries


class ConfigError(ValueError):
    """A CLI configuration failed to parse or validate.

    ``diagnostics`` is a list of (json_pointer, message) pairs; it is empty for
    pure parse errors, whose location is carried in the message itself.
    """

    def __init__(self, message: str, diagnostics=None):
        super().__init__(message)
        self.diagnostics = list(diagnostics or [])
