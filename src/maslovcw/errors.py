"""Exception hierarchy shared by all modules."""


class MaslovCWError(Exception):
    """Base class for all library errors."""


class InvalidParameter(MaslovCWError, ValueError):
    """A numeric parameter lies outside its valid range."""


class SingularInput(MaslovCWError):
    """Matrix too far from invertible for the requested factorization."""


class DegenerateSpectrum(MaslovCWError):
    """Joint diagonalization failed for every deterministic shift."""


class RankMismatch(MaslovCWError):
    """Operands carry different ranks."""


class NotTransverse(MaslovCWError):
    """Lagrangian pair intersects nontrivially where transversality is required."""


class Undersampled(MaslovCWError):
    """Sampled data varies too fast for the phase-unwrap or derivative guard."""


class ZeroSample(MaslovCWError):
    """A winding-number input touches zero."""


class UnknownName(MaslovCWError):
    """No built-in object registered under the requested name."""


class Unrefined(MaslovCWError):
    """The mesh cannot resolve the connection; refine it.

    A per-face curvature angle exceeds the branch guard, the rim chords
    reach inside a collar's plateau, or the raw index lies too far from
    its rounding to name a multiple of the quantum.
    """


class NonUnitaryConnection(MaslovCWError):
    """Connection form is not skew-Hermitian and was not tagged as such."""


class ViolatedIdentity(MaslovCWError):
    """A numerical identity check failed; carries full diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
