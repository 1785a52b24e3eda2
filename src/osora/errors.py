"""Exception types shared across the package."""


class OsoraError(Exception):
    """Base class for all package errors."""


class RankOutOfRange(OsoraError):
    """Requested rank is zero or exceeds what the matrix shape allows."""


class NonFiniteInput(OsoraError, ValueError):
    """An input tensor contains NaN or Inf entries, or a weight's Frobenius norm overflows.

    The SVD, the residual norm and the row norms of dora and osora_dora run on
    power-of-two rescalings, so any finite weight with a finite norm is taken.
    """


class DimensionMismatch(OsoraError):
    """Operand shapes are incompatible."""


class LengthMismatch(OsoraError):
    """A flat parameter vector has the wrong length."""


class InvalidConfig(OsoraError, ValueError):
    """A setting or argument has the wrong type or an out-of-range value."""


class NonFiniteLoss(OsoraError):
    """Training loss became NaN or Inf, usually a too-large learning rate."""


class IoFailure(OsoraError):
    """Checkpoint file could not be written or read."""


class DigestMismatch(OsoraError):
    """Checkpoint was saved against different base weights."""


class VersionUnsupported(OsoraError):
    """Checkpoint format version is newer than this build understands."""


class CorruptPayload(OsoraError):
    """Checkpoint bytes are truncated or inconsistent with the header."""
