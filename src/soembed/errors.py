"""Exception types shared across the package."""


class SoEmbedError(Exception):
    """Base class for all library errors."""


class MatrixParseError(SoEmbedError):
    """Base class for matrix text parsing failures; also raised when a
    matrix file cannot be read or parsed."""


class EmptyInputError(MatrixParseError):
    """The input contained no data rows."""


class RaggedRowsError(MatrixParseError):
    """Rows of unequal length."""


class BadCharacterError(MatrixParseError):
    """A character other than 0/1, whitespace, or comment marker."""


class ZeroCodeError(SoEmbedError):
    """Operation undefined for the zero code (rank 0)."""


class IndexOutOfRangeError(SoEmbedError):
    """Column index outside 0 .. 2**k - 1."""


class CapExceededError(SoEmbedError):
    """A guardrail on problem size was hit; the input is refused."""


class WrongDimensionError(SoEmbedError):
    """Input dimension does not match the operation's required dimension."""


class InvalidPolicyError(SoEmbedError):
    """Embedding policy violates its validity condition."""


class RankDeficientError(SoEmbedError):
    """Generator matrix has rank below its row count."""


class DomainError(SoEmbedError):
    """Arguments outside the formula's stated domain."""


class NoSOCodeError(SoEmbedError):
    """No self-orthogonal code with the requested parameters exists."""


class MissingSeedError(SoEmbedError):
    """Seed registry lacks the seed required by a length decomposition.

    Carries the (t, k, so) key that was needed.
    """

    def __init__(self, t: int, k: int, so: bool):
        self.t = t
        self.k = k
        self.so = so
        kind = "self-orthogonal" if so else "linear"
        super().__init__(f"no {kind} seed of length {t} for dimension {k}")
