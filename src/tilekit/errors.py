"""Exception types shared across the package.

Every failure tilekit raises has one of two meanings.  InputContractError
(a ValueError) and its subclasses say the input breaks a documented
precondition; the CLI reports them with exit code 2, or 1 when a document
cannot be built.  InternalError says a result the theory guarantees failed
its check, which is a bug in tilekit; the CLI reports it, like any other
unexpected exception, with exit code 4.
"""


class TilekitError(Exception):
    """Base class for all package-specific errors."""


class InputContractError(TilekitError, ValueError):
    """Input violates a documented precondition."""


class InternalError(TilekitError):
    """A postcondition that the theory guarantees failed; indicates a bug."""


class RankDeficientError(InputContractError):
    """Operation requires a full-rank lattice."""


class NotIndependentError(InputContractError):
    """Tile tuple fails the independence precondition."""

    def __init__(self, witness=None):
        super().__init__(f"tuple is not independent (witness: {witness})")
        self.witness = witness


class WrongArityError(InputContractError):
    """Tile tuple has the wrong length for this operation."""


class NotACotileError(InputContractError):
    """The given set or function does not solve the tiling equations."""


class NonIntegerValuesError(InputContractError):
    """Operation requires an integer-valued function."""


class PreconditionUnverifiedError(InputContractError):
    """The stated convolution identity does not hold, so the check is meaningless."""


class NotAPartitionError(InputContractError):
    """Pieces do not form a partition of Z^d."""


class NotPrimeError(InputContractError):
    """Torsion operations support prime moduli only."""


class EmptyOrFullError(InputContractError):
    """The empty set and the full cyclic group are not invertible."""


class OutOfLatticeError(InputContractError):
    """A translation vector lies outside the required subgroup."""


class TrivialTileError(InputContractError):
    """The tile {0} admits no companion construction."""


class NotATilingError(InputContractError):
    """The given pair (tile, set) is not a tiling."""


class PropertyStarRequiredError(InputContractError):
    """Operation requires a tuple with the span-uniqueness property."""


class NoCycleError(InputContractError):
    """The block graph has no cycle; impossible unless the input contract was violated."""
