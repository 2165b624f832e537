"""Exception hierarchy shared by all alglab modules."""


class AlgLabError(Exception):
    """Base class for all errors raised by this package."""


class InputError(AlgLabError, ValueError):
    """Malformed or out-of-contract input (bad dimensions, nonprime modulus, ...)."""


WORK_BUDGET = 1_000_000  # steps of about 1 µs that one call may take


def check_work(steps: int, what: str) -> None:
    """Refuse (InputError, exit 2) work estimated at more than WORK_BUDGET steps.
    An estimate past 2^4096 is shown by its leading power of two."""
    if steps > WORK_BUDGET:
        bits = steps.bit_length()
        shown = f"{steps:,}" if bits <= 4096 else f"over 2^{bits - 1}"
        raise InputError(f"{what} is too large: estimate {shown} steps, budget {WORK_BUDGET:,}")


class FormatError(InputError):
    """Invalid algebra file; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class ParseError(InputError):
    """Bracket-expression syntax error; carries the character position."""

    def __init__(self, position: int, message: str):
        self.position = position
        super().__init__(f"position {position}: {message}")


class HypothesisError(AlgLabError):
    """A verification was requested on an input that fails its hypotheses.

    Distinct from a genuine violation: a falsified hypothesis means the
    statement under test says nothing about this input.
    """


class UnsupportedFieldError(InputError):
    """The prime field lacks the required root of unity (n does not divide p-1)."""


class DiagonalizationError(AlgLabError):
    """An automorphism expected to be diagonalizable is not (eigenspaces do not fill the space)."""


class InternalInvariantError(AlgLabError):
    """A certified mathematical bound failed; indicates a bug (or a falsified theorem)."""
