class PalinwidthError(Exception):
    """Base class for all library errors."""


class AlphabetMismatch(PalinwidthError):
    """Words over different alphabets were mixed."""


class WordSyntaxError(PalinwidthError):
    def __init__(self, message: str, column: int | None = None):
        if column is not None:
            message = f"{message} (column {column})"
        super().__init__(message)
        self.column = column


class NotAPalindrome(PalinwidthError):
    pass


class GroupDefinitionError(PalinwidthError):
    pass


class NotGenerated(PalinwidthError):
    """The given move set does not reach every element."""


class NotAbelian(PalinwidthError):
    pass


class NotInDerivedSubgroup(PalinwidthError):
    """Word has a nonzero exponent sum."""


class AbelianGroup(PalinwidthError):
    """No reversal-asymmetric relation can exist."""


class InvalidWitness(PalinwidthError):
    pass


class ReverseNotTrivial(PalinwidthError):
    """The reversed carrier word did not evaluate to the identity."""


class ClaimMismatch(PalinwidthError):
    """A report's factor count disagrees with its factors or exceeds its bound."""


class NoValidShift(PalinwidthError):
    pass


class NoInfiniteOrderGenerator(PalinwidthError):
    pass
