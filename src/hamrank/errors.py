"""Exception types shared across the package."""


class HamrankError(Exception):
    """Base class for all package-specific failures."""


class InputError(HamrankError, ValueError):
    """An input document or argument is malformed or outside the domain."""


class NonSquareError(HamrankError):
    """A square matrix was required (determinant, minor embedding)."""


class SizeMismatchError(HamrankError):
    """Index sets or shapes disagree where they must match."""


class BudgetExceededError(HamrankError):
    """An exactness budget (bit size, dimension, pair count) was exceeded.

    Budgets exist so that desk-scale verification either finishes exactly
    or aborts loudly; there is no degraded mode.
    """


class RetriesExhaustedError(HamrankError):
    """A randomized fitting loop ran out of retries.

    Carries enough context to diagnose the failure: the family member that
    refused to verify and the achieved vs. required rank on it.
    """

    def __init__(self, message, *, member=None, achieved=None, required=None):
        super().__init__(message)
        self.member = member
        self.achieved = achieved
        self.required = required


class PatternViolationError(HamrankError):
    """A claimed combinatorial certificate (identity submatrix) does not hold;
    ``violation_count`` is how many of its cells failed, where counted."""

    def __init__(self, message, *, violation_count=None):
        super().__init__(message)
        self.violation_count = violation_count


class ZeroValueError(HamrankError):
    """A structured sign value evaluated to exactly zero.

    Signals a dominance-constant or construction bug: verified
    representations never take the value 0 on their domain.
    """


class InconsistentFingerprintError(HamrankError):
    """No multiset matches the given capped-sum fingerprint."""
