"""Exception types shared across modules."""

from __future__ import annotations


class BudgetExceededError(RuntimeError):
    """A construction would exceed the configured point or node budget.

    Carries the estimate so callers can decide whether to retry with a
    larger budget.  A diamond guard's estimate is the exact point count,
    or, for a stage far past the budget, a lower bound on it that still
    exceeds the budget; the message then says "at least".
    """

    def __init__(self, message: str, estimate: int | None = None,
                 budget: int | None = None):
        super().__init__(message)
        self.estimate = estimate
        self.budget = budget


class InsufficientBranchingError(RuntimeError):
    """No qualifying branch pair exists at the current truncation width.

    ``branches`` is the width that was searched, ``retry_hint`` the smallest
    width worth rebuilding with.
    """

    def __init__(self, message: str, branches: int, retry_hint: int):
        super().__init__(message)
        self.branches = branches
        self.retry_hint = retry_hint


class CertificateError(ValueError):
    """An optimality or feasibility certificate failed re-verification."""


class FormatError(ValueError):
    """A serialized artifact does not follow its file format."""
