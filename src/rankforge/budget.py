"""Enumeration budget: a global cap on brute-force loop sizes.

Enumeration-flavored operations refuse to run when the number of objects
they would visit exceeds the budget (default 2**24, overridable through
the RANKFORGE_BUDGET environment variable).
"""

import os

from .errors import BudgetExceededError, InvalidParameterError

DEFAULT_BUDGET = 2 ** 24

_ENV_VAR = "RANKFORGE_BUDGET"


def enumeration_budget() -> int:
    """Current budget: RANKFORGE_BUDGET if set, else the default.

    A value that is not a positive integer is invalid input, not an
    exhausted budget.
    """
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise InvalidParameterError(f"{_ENV_VAR} is not an integer: {raw!r}") from exc
    if value <= 0:
        raise InvalidParameterError(f"{_ENV_VAR} must be positive, got {value}")
    return value


def check_budget(count: int, what: str) -> None:
    """Raise BudgetExceededError when `count` objects exceed the budget."""
    limit = enumeration_budget()
    if count > limit:
        raise BudgetExceededError(
            f"{what} needs {count} steps which exceeds the budget {limit} "
            f"(override with {_ENV_VAR})"
        )
