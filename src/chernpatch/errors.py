"""Shared exception types."""


class ChernpatchError(Exception):
    pass


class ConditionViolation(ChernpatchError):
    """A classification condition failed.

    `conditions` lists the indices of the violated conditions (1-based),
    `residuals` the matching numeric residuals.
    """

    def __init__(self, conditions, residuals):
        self.conditions = list(conditions)
        self.residuals = list(residuals)
        super().__init__(f"violated condition(s) {self.conditions}, "
                         f"residuals {self.residuals}")


class PreconditionFailed(ChernpatchError):
    pass


class DecompositionError(ChernpatchError):
    """Matrix not in the expected cell / factorization numerically invalid."""
