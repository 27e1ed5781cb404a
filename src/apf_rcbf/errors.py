"""Exception types shared across the package."""

from __future__ import annotations


class ApfRcbfError(Exception):
    """Base class for all package-specific errors."""


class ScenarioValidationError(ApfRcbfError, ValueError):
    """A scenario violates one or more of its invariants.

    ``violations`` lists every failed invariant by name so callers can report
    all problems at once instead of fixing them one at a time.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid scenario: " + "; ".join(self.violations))


# the message of every InsideObstacleError the package raises
INSIDE_OBSTACLE_MSG = "inside obstacle: repulsive potential undefined"


class InsideObstacleError(ApfRcbfError, ValueError):
    """Evaluation requested at a point on or inside an obstacle.

    The repulsive potential and everything built on it are only defined
    strictly outside the obstacle (positive clearance).
    """


class NegativeGammaError(ApfRcbfError, ValueError):
    """A tightening selector evaluated to a negative value.

    The tightened barrier condition requires the tightening term to be
    nonnegative wherever the filter is applied.
    """


class InfeasibleConstraintError(ApfRcbfError, ValueError):
    """The half-space constraint admits no control at the current state."""


class ConfigError(ApfRcbfError, ValueError):
    """A run/verify configuration file is malformed or incomplete."""
