"""Exception types shared across the package."""


class InfeasibleError(RuntimeError):
    """
    No excitation correction satisfying the pattern constraint was found.

    certified is True when the failure is proven (a dual certificate, or an
    exact check with nothing left to solve for), False when the solve found
    neither a point meeting the bound nor a proof. A certified failure
    carries its proof: weights, the certificate's weights on the whole
    region's samples, summing to 1 (None on the exact check, which needs
    none).
    """

    def __init__(self, message: str = "", certified: bool = False, weights=None):
        super().__init__(message)
        self.certified = certified
        self.weights = weights


class NumericalFailureError(RuntimeError):
    """The cone IPM left the constraint violated: its answer misses the toleranced target on the region."""


class BudgetExceededError(RuntimeError):
    """An enumeration hit its budget of supports before finishing."""


class DegenerateBroadsideError(ValueError):
    """The pattern is exactly zero at broadside, so levels cannot be normalized."""


class NoMainlobeError(ValueError):
    """The normalized pattern (0 dB at broadside) has no mainlobe above the threshold."""

