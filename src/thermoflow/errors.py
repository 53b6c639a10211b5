"""Exception types shared across the library."""


class ThermoflowError(Exception):
    pass


class EmptyRowOrColumn(ThermoflowError):
    """A symbol of the transition matrix has no successor or no predecessor."""


class NotMixing(ThermoflowError):
    """Operation requires a topologically mixing shift."""


class CapacityExceeded(ThermoflowError):
    """An enumeration would exceed the configured word budget."""


class WordTooShort(ThermoflowError):
    pass


class DepthMismatch(ThermoflowError):
    pass


class NoConvergence(ThermoflowError):
    def __init__(self, max_iter, residual=None):
        self.max_iter = max_iter
        self.residual = residual
        super().__init__(f"no convergence after {max_iter} iterations (residual={residual})")


class NonPositiveEigenfunction(ThermoflowError):
    pass


class NotNormalized(ThermoflowError):
    """Potential does not satisfy the transfer-operator row-sum normalization."""


class NotMeanZero(ThermoflowError):
    def __init__(self, mean):
        self.mean = mean
        super().__init__(f"function is not mean zero (integral={mean})")


class HypothesisViolated(ThermoflowError):
    """A derivative formula was invoked with its vanishing hypothesis broken."""

    def __init__(self, what, value):
        self.what = what
        self.value = value
        super().__init__(f"{what} = {value} violates the vanishing hypothesis")


class DegenerateDenominator(ThermoflowError):
    pass


class BracketingFailed(ThermoflowError):
    pass


class StepTooLarge(ThermoflowError):
    def __init__(self, estimate, tol):
        self.estimate = estimate
        self.tol = tol
        super().__init__(f"integrator error estimate {estimate:.3e} exceeds tolerance {tol:.3e}")


class DegenerateSpectrum(ThermoflowError):
    pass


class UnsupportedCoupling(ThermoflowError):
    pass


class UnsupportedCase(ThermoflowError):
    pass


class DegreeMismatch(ThermoflowError):
    pass


class ConfigError(ThermoflowError):
    pass
