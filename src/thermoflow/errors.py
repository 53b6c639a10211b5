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
    """An eigensolver stopped before converging, or a dense solve or inverse failed."""


class NonPositiveEigenfunction(ThermoflowError):
    pass


class PotentialOverflow(ThermoflowError):
    """A potential value is too large for e^w to be a float, or so negative that
    e^w is zero."""


class NonFiniteValue(ThermoflowError):
    """A sampled connection, a forcing, a trace integrand or an RK4 propagator has
    an infinite or NaN entry, as a huge sampler coefficient makes it."""


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
