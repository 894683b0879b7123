"""Exception types shared across the library."""


class LpxError(Exception):
    """Base class for all library errors."""


class DualRangeTooSmall(LpxError):
    """Frequency grid does not reach the band required by a kernel."""


class DegenerateKernel(LpxError):
    """Kernel admits no usable reproducing companion."""


class BandCoverageError(LpxError):
    """Input spectrum has mass on frequencies the scale range does not cover."""


class LambdaTooSmall(LpxError):
    """Weighted square function requires lambda > 1."""


class NotInAInfty(LpxError):
    """No stable Muckenhoupt exponent found below the search cap."""


class ConeOverflow(LpxError):
    """Widest requested cone does not fit inside the concentration box."""


class NumericFailure(LpxError):
    """A finite input produced a non-finite result (floating-point overflow)."""
