"""Exception types shared across the library.

Every class is, or derives from, one base per CLI exit code: SpecError (2),
TooLarge (3) or NumericalFailure (4).
"""


class NumericalFailure(Exception):
    """A phase, root or feasibility precondition failed.  Each subclass keeps a
    ValueError or RuntimeError base too, so a spec reader that turns
    ValueError into SpecError still reports a bad kT or q as a spec error."""


class DegenerateFunction(NumericalFailure, ValueError):
    """Too few finite samples to carry out the requested construction."""


class EdgeDerivative(NumericalFailure, ValueError):
    """Derivative requested at or outside the edge of the finite support."""


class InvalidTemperature(NumericalFailure, ValueError):
    """kT must be strictly positive."""


class OutOfRange(NumericalFailure, ValueError):
    """Parameter outside its admissible open interval."""


class IncompatibleSupport(NumericalFailure, ValueError):
    """An output with positive probability has no compatible input letter."""


class PhaseMismatch(NumericalFailure, RuntimeError):
    """Operation only defined in the paramagnetic phase."""


class TooLarge(RuntimeError):
    """Requested enumeration exceeds the configured budget."""


class ImpossibleOutput(NumericalFailure, ValueError):
    """Channel output has zero likelihood under every message."""


class InfeasibleRate(NumericalFailure, ValueError):
    """No input distribution meets the rate constraint."""


class NotAboveCapacity(NumericalFailure, ValueError):
    """Code rate does not exceed the eavesdropper channel capacity."""


class SpecError(ValueError):
    """Malformed system description; carries the offending field name."""

    def __init__(self, field: str, message: str = ""):
        self.field = field
        detail = f": {message}" if message else ""
        super().__init__(f"spec field '{field}'{detail}")


class BoundarySolution(NumericalFailure, RuntimeError):
    """Equilibrium slope equation has no interior root.

    The supremum is attained at an endpoint of the feasible interval;
    `endpoint` says which one ("lower" or "upper") and `epsilon` where.
    """

    def __init__(self, endpoint: str, epsilon: float):
        self.endpoint = endpoint
        self.epsilon = epsilon
        super().__init__(f"equilibrium attained at {endpoint} boundary eps={epsilon:.6g}")
