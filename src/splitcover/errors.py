"""Every failure that splitcover raises on purpose, in one tree. Each class
carries the command line's exit code and the label that starts its stderr
line; a plain ValueError is a library function called wrongly."""

from __future__ import annotations


class SplitcoverError(RuntimeError):
    """A deliberate failure; raised only through a subclass."""

    exit_code: int
    label: str


class InputError(SplitcoverError, ValueError):
    """The input is malformed, or asks for what the program cannot build."""

    exit_code = 4
    label = "input error"


class GeometryError(InputError):
    """A requested geometric construction is infeasible."""


class ClosureLimitError(InputError):
    """Materializing a generated subgroup would exceed CLOSURE_LIMIT elements."""


class SynthesisUnsupported(InputError):
    """No exact construction is available for the requested group shape."""

    label = "unsupported group"


class VerificationError(SplitcoverError):
    """A run finished but did not verify; report is the pipeline's, if any."""

    exit_code = 2
    label = "verification failure"

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class NoSolutionError(VerificationError):
    """The embedding problem has no solution without extending the base."""

    label = "no solution"


class NumericalError(SplitcoverError):
    """A float computation could not be certified. row is the first failing
    fiber of a stacked root solve (0 for one fiber); a tracking failure
    also gives its loop, 1-based, and t, the arclength fraction along it."""

    exit_code = 3
    label = "numerical instability"

    def __init__(self, message: str, row: int = 0, *,
                 loop: int | None = None, t: float | None = None):
        super().__init__(message)
        self.row, self.loop, self.t = row, loop, t


class MultipleRootError(NumericalError):
    """The solved roots' enclosures overlap: they are not proved distinct."""


class RootFindingError(NumericalError):
    """The root iteration did not converge, or a fiber's values overflow a float."""


class StepUnderflowError(NumericalError):
    """No step above _MIN_STEP could be certified, or a loop vertex's fiber
    could not be solved or certified: the loop runs near the discriminant locus."""


class FiberMatchError(NumericalError):
    """Roots could not be matched one to one: a segment's end roots to the
    fiber at its end vertex, or the basepoint's roots to given labels."""
