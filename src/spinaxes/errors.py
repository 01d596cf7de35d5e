"""Exception types shared across the package."""


class DomainError(ValueError):
    """Invalid quantum numbers, ranks, or parameter ranges."""


class ValidationError(ValueError):
    """Input data violates a structural invariant (finiteness, hermiticity, trace, conjugation symmetry).

    ``index`` is the position of the failing item when the error comes from a
    batch call such as :func:`spinaxes.axes.decompose_many`, else ``None``.
    """

    index = None


class DecompositionError(RuntimeError):
    """Numerical inconsistency while extracting axes or scale factors.

    ``rank`` is the rank k that failed and ``stage`` the step that failed:
    ``"roots"``, ``"pairing"``, ``"scale"`` or ``"residual"``. ``index`` is the
    position of the failing item in a batch call such as
    :func:`spinaxes.axes.decompose_many`; the single-item stages ``solve_axes``,
    ``pair_and_canonicalize`` and ``scalar_r`` treat their input as a stack of
    one and report 0. Each is ``None`` where not known.
    """

    def __init__(self, message: str, *, rank: int | None = None, stage: str | None = None,
                 index: int | None = None):
        super().__init__(message)
        self.rank = rank
        self.stage = stage
        self.index = index


class StateFileError(ValueError):
    """Unparseable or inconsistent state file.

    Carries the 1-based line number of the offending line when one is known.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
