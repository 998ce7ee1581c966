"""Exception types shared across the toolkit."""


class AxiomError(ValueError):
    """A table fails the axioms an operation requires; report is the
    table's ValidationReport, with its witnesses."""

    def __init__(self, message: str, report):
        super().__init__(message)
        self.report = report


class ConstructionError(ValueError):
    """Constructor parameters violate a required relation; the message
    names the violated relation."""


class SubcomplexError(ValueError):
    """A claimed subcomplex failed closure or compatibility verification."""


class BudgetExceededError(RuntimeError):
    """A size or search budget was exceeded; no partial results are kept."""

    def __init__(self, message: str, *, limit: int, reached: int):
        super().__init__(message)
        self.limit = limit
        self.reached = reached
