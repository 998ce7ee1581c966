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
    """The arguments of degenerate_subcomplex or quandle_quotient_complex do
    not fit together: a complex of the wrong variant, of another rack, or
    of another top degree or basis.  A subcomplex that fails its closure
    check raises AssertionError, as the other certificates do."""


class BudgetExceededError(RuntimeError):
    """A size or search budget was exceeded; no partial results are kept."""

    def __init__(self, message: str, *, limit: int, reached: int):
        super().__init__(message)
        self.limit = limit
        self.reached = reached
