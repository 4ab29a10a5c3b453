class Mso2ddError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(Mso2ddError):
    pass


class DecompositionError(Mso2ddError):
    pass


class FormulaError(Mso2ddError):
    pass


class DiagramError(Mso2ddError):
    pass


class QueryError(Mso2ddError):
    pass
