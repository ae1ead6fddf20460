"""Exception types shared across the toolkit, each with the exit code of ``analyze``."""


class TextlawsError(Exception):
    """Base class for all errors raised by textlaws."""

    exit_code = 1


class ValidationError(TextlawsError):
    """An input value violates a documented precondition."""


class DomainError(TextlawsError):
    """A numeric argument lies outside a function's mathematical domain."""


class MissingTextError(TextlawsError):
    """The required input text is not configured or does not exist."""

    exit_code = 2


class ResourceFormatError(TextlawsError):
    """An input file is malformed; carries the path and line number."""

    exit_code = 3

    def __init__(self, path, line_no, message):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{self.path}:{line_no}: {message}")
