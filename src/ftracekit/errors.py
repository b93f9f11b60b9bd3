"""Exception and warning types shared across the toolkit."""


class FtraceKitError(Exception):
    """Base class for all toolkit errors."""


class MalformedLine(FtraceKitError):
    def __init__(self, message, lineno=None, column=None):
        super().__init__(message)
        self.lineno = lineno
        self.column = column


class NestingError(FtraceKitError):
    pass


class EmptyCorpus(FtraceKitError):
    pass


class NegativeFeature(FtraceKitError):
    pass


class SingleClass(FtraceKitError):
    pass


class KTooLarge(FtraceKitError):
    pass


class EmptyData(FtraceKitError):
    pass


class WidthMismatch(FtraceKitError):
    pass


class ClassTooSmall(FtraceKitError):
    pass


class EmptyGrid(FtraceKitError):
    pass


class EmptyGroup(FtraceKitError):
    pass


class WorkerFailed(FtraceKitError):
    """A worker process ended, or sent what cannot be read, before all
    its results arrived."""


class NonConvergenceWarning(UserWarning):
    """Power iteration hit its iteration cap; values are returned anyway."""


class PValueClampWarning(UserWarning):
    """A p-value underflowed and was clamped to the smallest positive float."""
