"""Exception types shared across the package."""


class PmfgError(Exception):
    """Base class for all errors raised by this package."""


class InputError(PmfgError):
    """Caller supplied data that violates a documented precondition."""


class StructuralError(PmfgError):
    """A graph or embedding is malformed (asymmetric rotation, wrong genus, ...)."""


class OperationError(PmfgError):
    """An operation was applied to a configuration where it is undefined."""


class FlipForbiddenError(OperationError):
    """Diagonal flip rejected: the replacement edge is already present."""


class CeilingError(InputError):
    """A size ceiling that keeps a verifier or an enumeration tractable was exceeded."""


class VerificationFailure(PmfgError):
    """A verification found a counterexample: to an identity a campaign
    claims, or to an answer the Kuratowski oracle could not certify.

    ``trace`` holds, when known, the operations that rebuild the offending
    triangulation from K4 through ``pmfg.generator.apply_trace``.
    """

    trace: tuple = ()
