"""Exception hierarchy; the CLI maps these onto exit codes."""


class PromcError(Exception):
    """Base class for all library errors."""


class MalformedError(PromcError):
    """Invalid data: bad payloads, shape mismatches, broken invariants (exit 2)."""


class PreconditionError(PromcError):
    """An operation was called outside its contract (exit 2)."""


class UnsupportedRegimeError(PromcError):
    """The index regime does not support this operation (exit 2)."""


class DepthExhaustedError(PromcError):
    """An omega-regime check could not be settled within the truncation depth."""


class VerificationFailure(PromcError):
    """A property or certificate check failed; carries a witness (exit 1)."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def fail_on(bad, error=VerificationFailure):
    """Raise *error* for the failure (where, why) that a claim predicate
    returned, and nothing for None; a VerificationFailure carries the
    where as its witness."""
    if bad is not None:
        where, why = bad
        raise error(why, witness=where) if error is VerificationFailure \
            else error(why)
