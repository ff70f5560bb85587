"""Exception hierarchy.

Every validation error names the violated invariant and carries the measured
deviation (or the offending value) as an attribute, so callers can report
precisely what failed without parsing messages.
"""

from __future__ import annotations


class DecohistError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# operator validation


class DimensionMismatchError(DecohistError):
    """Shapes, dimensions or indices that do not fit together."""


class NotHermitianError(DecohistError):
    def __init__(self, deviation: float):
        self.deviation = deviation
        super().__init__(f"matrix is not Hermitian: max |M - M^dagger| = {deviation:.3e}")


class NotPositiveError(DecohistError):
    def __init__(self, min_eigenvalue: float):
        self.min_eigenvalue = min_eigenvalue
        super().__init__(
            f"matrix is not positive semidefinite: min eigenvalue = {min_eigenvalue:.3e}"
        )


class TraceNotOneError(DecohistError):
    def __init__(self, deviation: float):
        self.deviation = deviation
        super().__init__(f"trace differs from 1 by {deviation:.3e}")


class NotIdempotentError(DecohistError):
    def __init__(self, deviation: float):
        self.deviation = deviation
        super().__init__(f"matrix is not idempotent: max |P^2 - P| = {deviation:.3e}")


class NotUnitaryError(DecohistError):
    message = "matrix is not unitary: max |U^dagger U - I| = {:.3e}"

    def __init__(self, deviation: float):
        self.deviation = deviation
        super().__init__(self.message.format(deviation))


class ReferenceNotIdentityError(NotUnitaryError):
    """The cumulative unitary of a schedule's reference slot is not I."""

    message = "reference slot unitary is not the identity: max |U_ref - I| = {:.3e}"


# ---------------------------------------------------------------------------
# resolutions and outcomes


class NotOrthogonalError(DecohistError):
    def __init__(self, label_a, label_b, deviation: float):
        self.label_a = label_a
        self.label_b = label_b
        self.deviation = deviation
        super().__init__(
            f"projectors for labels {label_a!r} and {label_b!r} are not orthogonal: "
            f"max |P_a P_b| = {deviation:.3e}"
        )


class NotCompleteError(DecohistError):
    def __init__(self, deviation: float):
        self.deviation = deviation
        super().__init__(f"projectors do not sum to the identity: deviation {deviation:.3e}")


class DuplicateLabelError(DecohistError):
    def __init__(self, label):
        self.label = label
        super().__init__(f"duplicate label {label!r} in resolution")


class UnknownLabelError(DecohistError):
    def __init__(self, label):
        self.label = label
        super().__init__(f"label {label!r} not in resolution")


class PartitionNotTotalError(DecohistError):
    """Labels no partition block covers: ``missing`` holds them, or, when
    ``count`` is given, that many are uncovered and ``missing`` holds the
    first of them (at least ten, if there are ten)."""

    def __init__(self, missing, count: int | None = None):
        self.missing = missing
        count = len(missing) if count is None else count
        labels = sorted(missing)[:10]  # the first ten are named, the rest counted
        more = f" and {count - 10} more" if count > 10 else ""
        super().__init__(f"partition does not cover labels {labels!r}{more}")


class PartitionBlockError(DecohistError):
    """A partition block that is malformed, empty, or holds an unknown or taken member."""

    def __init__(self, block, reason: str):
        self.block = block
        self.reason = reason
        super().__init__(f"partition block {block!r}: {reason}")


class ResolutionMismatchError(DecohistError):
    def __init__(self, message: str = "outcomes belong to different resolutions"):
        super().__init__(message)


# ---------------------------------------------------------------------------
# dynamics


class CountMismatchError(DecohistError):
    def __init__(self, expected: int, got: int, what: str = "step unitaries"):
        self.expected = expected
        self.got = got
        super().__init__(f"expected {expected} {what}, got {got}")


class SlotOutOfRangeError(DecohistError):
    def __init__(self, slot, n_slots: int):
        self.slot = slot
        self.n_slots = n_slots
        super().__init__(f"slot {slot} out of range for {n_slots} slots")


# ---------------------------------------------------------------------------
# histories


class InvalidHistoryError(DecohistError):
    """A history, or a value built from one, that breaks the family's rules."""


class FamilyMismatchError(DecohistError):
    def __init__(self, message: str = "histories belong to different families"):
        super().__init__(message)


class FamilyTooLargeError(DecohistError):
    def __init__(self, size: int, cap: int):
        self.size = size
        self.cap = cap
        super().__init__(f"family has {size} fine-grained histories, cap is {cap}")


class ZeroConditionProbabilityError(DecohistError):
    def __init__(self, value: float, threshold: float):
        self.value = value
        self.threshold = threshold
        super().__init__(
            f"condition probability {value:.3e} is below the zero threshold {threshold:.0e}"
        )


# ---------------------------------------------------------------------------
# scenario files


class ScenarioSyntaxError(DecohistError):
    """The scenario text is not valid JSON."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")


class ScenarioValidationError(DecohistError):
    """One or more located validation failures in a scenario document."""

    def __init__(self, errors: list[tuple[str, str]]):
        self.errors = list(errors)
        lines = "; ".join(f"{path}: {message}" for path, message in self.errors)
        super().__init__(lines)


class UnresolvedReferenceError(DecohistError):
    def __init__(self, name: str, kind: str = "name"):
        self.name = name
        self.kind = kind
        super().__init__(f"unresolved {kind} {name!r}")


class UnknownQueryError(DecohistError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"scenario defines no query named {name!r}")
