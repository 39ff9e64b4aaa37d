"""Exception hierarchy shared across the toolkit."""

from __future__ import annotations


class PsmithError(Exception):
    """Base class for all toolkit errors."""


# --- SQL analysis ---------------------------------------------------------

class ParseError(PsmithError):
    """SQL text could not be parsed. Callers decide skip-vs-abort."""


# --- corpus loading -------------------------------------------------------

class MissingFile(PsmithError):
    pass


class MalformedManifest(PsmithError):
    def __init__(self, message: str, row: int | None = None):
        super().__init__(f"{message} (row {row})" if row is not None else message)
        self.row = row


class LengthMismatch(PsmithError):
    """Sub-question / NatSQL arity disagreement in a decomposition record."""


class NotADatabase(PsmithError):
    pass


# --- sampling -------------------------------------------------------------

class BudgetExceeded(PsmithError):
    pass


# --- prompt rendering -----------------------------------------------------

class MissingProfile(PsmithError):
    """Domain rendering requested for a schema without value profiles."""


# --- LLM client -----------------------------------------------------------

class TransportError(PsmithError):
    """Network-level failure after bounded retries."""


class RateLimited(TransportError):
    pass


class ReplayMiss(PsmithError):
    def __init__(self, key: str):
        super().__init__(f"no replay record for request key {key}")
        self.key = key


class BudgetRefused(PsmithError):
    """Request would push the session past the configured spend cap."""


# --- pipelines ------------------------------------------------------------

class AdaptationFailed(PsmithError):
    def __init__(self, exemplar_id: str, best_ted: int | None, attempts: int):
        super().__init__(
            f"could not adapt exemplar {exemplar_id!r}: "
            f"best tree edit distance {best_ted} after {attempts} attempts"
        )
        self.exemplar_id = exemplar_id
        self.best_ted = best_ted
        self.attempts = attempts


class EmptyGeneration(PsmithError):
    pass


class UnparseableDecomposition(PsmithError):
    def __init__(self, raw: str):
        super().__init__(f"could not parse sub-question list from: {raw!r}")
        self.raw = raw


class UnparseableSteps(PsmithError):
    def __init__(self, raw: str):
        super().__init__(f"could not parse intermediate steps from: {raw!r}")
        self.raw = raw


class ArityMismatch(PsmithError):
    pass


class MissingAdaptation(PsmithError):
    pass


class NoSelectFound(PsmithError):
    pass


# --- evaluation -----------------------------------------------------------

class SqlError(PsmithError):
    pass


class SqlTimeout(SqlError):
    pass


class SqlRejected(SqlError):
    """Statement refused before execution (not a single read-only SELECT)."""


class MissingGold(PsmithError):
    pass
