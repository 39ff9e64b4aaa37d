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
    """An input file that does not hold what its format says: the message
    names the file, when given, and the row."""

    def __init__(self, message: str, row: int | None = None, path=None):
        where = f"{path}: " if path is not None else ""
        super().__init__(where + (f"{message} (row {row})" if row is not None else message))
        self.row = row


class LengthMismatch(PsmithError):
    """Sub-question / NatSQL arity disagreement in a decomposition record."""


class NotADatabase(PsmithError):
    pass


class DatabaseMismatch(PsmithError):
    """Train and test share a database, or a report names one train lacks."""


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


class BudgetRefused(PsmithError):
    """Request would push the session past the configured spend cap."""


# --- pipelines ------------------------------------------------------------

class AdaptationFailed(PsmithError):
    def __init__(self, exemplar_id: str, best_ted: int | None, attempts: int):
        super().__init__(
            f"could not adapt exemplar {exemplar_id!r}: "
            f"best tree edit distance {best_ted} after {attempts} attempts"
        )
        self.best_ted = best_ted
        self.attempts = attempts


class EmptyGeneration(PsmithError):
    pass


class UnparseableDecomposition(PsmithError):
    def __init__(self, raw: str):
        super().__init__(f"could not parse sub-question list from: {raw!r}")


class UnparseableSteps(PsmithError):
    def __init__(self, raw: str):
        super().__init__(f"could not parse intermediate steps from: {raw!r}")


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


class CompareTimeout(PsmithError):
    """Comparing two result tables ran past its time bound."""


class MissingGold(PsmithError):
    pass
