"""Shared exception hierarchy for the repro package.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch one base class at the library boundary.  The hierarchy
mirrors the package layout: XML parsing, DTD handling, the relational
engine, the XADT, and the mapping algorithms each get their own branch.

Orthogonal to the subsystem branches, every concrete error is classified
for the retry layer (DESIGN.md §9):

* :class:`TransientError` — the operation may succeed if retried
  (injected chaos faults, interrupted I/O).  The retry policy
  (:mod:`repro.retry`) and the XADT decode-degradation fallback key
  on this base.
* :class:`FatalError` — retrying the same operation will fail the same
  way (syntax errors, schema violations, resource-cap aborts).  These
  must surface to the caller immediately.

:class:`CrashPoint` deliberately derives from ``BaseException`` (not
:class:`ReproError`): it models the process dying at a fault-injection
site, so no library-level ``except ReproError``/``except Exception``
handler may swallow it — only the chaos harness, which abandons the
in-memory engine and re-opens from the WAL, catches it.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class TransientError(ReproError):
    """An error that may not recur: safe to retry with backoff."""


class FatalError(ReproError):
    """An error that will recur on retry: surface it immediately."""


def is_transient(exc: BaseException) -> bool:
    """Whether the retry layer may re-attempt after ``exc``."""
    return isinstance(exc, TransientError)


class XmlError(FatalError):
    """Base class for XML toolkit errors."""


class XmlSyntaxError(XmlError):
    """Raised when an XML document is not well-formed.

    Carries the character ``offset`` into the input at which the problem
    was detected, plus the derived 1-based ``line`` and ``column``.
    """

    def __init__(self, message: str, offset: int = -1, text: str | None = None):
        self.offset = offset
        self.line = None
        self.column = None
        if text is not None and offset >= 0:
            prefix = text[:offset]
            self.line = prefix.count("\n") + 1
            self.column = offset - (prefix.rfind("\n") + 1) + 1
            message = f"{message} (line {self.line}, column {self.column})"
        super().__init__(message)


class DtdError(FatalError):
    """Base class for DTD errors."""


class DtdSyntaxError(DtdError):
    """Raised when a DTD declaration cannot be parsed."""


class DtdValidationError(DtdError):
    """Raised when a document does not conform to its DTD."""


class EngineError(FatalError):
    """Base class for relational engine errors."""


class CatalogError(EngineError):
    """Raised for schema-level problems (unknown/duplicate tables, columns)."""


class SqlSyntaxError(EngineError):
    """Raised when a SQL statement cannot be parsed."""


class PlanError(EngineError):
    """Raised when a parsed statement cannot be turned into an executable plan."""


class ExecutionError(EngineError):
    """Raised when a plan fails at run time (type errors, bad UDF calls...)."""


class SessionClosed(ExecutionError):
    """Raised when a statement runs on a closed session.

    Fatal: the handle is gone.  The network front-end's pooled
    sessions are closed only by its drain, after the statements it
    waited for have finished (DESIGN.md §14)."""


class TypeMismatchError(ExecutionError):
    """Raised when a value does not conform to its declared SQL type."""


class UdfError(EngineError):
    """Raised for user-defined-function registration or invocation problems."""


class ConfigError(EngineError, ValueError):
    """Raised for invalid configuration arguments (caps, capacities...).

    Also a :class:`ValueError` so call sites that predate the unified
    taxonomy (and external callers using stdlib idioms) keep working.
    """


class WalError(EngineError):
    """Raised for write-ahead-log failures (bad records, closed logs)."""


class RecoveryError(WalError):
    """Raised when a WAL cannot be replayed into a consistent database."""


class StatementTimeout(EngineError):
    """Raised by the resource governor when a statement exceeds its
    configured wall-clock budget.  The in-flight statement is aborted;
    any partially stored batch is rolled back before this surfaces."""


class ResourceExceeded(EngineError):
    """Raised by the resource governor when a statement exceeds a row,
    result-byte, or working-memory cap."""


class BackendError(EngineError):
    """Raised when an alternative execution backend fails.

    Every ``sqlite3`` exception crossing the backend boundary is wrapped
    into this class (or a subclass) so callers only ever see the repro
    taxonomy; the original driver exception stays attached as
    ``__cause__``."""


class BackendUnsupported(BackendError):
    """Raised when a statement uses a feature the selected backend
    cannot translate (lateral table functions, non-XADT scalar UDFs,
    level-bounded ``getElm``...).  The differential harness counts these
    separately from divergences."""


class ServerError(EngineError):
    """Base class for network front-end failures (repro.server)."""


class ProtocolError(ServerError):
    """Raised when a wire frame or message violates the protocol.

    Fatal: the connection is desynchronized and must be closed — the
    server drops the transport rather than guessing at frame
    boundaries, and the client reconnects."""


class Overloaded(TransientError):
    """The server shed this request at admission control.

    Raised (and serialized over the wire) when the in-flight executor's
    queue depth crosses the shed watermark, or while the server is
    draining.  Transient by design: ``retry_after`` carries the
    server's backoff hint in seconds, which the bundled client honors
    before its jittered exponential backoff."""

    def __init__(
        self, message: str = "server overloaded", retry_after: float = 0.05
    ) -> None:
        self.retry_after = retry_after
        super().__init__(message)


class ConnectionLost(TransientError):
    """The wire connection dropped mid-request (client side).

    Transient: the bundled client reconnects and retries idempotent
    (read-only) requests under its backoff policy."""


class FaultInjected(TransientError):
    """A deterministic fault raised by the injection harness at a named
    site.  Transient by construction: the retry layer is expected to
    absorb it when the fault plan stops firing."""

    def __init__(self, site: str, message: str | None = None) -> None:
        self.site = site
        super().__init__(message or f"injected fault at {site!r}")


class CrashPoint(BaseException):
    """Simulated process death at a fault-injection site.

    Derives from ``BaseException`` so generic ``except Exception``
    recovery code cannot absorb it — exactly like a real ``kill -9``.
    """

    def __init__(self, site: str) -> None:
        self.site = site
        super().__init__(f"simulated crash at {site!r}")


class XadtError(FatalError):
    """Base class for XML-abstract-data-type errors."""


class XadtCodecError(XadtError):
    """Raised when an XADT payload cannot be encoded or decoded."""


class XadtMethodError(XadtError):
    """Raised when an XADT method is called with invalid arguments."""


class MappingError(FatalError):
    """Raised when a DTD cannot be mapped to a relational schema."""


class ShreddingError(FatalError):
    """Raised when a document cannot be shredded into tuples."""


class GenerationError(FatalError):
    """Raised when synthetic data generation is misconfigured."""


class BenchmarkError(FatalError):
    """Raised by the benchmark harness for invalid experiment setups."""
