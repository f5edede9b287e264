"""Exception types shared across the package, and a helper for their messages."""


def clip(text: str, limit: int) -> str:
    """``text`` cut to ``limit`` characters, so an error message stays one short line."""
    if len(text) <= limit:
        return text
    return f"{text[:limit]}... ({len(text)} characters)"


class WdgError(Exception):
    """Base class for all wdglab errors."""


class BadIndexError(WdgError):
    """Vertex index out of range, or an assignment of the wrong length."""


class SelfLoopError(WdgError):
    """An edge joins a vertex to itself (the diagonal is always zero)."""


class DuplicateEdgeError(WdgError):
    """Two edges share the same vertex pair after canonicalization."""


class NotSymmetricError(WdgError):
    """A matrix expected to be symmetric is not."""


class NonzeroDiagonalError(WdgError):
    """A matrix expected to have zero diagonal does not."""


class ShapeMismatchError(WdgError):
    """Matrix shapes are incompatible for the requested operation."""


class LimitExceededError(WdgError):
    """A brute-force enumeration would exceed the configured size limit."""


class DegenerateGraphError(WdgError):
    """The graph's value is constant (max - min = 0), so it cannot be rescaled."""


class SizeBudgetExceededError(WdgError):
    """A composite, a graph family member or a certificate search would
    exceed its fixed size limit, or a graph has values too large for a
    graph document."""


class EmptyTemplateError(WdgError):
    """An edge template with no edges was supplied where one is required."""


class InfeasibleError(WdgError):
    """No feasible solution was found (budget exhausted or provably impossible)."""


class IncompleteCsopError(WdgError):
    """Projector dimensions do not sum to the total space dimension."""


class DocumentError(WdgError):
    """A serialized document failed validation."""
