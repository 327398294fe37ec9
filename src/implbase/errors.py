"""Domain error types shared across the package.

Every error the library raises deliberately derives from
:class:`ImplbaseError`, so callers (including the CLI) can treat the whole
family uniformly and report the concrete class name.
"""

from __future__ import annotations


class ImplbaseError(Exception):
    """Base class for all deliberate domain errors in this package."""


class UniverseMismatch(ImplbaseError):
    """Two operands are defined over different attribute universes."""


class EmptyLhs(ImplbaseError):
    """An implication was given an empty left-hand side."""


class UnknownAttribute(ImplbaseError):
    """An attribute token does not resolve within the universe."""


class ImplicationSyntaxError(ImplbaseError):
    """An implication or basis file line could not be parsed."""


class UnrenderableName(ImplbaseError):
    """An attribute name the implication text format cannot hold."""


class InvalidBasis(ImplbaseError):
    """A basis violates the structural rules of its declared kind."""


class MalformedCxt(ImplbaseError):
    """A context file does not follow the Burmeister layout."""


class MalformedReport(ImplbaseError, ValueError):
    """A bench CSV does not follow the layout its writer gives it.  Also a
    ``ValueError``, so a caller that catches that still catches this."""


class DegenerateContext(ImplbaseError):
    """Clarification and reduction removed every row or every column."""


class NotClarified(ImplbaseError):
    """An operation requires a clarified context (no duplicate rows/columns)."""


class NotStandardContext(ImplbaseError):
    """An operation requires a clarified and reduced context."""


class WrongBasisKind(ImplbaseError):
    """An algorithm was applied to a basis kind it is not defined for."""


class InvalidCombo(ImplbaseError):
    """A basis kind / algorithm pairing outside the supported benchmark table."""


class IoError(ImplbaseError):
    """A file could not be read or written (wraps the OS-level error)."""
