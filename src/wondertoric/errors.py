"""Exception hierarchy shared by the library and the CLI.

Each class carries the process exit code the CLI maps it to: file/format
problems exit 2, semantic validation failures exit 3, violated mathematical
invariants exit 4.
"""

from __future__ import annotations


class WondertoricError(Exception):
    """Base class for all errors raised by this package; subclasses set `exit_code`."""
    exit_code: int


class FileFormatError(WondertoricError):
    """Input file is malformed: bad JSON, missing keys, wrong shapes."""
    exit_code = 2


class ValidationError(WondertoricError):
    """Input parses but violates a semantic precondition (non-primitive ray,
    non-smooth fan, torsion quotient where a split sublattice is required, ...)."""
    exit_code = 3


class MathAssertionError(WondertoricError):
    """A mathematical invariant the implementation relies on failed at runtime."""
    exit_code = 4
