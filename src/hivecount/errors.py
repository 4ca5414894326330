"""Exceptions shared across the package."""


class WeightError(ValueError):
    """Malformed highest weight (not weakly decreasing, negative parts, bad length)."""


class SizeMismatchError(ValueError):
    """|nu| != |lambda| + |mu|, so no hive boundary exists."""


class InfeasibleLatticeError(Exception):
    """The equality system has no integral solution."""


class UnboundedError(Exception):
    """A coordinate is unbounded over the polyhedron."""


class CapExceededError(Exception):
    """A brute-force path was asked to exceed its configured size cap."""


class InvariantError(RuntimeError):
    """An internal invariant of a computation failed, so no result is trusted."""


class CountMismatchError(Exception):
    """Two counting methods disagreed during a self-check run."""


class NoFitError(Exception):
    """No candidate period produced a quasi-polynomial matching the samples."""


class DegenerateSpanError(Exception):
    """A point configuration is degenerate after projecting to its span."""


class NoUnimodularCellError(Exception):
    """A right-hand side lies only in non-unimodular triangulation cells."""
