"""Exception types shared across the package."""

from __future__ import annotations


class ParseError(ValueError):
    """Malformed graph or labeling file.

    ``where`` pins the offending location: either a "line L column C" string
    from the JSON decoder or a field path such as "edges[3]".
    """

    def __init__(self, path: str, where: str, message: str) -> None:
        self.path = path
        self.where = where
        super().__init__(f"{path}: {where}: {message}")


class SearchTimeout(RuntimeError):
    """The search budget expired where an exact answer was required."""
