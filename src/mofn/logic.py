"""Catalog of two-input logic functions used as unit activations.

Each function is stored as a 4-entry truth table indexed by the input
pair in the fixed row order (0,0), (0,1), (1,0), (1,1).  The function
ids are part of the model file format and are never renumbered.

The standard catalog holds nine functions.  It is closed under
complement except for id 12 (u1 -> u2), whose complement u1 & ~u2 is
available as the optional tenth function, id 1.  The extension is off
by default; model files that need it say so explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CatalogError

_STANDARD_ROWS: dict[int, tuple[int, int, int, int]] = {
    0: (0, 0, 0, 1),    # u1 & u2
    3: (0, 1, 0, 0),    # ~u1 & u2
    5: (0, 1, 1, 0),    # u1 ^ u2
    6: (0, 1, 1, 1),    # u1 | u2
    7: (1, 0, 0, 0),    # ~(u1 | u2)
    8: (1, 0, 0, 1),    # ~(u1 ^ u2)
    10: (1, 0, 1, 1),   # u1 | ~u2
    12: (1, 1, 0, 1),   # ~u1 | u2
    13: (1, 1, 1, 0),   # ~(u1 & u2)
}

_EXTENSION_ROWS: dict[int, tuple[int, int, int, int]] = {
    1: (0, 0, 1, 0),    # u1 & ~u2
}

_FORMULAS: dict[int, str] = {
    0: "u1 & u2",
    1: "u1 & ~u2",
    3: "~u1 & u2",
    5: "u1 ^ u2",
    6: "u1 | u2",
    7: "~(u1 | u2)",
    8: "~(u1 ^ u2)",
    10: "u1 | ~u2",
    12: "~u1 | u2",
    13: "~(u1 & u2)",
}

STANDARD_IDS: tuple[int, ...] = tuple(sorted(_STANDARD_ROWS))
EXTENDED_IDS: tuple[int, ...] = tuple(sorted(_STANDARD_ROWS | _EXTENSION_ROWS))


@dataclass(frozen=True)
class LogicFunction:
    """One catalog entry: an id and its truth table."""

    ident: int
    truth: tuple[int, int, int, int]

    @property
    def formula(self) -> str:
        return _FORMULAS[self.ident]

    def __call__(self, u1: int, u2: int) -> int:
        return self.truth[(u1 << 1) | u2]


def _rows(extended: bool) -> dict[int, tuple[int, int, int, int]]:
    if extended:
        return {**_STANDARD_ROWS, **_EXTENSION_ROWS}
    return dict(_STANDARD_ROWS)


def catalog(extended: bool = False) -> tuple[LogicFunction, ...]:
    """Return the active catalog, ordered by function id."""
    rows = _rows(extended)
    return tuple(LogicFunction(i, rows[i]) for i in sorted(rows))


def function_ids(extended: bool = False) -> tuple[int, ...]:
    return EXTENDED_IDS if extended else STANDARD_IDS


def truth_row(fn_id: int, extended: bool = False) -> tuple[int, int, int, int]:
    """Truth table of one function, row order (0,0),(0,1),(1,0),(1,1)."""
    rows = _rows(extended)
    if fn_id not in rows:
        raise CatalogError(
            f"function id {fn_id} is not in the "
            f"{'extended' if extended else 'standard'} catalog"
        )
    return rows[fn_id]


def eval_fn(fn_id: int, u1: int, u2: int, extended: bool = False) -> int:
    """Apply one catalog function to a pair of bits."""
    if u1 not in (0, 1) or u2 not in (0, 1):
        raise ValueError(f"inputs must be bits, got ({u1!r}, {u2!r})")
    return truth_row(fn_id, extended)[(u1 << 1) | u2]


def complement_id(fn_id: int, extended: bool = False) -> int | None:
    """Id of the pointwise complement of fn_id, or None if absent."""
    rows = _rows(extended)
    target = tuple(1 - v for v in rows[fn_id]) if fn_id in rows else None
    if target is None:
        raise CatalogError(f"function id {fn_id} is not in the catalog")
    for i, row in rows.items():
        if row == target:
            return i
    return None
