"""Catalog of two-input logic functions used as unit activations.

One table, `_CATALOG`, holds every function: its id, its 4-entry truth
table indexed by the input pair in the fixed row order (0,0), (0,1),
(1,0), (1,1), and its formula.  The id lists, the truth rows, the
complements and the formulas are all read from it.  The function ids
are part of the model file format and are never renumbered.

The standard catalog holds nine functions.  It is closed under
complement except for id 12 (u1 -> u2), whose complement u1 & ~u2 is
available as the optional tenth function, id 1.  The extension is off
by default; model files that need it say so explicitly.
"""

from __future__ import annotations

from .errors import CatalogError
from .record import record

# id -> (truth row, formula), by id.  Id 1 is the extension.
_CATALOG: dict[int, tuple[tuple[int, int, int, int], str]] = {
    0: ((0, 0, 0, 1), "u1 & u2"),
    1: ((0, 0, 1, 0), "u1 & ~u2"),
    3: ((0, 1, 0, 0), "~u1 & u2"),
    5: ((0, 1, 1, 0), "u1 ^ u2"),
    6: ((0, 1, 1, 1), "u1 | u2"),
    7: ((1, 0, 0, 0), "~(u1 | u2)"),
    8: ((1, 0, 0, 1), "~(u1 ^ u2)"),
    10: ((1, 0, 1, 1), "u1 | ~u2"),
    12: ((1, 1, 0, 1), "~u1 | u2"),
    13: ((1, 1, 1, 0), "~(u1 & u2)"),
}

EXTENDED_IDS: tuple[int, ...] = tuple(_CATALOG)
STANDARD_IDS: tuple[int, ...] = tuple(i for i in EXTENDED_IDS if i != 1)


@record(frozen=True)
class LogicFunction:
    """One catalog entry: an id and its truth table."""

    ident: int
    truth: tuple[int, int, int, int]

    @property
    def formula(self) -> str:
        return _CATALOG[self.ident][1]

    def __call__(self, u1: int, u2: int) -> int:
        return self.truth[(u1 << 1) | u2]


def catalog(extended: bool = False) -> tuple[LogicFunction, ...]:
    """Return the active catalog, ordered by function id."""
    return tuple(LogicFunction(i, _CATALOG[i][0]) for i in function_ids(extended))


def function_ids(extended: bool = False) -> tuple[int, ...]:
    return EXTENDED_IDS if extended else STANDARD_IDS


def truth_row(fn_id: int, extended: bool = False) -> tuple[int, int, int, int]:
    """Truth table of one function, row order (0,0),(0,1),(1,0),(1,1)."""
    if fn_id not in function_ids(extended):
        raise CatalogError(
            f"function id {fn_id} is not in the "
            f"{'extended' if extended else 'standard'} catalog"
        )
    return _CATALOG[fn_id][0]


def eval_fn(fn_id: int, u1: int, u2: int, extended: bool = False) -> int:
    """Apply one catalog function to a pair of bits."""
    if u1 not in (0, 1) or u2 not in (0, 1):
        raise ValueError(f"inputs must be bits, got ({u1!r}, {u2!r})")
    return truth_row(fn_id, extended)[(u1 << 1) | u2]


def complement_id(fn_id: int, extended: bool = False) -> int | None:
    """Id of the pointwise complement of fn_id, or None if absent."""
    ids = function_ids(extended)
    if fn_id not in ids:
        raise CatalogError(f"function id {fn_id} is not in the catalog")
    target = tuple(1 - v for v in _CATALOG[fn_id][0])
    return next((i for i in ids if _CATALOG[i][0] == target), None)
