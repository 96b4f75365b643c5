"""Independent checks of the program's outputs.

Electronic results are compared with stdlib ``sqlite3`` fed the same rows
and writes, through :func:`normalize_rows` and :func:`rows_match`.  The
rules that bridge intended differences between the two engines are named
here and in the README:

``NULL_SENTINEL``
    The engine returns its ``NULL`` singleton; sqlite returns ``None``.
    Both normalize to ``None``.  A ``CNULL`` in a result is never
    normalized: it is reported as an error.
``FLOAT_SUM``
    Floating-point sums and averages are compared with a relative and an
    absolute tolerance of 1e-9, because the two engines add in different
    orders.  Integers and floats compare by value.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Optional, Sequence

REL_TOL = 1e-9
ABS_TOL = 1e-9


class CrowdNullInResult(ValueError):
    """A result row still holds CNULL: a crowd value was never filled."""


def normalize_value(value: Any) -> Any:
    name = type(value).__name__
    if name == "_Null":
        return None
    if name == "_CNull":
        raise CrowdNullInResult("CNULL in a result row")
    return value


def _sort_key(row: tuple) -> tuple:
    return tuple((value is None, 0 if value is None else value)
                 for value in row)


def normalize_rows(rows: Iterable[Sequence[Any]],
                   ordered: bool) -> list[tuple]:
    """Rows as plain tuples; unordered results are sorted."""
    out = [tuple(normalize_value(value) for value in row) for row in rows]
    if not ordered:
        out.sort(key=_sort_key)
    return out


def values_equal(left: Any, right: Any) -> bool:
    if left is None or right is None:
        return left is None and right is None
    numbers = (int, float)
    if (isinstance(left, numbers) and isinstance(right, numbers)
            and not isinstance(left, bool) and not isinstance(right, bool)):
        return math.isclose(left, right, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return left == right


def rows_match(actual: Iterable[Sequence[Any]],
               expected: Iterable[Sequence[Any]],
               ordered: bool) -> Optional[str]:
    """None when the results agree, else a short description."""
    try:
        got = normalize_rows(actual, ordered)
    except CrowdNullInResult as error:
        return str(error)
    want = normalize_rows(expected, ordered)
    if len(got) != len(want):
        return f"{len(got)} rows, expected {len(want)}"
    for index, (left, right) in enumerate(zip(got, want)):
        if len(left) != len(right) or not all(
            values_equal(a, b) for a, b in zip(left, right)
        ):
            return f"row {index}: {left!r} != {right!r}"
    return None

