"""Exact rank of a sparse integer matrix over Q or Z/p.

Every matrix the verifiers rank holds small ints, as a list of {column: int}
rows; rank does not change under transposition, so callers may pass columns
as rows.  Elimination is fraction-free (cf. Bareiss, Math. Comp. 22, 1968).
"""

from __future__ import annotations

from math import gcd


def rank(rows: list, p: int) -> int:
    """Rank over Q when p == 0 and over Z/p when p is a prime.

    Each row is copied without its zero entries, then reduced against the
    pivot rows found so far, keyed by lead column, as row := a*row - b*pivot,
    where a leads the pivot and b the row, so no entry is ever divided.
    Against a pivot with one entry the row just drops its lead: that is
    row - (b/a)*pivot over any field.  A surviving row becomes a pivot,
    divided over Q by the gcd of its entries; over Z/p entries stay reduced
    mod p.  The input rows are not changed.
    """
    pivots = {}
    for row in rows:
        row = {c: y for c, x in row.items() if (y := x % p if p else x)}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                content = 1 if p else gcd(*row.values())
                pivots[lead] = row if content == 1 else {c: x // content for c, x in row.items()}
                break
            if len(pivot) == 1:
                del row[lead]
            else:
                row = _combine(pivot[lead], row, row[lead], pivot, p)
    return len(pivots)


def _combine(a: int, row: dict, b: int, pivot: dict, p: int) -> dict:
    """The nonzero entries of a*row - b*pivot, reduced mod p when p > 0."""
    out = {c: a * x for c, x in row.items()}
    for c, x in pivot.items():
        out[c] = out.get(c, 0) - b * x
    return {c: y for c, x in out.items() if (y := x % p if p else x)}
