"""Exact rank of a sparse matrix over any exact field.

Every matrix the verifiers build is a sparse pullback map, so rank is
computed by sparse Gaussian elimination over the chosen field itself.
Rank does not change under transposition, so callers may pass columns
as rows.
"""

from __future__ import annotations


def rank(rows: list, field) -> int:
    """Rank of the matrix whose rows are ``{column: entry}`` dicts.

    Entries must be elements of ``field``; zero entries may be present.
    Each row is reduced against the pivot rows found so far, keyed by
    leading column and scaled so that the lead is one; what survives
    becomes a new pivot row.
    """
    zero = field.zero
    pivots = {}
    for row in rows:
        row = {c: x for c, x in row.items() if x != zero}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                scale = field.one / row[lead]
                pivots[lead] = {c: scale * x for c, x in row.items()}
                break
            factor = row[lead]
            for c, x in pivot.items():
                y = row.get(c, zero) - factor * x
                if y != zero:
                    row[c] = y
                else:
                    del row[c]
    return len(pivots)
