import copy
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from quivpush.linalg import rank


def dense_rank(matrix, p) -> int:
    """Reference oracle: textbook elimination on a dense list of lists,
    dividing by each pivot: with Fractions over Q (p == 0) and, over Z/p,
    multiplying by the pivot's inverse pow(x, -1, p)."""
    m = [[x % p if p else Fraction(x) for x in row] for row in matrix]
    r = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            if p:
                factor = m[i][col] * pow(m[r][col], -1, p)
                m[i] = [(x - factor * y) % p for x, y in zip(m[i], m[r])]
            else:
                factor = m[i][col] / m[r][col]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def sparse(matrix):
    return [{c: x for c, x in enumerate(row)} for row in matrix]


def test_rank_basics():
    assert rank([], 0) == 0
    assert rank([{}, {}], 0) == 0
    assert rank(sparse([[0, 0], [0, 0]]), 0) == 0
    assert rank(sparse([[1, 0], [0, 1]]), 0) == 2
    assert rank(sparse([[1, 2], [2, 4]]), 0) == 1
    assert rank(sparse([[1, 2, 3], [4, 5, 6], [7, 8, 9]]), 0) == 2
    # columns need not be contiguous or start at zero
    assert rank([{5: 1}, {9: 1, 5: -1}, {9: 1}], 0) == 2
    # determinant 7: full rank over Q, rank one mod 7
    assert rank(sparse([[1, 2], [3, 13]]), 0) == 2
    assert rank(sparse([[1, 2], [3, 13]]), 7) == 1


def test_rank_mod_p_reduces_every_entry():
    # nonzero ints that vanish mod p are zero entries
    assert rank([{3: 7, 5: 14}], 7) == 0
    assert rank([{3: 7, 5: 14}], 0) == 1
    # negative entries: determinant -7, and -7 vanishes mod 7
    assert rank(sparse([[-1, 3], [1, 4]]), 0) == 2
    assert rank(sparse([[-1, 3], [1, 4]]), 7) == 1
    assert rank(sparse([[-1, -3], [2, 6], [0, -7]]), 0) == 2
    assert rank(sparse([[-1, -3], [2, 6], [0, -7]]), 7) == 1
    # -1 = 1 mod 2
    assert rank(sparse([[1, -1], [-1, 1], [1, 1]]), 2) == 1
    assert rank(sparse([[1, -1], [-1, 1], [1, 1]]), 0) == 2


def test_pivot_row_with_common_factor():
    """A pivot row whose entries share a factor, then rows that depend on
    it: [[6, 4], [9, 6]] is 2*[3, 2] and 3*[3, 2]."""
    assert rank(sparse([[6, 4], [9, 6]]), 0) == 1
    assert rank(sparse([[6, 4], [9, 6], [3, 2], [-12, -8]]), 0) == 1
    assert rank(sparse([[6, 4], [9, 6], [0, 5]]), 0) == 2
    assert rank(sparse([[6, 4], [9, 7]]), 0) == 2
    assert rank(sparse([[6, 4], [9, 6]]), 2) == 1


matrices = st.integers(0, 5).flatmap(
    lambda width: st.lists(st.lists(st.integers(-7, 7), min_size=width,
                                    max_size=width), max_size=6))


@settings(max_examples=200, deadline=None)
@given(matrices, st.sampled_from([0, 2, 7, 2**31 - 1]))
def test_sparse_rank_matches_dense_oracle(matrix, p):
    expect = dense_rank(matrix, p)
    transposed = [list(col) for col in zip(*matrix)]
    assert rank(sparse(matrix), p) == expect
    assert rank(sparse(transposed), p) == expect
    # explicit zeros and empty rows change nothing
    assert rank(sparse(matrix) + [{}], p) == expect


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(0, 1), min_size=1, max_size=4),
                min_size=1, max_size=4)
       .filter(lambda rows: len({len(r) for r in rows}) == 1))
def test_big_prime_rank_matches_rational_rank(rows):
    # 0/1 matrices: any prime beyond the max minor magnitude is safe
    assert rank(sparse(rows), 32003) == rank(sparse(rows), 0)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 5), st.sampled_from([0, 1, -1, 1, -1, 2, -3]),
                                max_size=3), max_size=10),
       st.sampled_from([0, 2, 7, 2**31 - 1]))
@example([{0: 1}, {0: -1, 1: 1}, {1: 2, 0: 3}, {1: -1}], 0)
@example([{0: 2}, {0: 1, 1: 1}, {1: 1}], 2)
def test_single_entry_pivots_match_dense_oracle(rows, p):
    """Sparse rows, mostly of zeros and units, so that many pivots have a
    single entry, which a row reduces against by dropping its lead; rank
    leaves its input rows as they were."""
    before = copy.deepcopy(rows)
    assert rank(rows, p) == dense_rank([[row.get(c, 0) for c in range(6)] for row in rows], p)
    assert rows == before
