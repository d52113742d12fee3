from hypothesis import given, settings, strategies as st

from quivpush.fields import QQ, PrimeField, field_from_name
from quivpush.linalg import rank


def dense_rank(matrix, field) -> int:
    """Reference oracle: textbook elimination on a dense list of lists."""
    m = [list(row) for row in matrix]
    r = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][col] != field.zero), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            factor = m[i][col] / m[r][col]
            m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def sparse(matrix):
    return [{c: x for c, x in enumerate(row)} for row in matrix]


def lift(matrix, field):
    return [[field.from_int(x) for x in row] for row in matrix]


def test_rank_basics():
    assert rank([], QQ) == 0
    assert rank([{}, {}], QQ) == 0
    assert rank(sparse(lift([[0, 0], [0, 0]], QQ)), QQ) == 0
    assert rank(sparse(lift([[1, 0], [0, 1]], QQ)), QQ) == 2
    assert rank(sparse(lift([[1, 2], [2, 4]], QQ)), QQ) == 1
    assert rank(sparse(lift([[1, 2, 3], [4, 5, 6], [7, 8, 9]], QQ)), QQ) == 2
    # columns need not be contiguous or start at zero
    assert rank([{5: QQ.one}, {9: QQ.one, 5: -QQ.one}, {9: QQ.one}], QQ) == 2
    # determinant 7: full rank over QQ, rank one mod 7
    f7 = PrimeField(7)
    assert rank(sparse(lift([[1, 2], [3, 13]], QQ)), QQ) == 2
    assert rank(sparse(lift([[1, 2], [3, 13]], f7)), f7) == 1


matrices = st.integers(0, 5).flatmap(
    lambda width: st.lists(st.lists(st.integers(-7, 7), min_size=width,
                                    max_size=width), max_size=6))


@settings(max_examples=150, deadline=None)
@given(matrices, st.sampled_from(["q", "fp:7", "fp:2147483647"]))
def test_sparse_rank_matches_dense_oracle(matrix, name):
    field = field_from_name(name)
    lifted = lift(matrix, field)
    transposed = [list(col) for col in zip(*lifted)]
    expect = dense_rank(lifted, field)
    assert rank(sparse(lifted), field) == expect
    assert rank(sparse(transposed), field) == expect
    # explicit zeros and empty rows change nothing
    assert rank(sparse(lifted) + [{}], field) == expect


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(0, 1), min_size=1, max_size=4),
                min_size=1, max_size=4)
       .filter(lambda rows: len({len(r) for r in rows}) == 1))
def test_big_prime_rank_matches_rational_rank(rows):
    # 0/1 matrices: any prime beyond the max minor magnitude is safe
    f = PrimeField(32003)
    assert rank(sparse(lift(rows, f)), f) == rank(sparse(lift(rows, QQ)), QQ)
