"""Exact Gauss-Jordan inverse on matrices whose blocks are interleaved,
sparse row reduction and kernels against the dense oracle, and matrix
equality."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahodge import linalg
from ahodge.algebra import NotPositive
from ahodge.builtins import get_builtin
from ahodge.hermitian import _dual
from ahodge.manifold import NonInvertibleCoframe
from ahodge.scalars import I, ONE, PI, Scalar, ZERO
from util import dense_nullspace, dense_rref, mat_eq

# off-diagonal entries of size at most 1/3, so rows stay diagonally dominant
entries = st.sampled_from(
    [
        ZERO,
        ZERO,
        Scalar.rational(1, 8),
        Scalar.rational(-1, 4),
        Scalar.rational(1, 3),
        PI / Scalar.integer(32),
    ]
)


@st.composite
def permuted_block_diagonal(draw, singular=False):
    """A square matrix whose blocks are interleaved by a random labelling of
    the indices; with ``singular`` one block gets a repeated row."""
    n = draw(st.integers(1, 7))
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    a = linalg.zeros(n, n)
    for i in range(n):
        for j in range(n):
            if labels[i] == labels[j]:
                a[i][j] = draw(entries)
        a[i][i] = Scalar.integer(draw(st.integers(5, 9)))
    if singular:
        i = draw(st.integers(0, n - 1))
        mates = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if mates:
            a[i] = a[mates[0]][:]
        else:
            a[i][i] = ZERO
    return a


@settings(max_examples=60, deadline=None)
@given(permuted_block_diagonal())
def test_inverse_is_two_sided(a):
    inv = linalg.inverse(a)
    assert mat_eq(linalg.mat_mul(a, inv), linalg.identity(len(a)))
    assert mat_eq(linalg.mat_mul(inv, a), linalg.identity(len(a)))


@settings(max_examples=60, deadline=None)
@given(permuted_block_diagonal(singular=True))
def test_inverse_raises_on_singular(a):
    with pytest.raises(linalg.Singular, match="^matrix is singular$"):
        linalg.inverse(a)


def test_a_fault_inside_an_inverse_is_not_blamed_on_the_input(monkeypatch):
    # only a singular matrix is a degenerate metric or coframe; any other
    # ValueError under rref passes through both catch sites unchanged
    def fault(*args, **kwargs):
        raise ValueError("fault")

    monkeypatch.setattr(linalg, "rref", fault)
    for load in (lambda: get_builtin("fls", {"b": "3"}), lambda: _dual(linalg.identity(3), "omega")):
        with pytest.raises(ValueError, match="^fault$") as err:
            load()
        assert not isinstance(err.value, (NonInvertibleCoframe, NotPositive))


def test_inverse_keeps_interleaved_blocks_apart():
    a = linalg.identity(4)
    a[0][2] = ONE
    a[3][1] = ONE
    inv = linalg.inverse(a)
    assert [[not x.is_zero() for x in row] for row in inv] == [
        [True, False, True, False],
        [False, True, False, False],
        [False, False, True, False],
        [False, True, False, True],
    ]
    assert linalg.inverse([]) == []


def _equal_by_difference(a, b) -> bool:
    """The subtract-and-test rule mat_eq used before equality was syntactic."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        for x, y in zip(ra, rb):
            if not (x - y).is_zero():
                return False
    return True


rows = st.lists(entries, max_size=3)
# ragged: rows of different lengths, and the empty matrix
matrices = st.lists(rows, max_size=3)


@settings(max_examples=150, deadline=None)
@given(matrices, matrices, st.data())
def test_mat_eq_matches_the_difference_rule(a, b, data):
    assert mat_eq(a, b) == _equal_by_difference(a, b)
    # an equal copy built by arithmetic, so its entries are new objects
    copy = [[(x + ONE) - ONE for x in row] for row in a]
    assert mat_eq(a, copy) and _equal_by_difference(a, copy)
    if a and a[0]:
        i = data.draw(st.integers(0, len(a[0]) - 1))
        changed = [row[:] for row in copy]
        changed[0][i] = changed[0][i] + PI
        assert not mat_eq(a, changed) and not _equal_by_difference(a, changed)
    assert not mat_eq(a, a + [[]])


# mostly zero, with pi-bearing and non-real entries among the nonzero ones
sparse_entries = st.sampled_from(
    [ZERO] * 6
    + [
        ONE,
        -Scalar.integer(2),
        Scalar.rational(1, 3),
        PI,
        PI.inv() + Scalar.rational(1, 2),
        I * PI - ONE,
        (PI + ONE) / (PI - Scalar.integer(3)),
    ]
)


@st.composite
def sparse_matrices(draw, square=False):
    """A sparse matrix of 1..6 rows and columns, sometimes with a repeated
    row so that rank drops."""
    r = draw(st.integers(1, 6))
    c = r if square else draw(st.integers(1, 6))
    a = [[draw(sparse_entries) for _ in range(c)] for _ in range(r)]
    if r > 1 and draw(st.booleans()):
        a[draw(st.integers(1, r - 1))] = a[0][:]
    return a


@settings(max_examples=80, deadline=None)
@given(sparse_matrices(), sparse_matrices(square=True))
def test_sparse_row_reduction_matches_the_dense_oracle(a, square):
    before = [row[:] for row in a]
    assert linalg.rref(a) == dense_rref(a)
    assert a == before  # the input is left as it was
    with mock.patch.object(linalg, "rref", dense_rref):
        try:
            inverse = linalg.inverse(square)
        except ValueError:
            inverse = None
    assert linalg.nullspace(a) == dense_nullspace(a)
    if inverse is None:
        with pytest.raises(ValueError):
            linalg.inverse(square)
    else:
        assert linalg.inverse(square) == inverse


@st.composite
def kernel_matrices(draw):
    """A matrix of one of four kinds: tall of full column rank, wide of full
    row rank (a diagonally dominant square block beside or above sparse
    entries), one column, or rank-deficient (a column that is a multiple of
    another and a repeated row)."""
    kind = draw(st.sampled_from(["tall", "wide", "one_column", "deficient"]))
    if kind == "one_column":
        return [[draw(sparse_entries)] for _ in range(draw(st.integers(1, 5)))]
    n = draw(st.integers(1, 4))
    extra = draw(st.integers(0 if kind == "deficient" else 1, 3))
    square = [[draw(entries) for _ in range(n)] for _ in range(n)]
    for k in range(n):
        square[k][k] = Scalar.integer(draw(st.integers(5, 9)))
    if kind == "tall":
        a = square + [[draw(sparse_entries) for _ in range(n)] for _ in range(extra)]
    else:
        a = [row + [draw(sparse_entries) for _ in range(extra)] for row in square]
    if kind == "deficient":
        j, k = draw(st.integers(0, len(a[0]) - 1)), draw(st.integers(0, len(a[0]) - 1))
        f = draw(sparse_entries)
        for row in a:
            row[k] = f * row[j]
        a.append(a[draw(st.integers(0, len(a) - 1))][:])
    perm = draw(st.permutations(range(len(a[0]))))
    return [[row[p] for p in perm] for row in a]


@settings(max_examples=120, deadline=None)
@given(kernel_matrices())
def test_nullspace_matches_the_dense_oracle(a):
    before = [row[:] for row in a]
    kernel = linalg.nullspace(a)
    assert a == before
    assert kernel == dense_nullspace(a)
    for v in kernel:
        assert all((sum((x * y for x, y in zip(row, v)), ZERO)).is_zero() for row in a)
    if len(a) >= len(a[0]) and len(dense_rref(a)[1]) == len(a[0]):
        assert kernel == []
