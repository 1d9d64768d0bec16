"""Exact linear algebra, including the certified modular kernel path."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from geoformal import linalg


def test_rref_and_rank():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert linalg.rank(rows) == 2
    red, pivots = linalg.rref(linalg.frac_rows(rows))
    assert pivots == [0, 1]


def test_kernel_identity_pattern():
    rows = [[1, 0, 2, 0], [0, 1, 3, 0]]
    basis, _ = linalg.kernel(rows, 4)
    assert len(basis) == 2
    for v in basis:
        assert all(sum(r[j] * v[j] for j in range(4)) == 0 for r in rows)
    # free columns carry the identity
    assert basis[0][2] == 1 and basis[0][3] == 0
    assert basis[1][2] == 0 and basis[1][3] == 1


def test_solve_in_span():
    basis = [[1, 0, 1], [0, 1, 1]]
    assert linalg.solve_in_span(basis, [2, 3, 5]) == [2, 3]
    assert linalg.solve_in_span(basis, [0, 0, 1]) is None


def test_invert_and_det():
    m = [[2, 1], [1, 1]]
    inv = linalg.invert(m)
    assert inv == [[1, -1], [-1, 2]]
    assert linalg.det(m) == 1
    assert linalg.det([[1, 2], [2, 4]]) == 0
    assert linalg.int_det([[2, 1], [1, 1]]) == 1
    assert linalg.int_det([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) == 2


def test_definiteness():
    assert linalg.is_positive_definite([[2, 1], [1, 2]])
    assert not linalg.is_positive_definite([[1, 2], [2, 1]])
    assert linalg.is_negative_definite([[-2, 1], [1, -2]])


def test_gram_schmidt_orthogonalizes():
    vs = [[1, 1, 0], [1, 0, 1], [0, 1, 1]]

    def dot(u, v):
        return sum(Fraction(a) * Fraction(b) for a, b in zip(u, v))

    ortho = linalg.gram_schmidt(vs, dot)
    for i in range(3):
        for j in range(i):
            assert dot(ortho[i], ortho[j]) == 0
        assert all(x.denominator == 1 for x in ortho[i])


def test_rational_reconstruction_roundtrip():
    p = 2147483647
    for q in (Fraction(3, 7), Fraction(-22, 5), Fraction(1001, 13)):
        a = (q.numerator * pow(q.denominator, -1, p)) % p
        assert linalg._rational_reconstruct(a, p) == q


def test_integer_kernel_matches_exact():
    rng = random.Random(5)
    for _ in range(15):
        rows = [[rng.randint(-4, 4) for _ in range(9)] for _ in range(6)]
        fast, free = linalg.integer_kernel(rows, 9)
        slow, _ = linalg.kernel(rows, 9)
        assert len(fast) == len(slow)
        for v in fast:
            assert all(sum(r[j] * v[j] for j in range(9)) == 0 for r in rows)
        # spans agree: each fast vector solves in the slow span
        for v in fast:
            assert linalg.solve_in_span(slow, v) is not None


def test_kernel_sparse_large_goes_modular():
    # block-structured sparse system large enough to hit the modular path
    rng = random.Random(11)
    ncols = 200
    rows = []
    for i in range(260):
        row = {}
        for _ in range(4):
            row[rng.randrange(ncols)] = Fraction(rng.randint(-3, 3))
        rows.append({k: v for k, v in row.items() if v})
    basis, free = linalg.kernel(rows, ncols)
    assert len(basis) == len(free)
    for v in basis:
        for row in rows:
            assert sum(c * v[j] for j, c in row.items()) == 0
    # nullity must match the dense exact computation
    dense = [[row.get(j, Fraction(0)) for j in range(ncols)] for row in rows]
    assert len(basis) == ncols - linalg.rank(dense)


@st.composite
def _integer_system(draw):
    """Random integer rows, narrower or wider than the exact-elimination cutoff."""
    cutoff = linalg.EXACT_KERNEL_MAX_COLS
    ncols = draw(st.one_of(st.integers(1, 12), st.integers(cutoff + 1, cutoff + 12)))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        entries = draw(st.dictionaries(st.integers(0, ncols - 1),
                                       st.integers(-9, 9), max_size=8))
        rows.append([entries.get(j, 0) for j in range(ncols)])
    if len(rows) > 1 and draw(st.booleans()):
        rows.append([a - 2 * b for a, b in zip(rows[0], rows[-1])])  # dependent
    return rows, ncols


@settings(max_examples=60, deadline=None)
@given(_integer_system(), st.sampled_from(["dense-int", "dense-fraction", "sparse"]),
       st.integers(1, 6))
def test_kernel_matches_exact_rref(system, form, denom):
    rows, ncols = system
    if form == "dense-int":
        given_rows = rows
    elif form == "dense-fraction":
        given_rows = [[Fraction(x, denom) for x in row] for row in rows]
    else:
        given_rows = [{j: Fraction(x, denom) for j, x in enumerate(row) if x}
                      for row in rows]
    _, pivots = linalg.rref(linalg.frac_rows(rows))
    basis, free = linalg.kernel(given_rows, ncols)
    assert len(basis) == len(free) == ncols - len(pivots)
    for v in basis:
        assert all(sum(c * v[j] for j, c in enumerate(row) if c) == 0 for row in rows)
    for i, v in enumerate(basis):
        assert [v[f] for f in free] == [int(i == j) for j in range(len(free))]
