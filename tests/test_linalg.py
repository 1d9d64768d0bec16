"""Exact linear algebra: elimination, and kernels split into column components."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoformal import linalg

from conftest import _fraction_rref, _narrowed, _reference_kernel, _reference_solve


def test_rref_and_rank():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert linalg.rank(rows) == 2
    _, pivots, _ = _fraction_rref([[Fraction(x) for x in row] for row in rows])
    assert pivots == [0, 1]
    assert linalg.kernel(rows, 3) == ([{0: -1, 1: -1, 2: 1}], [2])


def _dense(v, ncols):
    """A sparse {col: x} kernel vector as a dense list of Fractions."""
    return [Fraction(v.get(j, 0)) for j in range(ncols)]


def test_kernel_identity_pattern():
    rows = [[1, 0, 2, 0], [0, 1, 3, 0]]
    basis, _ = linalg.kernel(rows, 4)
    assert len(basis) == 2
    for v in basis:
        assert all(sum(r[j] * x for j, x in v.items()) == 0 for r in rows)
    # free columns carry the identity; zeros are left out
    assert basis[0][2] == 1 and 3 not in basis[0]
    assert 2 not in basis[1] and basis[1][3] == 1
    assert basis == [{0: -2, 1: -3, 2: 1}, {3: 1}]
    assert all(type(x) is int for v in basis for x in v.values())


def test_solve_in_span():
    basis = [[1, 0, 1], [0, 1, 1]]
    assert linalg.solve_in_span(basis, [2, 3, 5]) == [2, 3]
    assert linalg.solve_in_span(basis, [0, 0, 1]) is None


def test_invert_and_det():
    m = [[2, 1], [1, 1]]
    inv = linalg.invert(m)
    assert inv == [[1, -1], [-1, 2]]
    assert all(type(x) is int for row in inv for x in row)


def test_definiteness():
    assert linalg.is_negative_definite([[-2, 1], [1, -2]])
    assert not linalg.is_negative_definite([[-1, 2], [2, -1]])
    assert not linalg.is_negative_definite([[-1, 1], [1, -1]])
    assert not linalg.is_negative_definite([[0, 0], [0, -1]])
    assert linalg.is_negative_definite([[Fraction(-1, 2), Fraction(1, 3)],
                                        [Fraction(1, 3), Fraction(-1, 2)]])


@st.composite
def _symmetric_matrix(draw):
    """Symmetric integer matrices of size 1-7, mostly negative on the
    diagonal, with singular and indefinite ones mixed in."""
    n = draw(st.integers(1, 7))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(st.integers(-30, 3))
        for j in range(i):
            rows[i][j] = rows[j][i] = draw(st.integers(-4, 4))
    if n > 1 and draw(st.booleans()):  # a dependent last row and column
        i, j = draw(st.integers(0, n - 2)), draw(st.integers(0, n - 2))
        r, s = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        last = [r * a + s * b for a, b in zip(rows[i], rows[j])]
        last[-1] = r * last[i] + s * last[j]
        for k in range(n):
            rows[k][-1] = rows[-1][k] = last[k]
    return rows


@settings(max_examples=300, deadline=None)
@given(_symmetric_matrix())
def test_negative_definite_is_sylvester(rows):
    """Negative definite exactly when the k-th leading principal minor has
    the sign (-1)^k for every k; each minor is the determinant the Fraction
    reference elimination gives, 0 below full rank."""
    def minor(k):
        _, pivots, scale = _fraction_rref([[Fraction(x) for x in row[:k]]
                                           for row in rows[:k]])
        return scale if len(pivots) == k else 0

    expected = all((-1) ** k * minor(k) > 0 for k in range(1, len(rows) + 1))
    assert linalg.is_negative_definite(rows) == expected


def test_gram_schmidt_orthogonalizes():
    vs = [[1, 1, 0], [1, 0, 1], [0, 1, 1]]

    def dot(u, v):
        return sum(Fraction(a) * Fraction(b) for a, b in zip(u, v))

    ortho = linalg.gram_schmidt(vs, dot)
    for i in range(3):
        for j in range(i):
            assert dot(ortho[i], ortho[j]) == 0
        assert all(x.denominator == 1 for x in ortho[i])


def test_gram_schmidt_on_ints_is_int_and_exact():
    """int vectors and an int form give int vectors, exactly B-orthogonal,
    each the primitive vector of the rational Gram-Schmidt output; for a
    negative definite form as well, where B(u, u) < 0."""
    vs = [[2, 1, 0, 1], [1, 3, 1, 0], [0, 1, 4, 2], [1, 0, 1, 5]]
    gram = [[4, 1, 0, 1], [1, 3, 1, 0], [0, 1, 2, 0], [1, 0, 0, 5]]
    assert linalg.is_negative_definite([[-x for x in row] for row in gram])
    for sign in (1, -1):
        def form(u, v):
            return sign * sum(x * gram[i][j] * v[j] for i, x in enumerate(u)
                              for j in range(4))

        ortho = linalg.gram_schmidt(vs, form)
        assert all(type(x) is int for w in ortho for x in w)
        for i in range(4):
            for j in range(i):
                assert form(ortho[i], ortho[j]) == 0
        rational = []
        for v in vs:
            w = [Fraction(x) for x in v]
            for u in rational:
                c = form(w, u) / form(u, u)
                w = [a - c * b for a, b in zip(w, u)]
            rational.append(w)
        assert ortho == [linalg.primitive_vector(w) for w in rational]


def test_integer_kernel_matches_exact():
    rng = random.Random(5)
    for _ in range(15):
        rows = [[rng.randint(-4, 4) for _ in range(9)] for _ in range(6)]
        fast, free = linalg.kernel(rows, 9)
        slow, _ = _reference_kernel(rows, 9)
        assert len(fast) == len(slow)
        for v in fast:
            assert all(sum(r[j] * x for j, x in v.items()) == 0 for r in rows)
        # spans agree: each fast vector solves in the slow span
        for v in fast:
            assert linalg.solve_in_span(slow, _dense(v, 9)) is not None


def test_kernel_sparse_large():
    # sparse system whose widest column component is wider than 140 columns
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
            assert sum(c * v.get(j, 0) for j, c in row.items()) == 0
    # nullity must match the dense exact computation
    dense = [[row.get(j, Fraction(0)) for j in range(ncols)] for row in rows]
    assert len(basis) == ncols - linalg.rank(dense)


@st.composite
def _integer_system(draw):
    """Random integer rows, with 1-12 or 141-152 columns."""
    ncols = draw(st.one_of(st.integers(1, 12), st.integers(141, 152)))
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
    _, pivots, _ = _fraction_rref([[Fraction(x) for x in row] for row in rows])
    basis, free = linalg.kernel(given_rows, ncols)
    assert len(basis) == len(free) == ncols - len(pivots)
    for v in basis:
        assert all(sum(row[j] * x for j, x in v.items()) == 0 for row in rows)
    for i, v in enumerate(basis):
        assert [v.get(f, 0) for f in free] == [int(i == j) for j in range(len(free))]


@st.composite
def _hidden_blocks(draw):
    """A block-diagonal integer system hidden under a random column permutation.

    Blocks of 1-6 columns, all-zero columns and zero rows, and in a few
    examples one chained block of 141-146 columns.  Returns (rows, ncols,
    blocks): dense rows in shuffled order and each block's column set.
    """
    widths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    wide = draw(st.integers(141, 146)) if draw(st.integers(0, 9)) == 0 else 0
    ncols = sum(widths) + wide + draw(st.integers(0, 3))
    perm = draw(st.permutations(range(ncols)))
    rows, blocks, start = [], [], 0
    for w in widths:
        cols = perm[start:start + w]
        start += w
        blocks.append(set(cols))
        for _ in range(draw(st.integers(0, w + 1))):
            entries = draw(st.dictionaries(st.sampled_from(cols), st.integers(-9, 9),
                                           max_size=w))
            rows.append([entries.get(j, 0) for j in range(ncols)])
    if wide:
        cols = perm[start:start + wide]
        start += wide
        blocks.append(set(cols))
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        for i in range(0, wide - 1, 2):  # rows on columns i..i+2 chain the block
            row = [0] * ncols
            for j in cols[i:i + 3]:
                row[j] = rng.choice([-3, -2, -1, 1, 2, 3])
            rows.append(row)
    blocks.extend({c} for c in perm[start:])  # columns no row touches
    rows.extend([0] * ncols for _ in range(draw(st.integers(0, 2))))
    draw(st.randoms()).shuffle(rows)
    return rows, ncols, blocks


@settings(max_examples=60, deadline=None)
@given(_hidden_blocks(), st.sampled_from(["dense-int", "dense-fraction", "sparse"]),
       st.integers(1, 6), st.lists(st.tuples(st.integers(0, 40), st.integers(0, 200)),
                                   max_size=6))
def test_kernel_split_matches_unsplit_reference(system, form, denom, zeros):
    rows, ncols, blocks = system
    if form == "dense-int":
        given_rows = rows
    elif form == "dense-fraction":
        given_rows = [[Fraction(x, denom) for x in row] for row in rows]
    else:
        given_rows = [{j: Fraction(x, denom) for j, x in enumerate(row) if x}
                      for row in rows]
        for n, (i, j) in enumerate(zeros):  # explicit zeros must link nothing
            if given_rows:
                zero = Fraction(0) if n % 2 else 0
                given_rows[i % len(given_rows)].setdefault(j % ncols, zero)
    basis, free = linalg.kernel(given_rows, ncols)
    dense = [_dense(v, ncols) for v in basis]
    assert (dense, free) == _reference_kernel(given_rows, ncols)
    assert all(x and _narrowed(x) for v in basis for x in v.values())
    assert linalg.rank(given_rows) == ncols - len(free)
    split = [cols for cols, _ in linalg._column_blocks(given_rows)]
    for cols in split:
        assert any(set(cols) <= block for block in blocks)
    # the blocks cover the touched columns, each once, and nothing else
    touched = {j for row in rows for j, x in enumerate(row) if x}
    assert sorted(c for cols in split for c in cols) == sorted(touched)


@pytest.mark.parametrize("space", ["aw11", "flag"])
def test_invariant_bases_match_unsplit_reference(space, request):
    from geoformal.exterior import derivation_terms, grade_masks
    from geoformal.lie import lie_derivative_images
    space = request.getfixturevalue(space)
    split = False
    for k in range(space.dim_m + 1):
        masks = grade_masks(space.dim_m, k)
        index = {m: i for i, m in enumerate(masks)}
        rows = []
        for A in space.h_action:
            images = lie_derivative_images(A)
            op_rows = [{} for _ in masks]
            for col, mask in enumerate(masks):
                for out_mask, coeff in derivation_terms(images, mask):
                    row = op_rows[index[out_mask]]
                    row[col] = row.get(col, 0) + coeff
            rows.extend(op_rows)
        basis = [[Fraction(v.get(m, 0)) for m in masks] for v in space.invariant_basis(k)]
        free = [index[f] for f in space._free[k]]
        assert (basis, free) == _reference_kernel(rows, len(masks))
        split |= len(linalg._column_blocks(rows)) > 1
    assert split


@st.composite
def _rational_matrix(draw):
    """Square, tall or wide matrices of ints or Fractions with 1-12 columns,
    with zero rows, dependent rows and negated rows mixed in."""
    ncols = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(["square", "tall", "wide"]))
    nrows = {"square": ncols, "tall": ncols + draw(st.integers(1, 4)),
             "wide": draw(st.integers(1, ncols))}[shape]
    denom = draw(st.integers(1, 6))
    rows = []
    for _ in range(nrows):
        entries = draw(st.dictionaries(st.integers(0, ncols - 1),
                                       st.integers(-9, 9), max_size=ncols))
        row = [entries.get(j, 0) for j in range(ncols)]
        if draw(st.booleans()):
            row = [Fraction(x, denom) for x in row]
        rows.append(row)
    if nrows > 1 and shape != "square" and draw(st.booleans()):
        rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
    if draw(st.booleans()):
        rows[0] = [-x for x in rows[0]]
    return rows


@settings(max_examples=150, deadline=None)
@given(_rational_matrix(), st.lists(st.integers(-3, 3), min_size=12, max_size=12),
       st.booleans())
def test_elimination_matches_fraction_reference(rows, coeffs, in_span):
    """rank, solve_in_span and invert agree in value with one Fraction
    Gauss-Jordan elimination, and each result is narrowed: an int exactly
    when integral."""
    ncols = len(rows[0])
    _, pivots, _ = _fraction_rref([[Fraction(x) for x in row] for row in rows])
    assert linalg.rank(rows) == len(pivots)

    target = ([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(ncols)]
              if in_span else coeffs[:ncols])
    coords = linalg.solve_in_span(rows, target)
    assert coords == _reference_solve(rows, target)
    assert all(_narrowed(x) for x in coords or [])

    if len(rows) == ncols:
        n = ncols
        aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
               for i, row in enumerate(rows)]
        inv_red, inv_pivots, _ = _fraction_rref(aug)
        if inv_pivots == list(range(n)):
            inv = linalg.invert(rows)
            assert inv == [row[n:] for row in inv_red]
            assert all(_narrowed(x) for row in inv for x in row)
        else:
            with pytest.raises(ValueError):
                linalg.invert(rows)


def test_primitive_vector():
    v = [Fraction(-2, 3), Fraction(4, 9), 0, Fraction(2)]
    p = linalg.primitive_vector(v)
    assert p == [-3, 2, 0, 9]
    assert all(type(x) is int for x in p)
    assert gcd(*p) == 1
    ratio = Fraction(p[0]) / v[0]
    assert ratio > 0 and all(x == ratio * y for x, y in zip(p, v))
    assert linalg.primitive_vector([6, -4, 10]) == [3, -2, 5]
    assert linalg.primitive_vector([0, Fraction(0), 0]) == [0, 0, 0]


@settings(max_examples=150, deadline=None)
@given(_rational_matrix(), st.data())
def test_span_basis_recovers_kernel_from_recombined_vectors(rows, data):
    """span_basis of kernel(A)'s vectors, recombined by an invertible matrix
    (upper triangular with nonzero diagonal, rows permuted) and with a zero
    row and a duplicate row added, is kernel(A): the same identity-pattern
    basis on the same free columns."""
    ncols = len(rows[0])
    basis, free = linalg.kernel(rows, ncols)
    order = data.draw(st.permutations(range(len(basis))))
    dense = [_dense(v, ncols) for v in basis]
    mixed = []
    for i, f in enumerate(order):
        d = data.draw(st.sampled_from([Fraction(-1, 2), 1, 2, -3]))
        v = [d * x for x in dense[f]]
        for g in order[i + 1:]:
            c = data.draw(st.integers(-3, 3))
            v = [x + c * y for x, y in zip(v, dense[g])]
        mixed.append({j: x for j, x in enumerate(v) if x})
    mixed.append({data.draw(st.integers(0, ncols - 1)): 0})
    if mixed[:-1]:
        mixed.append(dict(data.draw(st.sampled_from(mixed[:-1]))))
    mixed = data.draw(st.permutations(mixed))
    got = linalg.span_basis(mixed)
    assert got == (basis, free)
    assert all(x and _narrowed(x) for v in got[0] for x in v.values())


@settings(max_examples=150, deadline=None)
@given(_rational_matrix(), st.data())
def test_span_basis_reads_any_sortable_column_keys(rows, data):
    """span_basis of rows keyed by sparse, non-contiguous ints (like blade
    masks) is the span_basis of the same rows on compact positions, each
    position j re-keyed to the j-th smallest key."""
    ncols = len(rows[0])
    keys = sorted(data.draw(st.lists(st.integers(0, 1 << 20), min_size=ncols,
                                     max_size=ncols, unique=True)))
    compact = [{j: x for j, x in enumerate(row) if x} for row in rows]
    keyed = [{keys[j]: x for j, x in row.items()} for row in compact]
    basis, free = linalg.span_basis(compact)
    assert linalg.span_basis(keyed) == \
        ([{keys[j]: x for j, x in v.items()} for v in basis], [keys[f] for f in free])


def test_span_basis_of_nothing_is_empty():
    assert linalg.span_basis([]) == ([], [])
    assert linalg.span_basis([{}, {2: 0}, {0: Fraction(0), 3: 0}]) == ([], [])
