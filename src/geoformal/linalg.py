"""Exact rational linear algebra.

Everything verdict-bearing in this package reduces to ranks and kernels of
matrices over Q, and all of it runs one fraction-free Gauss-Jordan
elimination on rows scaled to integers, block by block.  `_column_blocks`
splits the columns the rows touch into the connected components of the
rows' nonzero pattern, and `rank`, `kernel` and `span_basis` reduce each
component on its own: a Lie-derivative operator or a set of invariant forms
falls apart into many small blocks (a torus in the isotropy never mixes
blade weights), so even large exterior powers stay exact and cheap.  A
column is named by its key, any sortable value (a position, or a blade
mask), and a column no row touches is in no block.  For a span given by
spanning vectors, `span_basis(rows)` returns the basis `kernel` would, on
the same keys.  Both return sparse {col: x} vectors read straight off the
reduced integer rows, with ints where integral; `kernel(rows, ncols)` adds
the unit vector of each of its columns no row touches, and it is the one
reader that solves, inverses and ring normal forms go through.  Nothing
takes a determinant: a nonzero determinant is a full `rank`, and
definiteness is Sylvester's criterion read off the pivots of
`gram_schmidt`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def rank(rows):
    return sum(len(pivots) for _, _, pivots in _reduced_blocks(rows))


def _narrow(x):
    """The rational `x` as an int when it is integral, else as a Fraction:
    callers keep integral values on int arithmetic."""
    if isinstance(x, int):
        return x
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _integer_scaled(row):
    """(ints, d): `row` times d, the least common denominator of its entries."""
    d = lcm(*[x.denominator for x in row])
    if d == 1:
        return [x.numerator for x in row], 1
    return [x.numerator * (d // x.denominator) for x in row], d


def _int_rref(rows):
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Clearing column c of row i replaces it with (p/g)*row_i - (f/g)*row_r,
    where p is the pivot, f the entry and g = gcd(p, f), and then divides the
    row by its content, so entries stay small without any division that
    leaves the integers (cf. Bareiss, Math. Comp. 22, 1968).  Every row stays
    a nonzero multiple of the row that fraction elimination would hold, so
    the pivot columns are the same, and dividing each pivot row by its pivot
    gives the reduced form.  Returns the pivot columns; the pivot rows come
    first, in order, and the rest are zero.
    """
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        p = top[c]
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                g = gcd(p, f)
                a, b = p // g, f // g
                row = [a * x - b * y for x, y in zip(rows[i], top)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def primitive_vector(vec):
    """The integer vector with gcd 1 on the ray of `vec` (ints or Fractions).

    The zero vector stays zero.
    """
    ints, _ = _integer_scaled(vec)
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def kernel(rows, ncols):
    """Exact kernel basis of the linear map given by `rows` (acting on the right).

    Rows are dense lists or sparse {col: value} dicts of ints or Fractions.
    Returns (basis, free_columns).  Each basis vector is a sparse {col: x}
    dict, ascending in col, with ints where integral and Fractions
    otherwise: vector f is 1 on free column f, absent from the other free
    columns and minus that column of each reduced pivot row on its pivot,
    read straight off the integer elimination; a column no row touches is
    free, with its unit vector.  The vectors are independent by
    construction and coordinates in this basis can be read off.
    """
    vectors, pivot_cols = {}, set()
    for cols, ints, pivots in _reduced_blocks(rows):
        pivot_set = set(pivots)
        pivot_cols.update(cols[p] for p in pivots)
        for j, f in enumerate(cols):
            if j not in pivot_set:
                v = {cols[p]: _quotient(-row[j], row[p])
                     for row, p in zip(ints, pivots) if row[j]}
                v[f] = 1
                vectors[f] = v
    free = [f for f in range(ncols) if f not in pivot_cols]
    return [vectors.get(f) or {f: 1} for f in free], free


def span_basis(rows):
    """The identity-pattern basis of the span of sparse rows {col: x}, as
    `kernel` returns it: sparse vectors, ints where integral, on the rows'
    own column keys, which may be any sortable values.  Its free columns,
    the pivots of eliminating the columns in reverse order, are by matroid
    duality the non-pivot columns of any matrix whose kernel is this span;
    each vector is a reduced pivot row divided by its pivot."""
    vectors = {}
    for cols, ints, pivots in _reduced_blocks(rows, descending=True):
        for row, p in zip(ints, pivots):
            vectors[cols[p]] = {cols[j]: _quotient(row[j], row[p])
                                for j in range(len(cols) - 1, p - 1, -1) if row[j]}
    free = sorted(vectors)
    return [vectors[f] for f in free], free


def _quotient(a, b):
    """a / b for ints, as an int when b divides a, else as a Fraction."""
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


def _reduced_blocks(rows, descending=False):
    """Yields (columns, integer rows, pivots) for each column component of
    `rows` (see `_column_blocks`), its rows scaled to integers and reduced
    by `_int_rref` with the columns taken in ascending or descending order.
    The pivots of a block-diagonal system are the union of its blocks'
    pivots, so the blocks together give what one elimination of the whole
    system would."""
    for cols, block in _column_blocks(rows):
        if descending:
            cols.reverse()
        ints = [_integer_scaled([row.get(c, 0) for c in cols] if isinstance(row, dict)
                                else [row[c] for c in cols])[0] for row in block]
        yield cols, ints, _int_rref(ints)


def _column_blocks(rows):
    """Connected components of the columns the rows touch, two columns being
    linked when some row holds nonzero entries in both.

    Returns [(columns, rows)]: each component's column keys ascending and
    the rows whose nonzero entries lie in it, in the order given.  All-zero
    rows are dropped, and a column no row touches is in no component.
    """
    parent = {}

    def find(c):
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    firsts = []
    for row in rows:
        cols = [j for j, v in row.items() if v] if isinstance(row, dict) else \
            [j for j, v in enumerate(row) if v]
        if not cols:
            continue
        firsts.append((cols[0], row))
        root = find(parent.setdefault(cols[0], cols[0]))
        for j in cols[1:]:
            j = find(parent.setdefault(j, j))
            if j != root:
                parent[j] = root
    blocks = {}
    for c in sorted(parent):
        blocks.setdefault(find(c), ([], []))[0].append(c)
    for c, row in firsts:
        blocks[find(c)][1].append(row)
    return list(blocks.values())


def solve_in_span(basis, target):
    """Coordinates of `target` in span(basis), or None.

    `basis` is a list of vectors; solves sum_i x_i basis_i = target exactly.
    The target lies in the span exactly when its column k of [basis | target]
    is free, and minus the rest of that column's kernel vector solves it.
    """
    k = len(basis)
    vectors, free = kernel([[b[i] for b in basis] + [t] for i, t in enumerate(target)],
                           k + 1)
    if k not in free:
        return None
    return [-vectors[-1].get(i, 0) for i in range(k)]


def invert(rows):
    """Exact inverse of a square matrix, ints where integral; raises
    ValueError if singular.  The kernel of [A | I] has free columns n..2n-1
    exactly when A is invertible, and minus the vector of free column n + j
    is column j of the inverse."""
    n = len(rows)
    vectors, free = kernel([list(rows[i]) + [int(i == j) for j in range(n)]
                            for i in range(n)], 2 * n)
    if free != list(range(n, 2 * n)):
        raise ValueError("matrix is singular")
    return [[-v.get(i, 0) for v in vectors] for i in range(n)]


def is_negative_definite(rows):
    """Sylvester's criterion read off the LDL^T diagonal: the symmetric
    matrix is negative definite exactly when every pivot B(w, w) of
    `gram_schmidt` on the unit vectors is negative.  While the pivots before
    it are negative, the k-th is a positive multiple of the ratio of the k-th
    and (k-1)-th leading principal minors, so the first pivot that is not
    negative is found exactly, whatever the steps after it compute."""
    def form(u, v):
        return sum(x * sum(b * y for b, y in zip(rows[i], v) if y)
                   for i, x in enumerate(u) if x)

    n = len(rows)
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    return all(form(w, w) < 0 for w in gram_schmidt(units, form))


def gram_schmidt(vectors, form):
    """B-orthogonalize `vectors` without normalizing, as primitive int vectors.

    `form(u, v)` must be a symmetric bilinear form that is definite on the
    span.  Each step, w -> primitive(|B(u,u)| w - sgn B(u,u) B(w,u) u),
    rescales the rational Gram-Schmidt step by a positive factor, so nothing
    divides and each output is the primitive vector of the rational one.
    """
    ortho = []
    for v in vectors:
        w = primitive_vector(v)
        for u in ortho:
            a, b = form(u, u), form(w, u)
            if b:
                a, b = (a, b) if a > 0 else (-a, -b)
                w = primitive_vector([a * x - b * y for x, y in zip(w, u)])
        ortho.append(w)
    return ortho
