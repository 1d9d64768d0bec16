"""Exact rational linear algebra.

Everything verdict-bearing in this package reduces to ranks and kernels of
matrices over Q.  Small systems go through fraction-free Gauss-Jordan
elimination on rows scaled to integers.
Large integer systems (stacked Lie-derivative operators on big exterior
powers) go through a modular fast path: row reduction mod p with numpy,
rational reconstruction of the kernel, then an unconditional exact
certificate (verified kernel vectors give nullity_Q >= nullity_p, while
rank_p <= rank_Q gives nullity_Q <= nullity_p, so the verified basis is
provably complete).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod

import numpy as np

_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579)
# Widest system `kernel` reduces by exact elimination.
EXACT_KERNEL_MAX_COLS = 140


def rref(rows):
    """Reduced row echelon form of `rows`; returns (rows, pivot_columns).

    Entries are ints or Fractions.  The rows come back as Fractions: the
    pivot rows in order, each with 1 in its pivot column, then the zero rows.
    """
    if not rows:
        return rows, []
    ints = [_integer_scaled(row)[0] for row in rows]
    pivots = _int_rref(ints)
    red = [[Fraction(x, row[c]) for x in row] for row, c in zip(ints, pivots)]
    red += [[Fraction(0)] * len(row) for row in ints[len(pivots):]]
    return red, pivots


def rank(rows):
    if not rows:
        return 0
    return len(_int_rref([_integer_scaled(row)[0] for row in rows]))


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
    Returns (basis, free_columns); basis vectors carry the identity pattern on
    the free columns, so they are independent by construction and coordinates
    in this basis can be read off.  Up to EXACT_KERNEL_MAX_COLS columns the
    system runs exact elimination; wider ones are scaled to integers and
    take the certified modular path.
    """
    if ncols <= EXACT_KERNEL_MAX_COLS:
        return _exact_kernel([_dense_row(row, ncols) for row in rows], ncols)
    return integer_kernel([_integer_row(row) for row in rows], ncols)


def _exact_kernel(dense_rows, ncols):
    red, pivots = rref(dense_rows)
    return _identity_basis(pivots, ncols, lambda r, f: red[r][f])


def _dense_row(row, ncols):
    """`row` (dense list or sparse dict) as a dense list."""
    if not isinstance(row, dict):
        return row
    dense = [0] * ncols
    for j, v in row.items():
        dense[j] = v
    return dense


def _integer_row(row):
    """A sparse integer row spanning the same line as `row`."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    items = [(j, v) for j, v in items if v]
    ints, _ = _integer_scaled([v for _, v in items])
    return {j: x for (j, _), x in zip(items, ints)}


def _identity_basis(pivots, ncols, entry):
    """Kernel basis read off a reduced row echelon form.

    `entry(r, f)` is the entry of the r-th pivot row in free column f, or
    None when it is not known; then the whole result is None.  Vector f is
    the identity on free column f and minus that column on the pivots.
    """
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            x = entry(r, f)
            if x is None:
                return None
            v[pc] = -x
        basis.append(v)
    return basis, free


def solve_in_span(basis, target):
    """Coordinates of `target` in span(basis), or None.

    `basis` is a list of vectors; solves sum_i x_i basis_i = target exactly.
    """
    if not basis:
        return [] if all(t == 0 for t in target) else None
    aug = [[b[i] for b in basis] + [t] for i, t in enumerate(target)]
    red, pivots = rref(aug)
    k = len(basis)
    if k in pivots:
        return None
    coords = [Fraction(0)] * k
    for r, pc in enumerate(pivots):
        coords[pc] = red[r][k]
    return coords


def invert(rows):
    """Exact inverse of a square matrix; raises ValueError if singular."""
    n = len(rows)
    aug = [list(rows[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def det(rows):
    """Exact determinant: `int_det` of the rows scaled to integers."""
    scaled = [_integer_scaled(row) for row in rows]
    return Fraction(int_det([ints for ints, _ in scaled]), prod(d for _, d in scaled))


def _as_int(x):
    if isinstance(x, int):
        return x
    f = Fraction(x)
    if f.denominator != 1:
        raise ValueError(f"expected an integer entry, got {x}")
    return f.numerator


def int_det(rows):
    """Bareiss fraction-free determinant of a small integer matrix."""
    n = len(rows)
    m = [[_as_int(x) for x in r] for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def leading_principal_minors(rows):
    n = len(rows)
    return [det([row[: k + 1] for row in rows[: k + 1]]) for k in range(n)]


def is_positive_definite(rows):
    """Sylvester criterion with exact minors."""
    return all(m > 0 for m in leading_principal_minors(rows))


def is_negative_definite(rows):
    n = len(rows)
    minors = leading_principal_minors(rows)
    return all((m < 0) if (k % 2 == 0) else (m > 0) for k, m in enumerate(minors))


def gram_schmidt(vectors, form):
    """B-orthogonalize `vectors` without normalizing (stays rational).

    `form(u, v)` must be a symmetric bilinear form that is definite on the
    span.  Output vectors are scaled to integer entries for readability.
    """
    ortho = []
    for v in vectors:
        w = [Fraction(x) for x in v]
        for u in ortho:
            c = form(w, u) / form(u, u)
            if c != 0:
                w = [a - c * b for a, b in zip(w, u)]
        ortho.append([Fraction(x) for x in primitive_vector(w)])
    return ortho


# ---------------------------------------------------------------------------
# Modular fast path


def _rational_reconstruct(a, m):
    """Wang reconstruction of a mod m to n/d with |n|, d <= sqrt(m/2)."""
    a %= m
    if a == 0:
        return Fraction(0)
    bound = isqrt(m // 2)
    r0, r1 = m, a
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound or gcd(r1, abs(s1)) != 1:
        return None
    return Fraction(r1, s1)


def _rref_mod_p(mat, p):
    """Vectorized RREF of an int64 matrix mod p; returns (reduced, pivots)."""
    a = np.array(mat, dtype=np.int64) % p
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        col = a[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        other = np.nonzero(a[:, c])[0]
        other = other[other != r]
        if other.size:
            a[other] = (a[other] - np.outer(a[other, c], a[r])) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a[: len(pivots)], pivots


def _crt_pair(a1, m1, a2, m2):
    d = pow(m1, -1, m2)
    t = ((a2 - a1) * d) % m2
    return a1 + m1 * t, m1 * m2


def integer_kernel(int_rows, ncols):
    """Certified exact kernel basis of an integer matrix.

    `int_rows` may be dense lists or sparse dicts {col: int}.  Returns
    (basis, free_columns); basis vectors carry the identity pattern on the
    free columns.  The result is unconditionally exact: verified kernel
    vectors give nullity_Q >= nullity_p, and rank_p <= rank_Q gives the
    reverse inequality.  Falls back through wider CRT moduli (and finally
    exact elimination) until verification succeeds.
    """
    sparse = [row if isinstance(row, dict) else
              {j: int(v) for j, v in enumerate(row) if v} for row in int_rows]
    sparse = [row for row in sparse if row]
    if not sparse:
        return _identity_basis([], ncols, None)

    dense = np.zeros((len(sparse), ncols), dtype=np.int64)
    big = {}
    for i, row in enumerate(sparse):
        for j, v in row.items():
            if -(2**62) < v < 2**62:
                dense[i, j] = v
            else:
                big[(i, j)] = v  # reduced per prime below

    for nprimes in (1, 2, 4):
        primes = _PRIMES[:nprimes]
        residues = []
        pivots0 = None
        ok = True
        for p in primes:
            a = dense % p
            for (i, j), v in big.items():
                a[i, j] = v % p
            red, pivots = _rref_mod_p(a, p)
            if pivots0 is None:
                pivots0 = pivots
            elif pivots != pivots0:
                ok = False  # rank disagreement between primes; widen modulus
                break
            residues.append((red, p))
        if not ok:
            continue
        lifted = _lift_kernel(residues, pivots0, ncols)
        if lifted is None:
            continue
        if all(_verify_kernel_vector(sparse, v) for v in lifted[0]):
            return lifted
    # Last resort: exact elimination (slow, but unconditional).
    return _exact_kernel([_dense_row(row, ncols) for row in sparse], ncols)


def _lift_kernel(residues, pivots, ncols):
    """CRT-combine the residue rrefs and reconstruct their rational entries."""
    modulus = 1
    for _, p in residues:
        modulus *= p

    def entry(r, f):
        a, m = 0, 1
        for red, p in residues:
            a, m = _crt_pair(a, m, int(red[r, f]), p) if m > 1 else (int(red[r, f]), p)
        q = _rational_reconstruct((-a) % modulus, modulus)
        return None if q is None else -q

    return _identity_basis(pivots, ncols, entry)


def _verify_kernel_vector(sparse_rows, vec):
    for row in sparse_rows:
        s = Fraction(0)
        for j, c in row.items():
            if vec[j]:
                s += c * vec[j]
        if s != 0:
            return False
    return True
