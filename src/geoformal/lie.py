"""Compact Lie algebras as exact structure-constant tensors.

Provides su(n) for every n >= 2 in the standard antihermitian basis, the
Chevalley presentation of sl(3) (the split real form, which carries the same
rational structure constants as the complexification), Killing forms,
subalgebras, reductive splits and the biinvariant three-form
eta(X,Y,Z) = B(X,[Y,Z]).

Structure constants, brackets, basis vectors, Killing forms, subalgebra bases
and torus elements are ints where integral, Fractions only otherwise; loops
over the constants read the per-pair lists of nonzero ones (su(n) is sparse).
"""

from __future__ import annotations

import re
from math import gcd

from . import linalg
from .errors import LieAlgebraError
from .exterior import Multivector
from .linalg import _narrow

# -- complex-integer matrices: dicts {(row, col): (re, im)} of int pairs ----


def _commutator(a, b):
    """[a, b] of two sparse matrices, multiplying only their nonzero
    entries (each basis matrix has at most two)."""
    out = {}
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        for (i, k), (are, aim) in x.items():
            for (k2, j), (bre, bim) in y.items():
                if k2 == k:
                    ore, oim = out.get((i, j), (0, 0))
                    out[i, j] = (ore + sign * (are * bre - aim * bim),
                                 oim + sign * (are * bim + aim * bre))
    return out


def _basis_matrix(n, entries):
    m = [[(0, 0)] * n for _ in range(n)]
    for (i, j), pair in entries.items():
        m[i][j] = pair
    return m


class LieAlgebra:
    """Finite-dimensional Lie algebra over Q given by structure constants.

    c[i][j] is the coefficient vector of [e_i, e_j], each constant an int
    where integral; nonzero[i][j] lists its nonzero (k, c[i][j][k]) pairs.
    Antisymmetry and the Jacobi identity are verified exactly on
    construction.
    """

    def __init__(self, structure, labels=None, name=""):
        d = len(structure)
        self.dim = d
        self.name = name
        self.labels = tuple(labels) if labels else tuple(f"e{i+1}" for i in range(d))
        if len(self.labels) != d:
            raise LieAlgebraError("label count != dimension")
        if any(len(row) != d or any(len(v) != d for v in row) for row in structure):
            raise LieAlgebraError(f"every structure vector [e_i, e_j] needs {d} "
                                  "coefficients, one per basis vector")
        # only the nonzero constants are narrowed (730 of 42,875 on su(6))
        self.nonzero = tuple(tuple([(k, _narrow(x)) for k, x in enumerate(v) if x]
                                   for v in row) for row in structure)
        zero = (0,) * d
        self.c = tuple(tuple(tuple(map(dict(v).get, range(d), zero)) if v else zero
                             for v in row) for row in self.nonzero)
        self._verify()

    def _verify(self):
        d = self.dim
        nz = self.nonzero
        for i in range(d):
            for j in range(i, d):
                if nz[i][j] != [(k, -x) for k, x in nz[j][i]]:
                    k = next(k for k in range(d) if self.c[i][j][k] != -self.c[j][i][k])
                    raise LieAlgebraError(f"antisymmetry fails at ({i},{j},{k})")
        for i in range(d):
            for j in range(i + 1, d):
                for k in range(j + 1, d):
                    acc = {}
                    for (a, b, c3) in ((i, j, k), (j, k, i), (k, i, j)):
                        row_a = nz[a]
                        for t, f in nz[b][c3]:
                            for s, x in row_a[t]:
                                acc[s] = acc.get(s, 0) + f * x
                    if any(acc.values()):
                        raise LieAlgebraError(
                            f"Jacobi identity fails on basis triple ({i},{j},{k})")

    def bracket(self, x, y):
        out = [0] * self.dim
        ys = [(j, v) for j, v in enumerate(y) if v]
        for i, u in enumerate(x):
            if not u:
                continue
            row = self.nonzero[i]
            for j, v in ys:
                f = u * v
                for k, c in row[j]:
                    out[k] += f * c
        return [_narrow(v) for v in out]

    def basis_vector(self, i):
        return [int(t == i) for t in range(self.dim)]

    def index_of(self, label):
        return self.labels.index(label)


def killing_form(g):
    """B[i][j] = trace(ad e_i . ad e_j), exact."""
    d = g.dim
    nz = g.nonzero
    B = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            cj = g.c[j]
            s = 0
            for k in range(d):
                for l, x in nz[i][k]:
                    y = cj[l][k]
                    if y:
                        s += x * y
            B[i][j] = B[j][i] = _narrow(s)
    return B


def is_ad_invariant(g, B):
    d = g.dim
    nz = g.nonzero
    for i in range(d):
        for j in range(d):
            for k in range(d):
                lhs = sum(x * B[t][k] for t, x in nz[i][j])
                rhs = sum(x * B[j][t] for t, x in nz[i][k])
                if lhs + rhs != 0:
                    return False
    return True


# -- concrete algebras ------------------------------------------------------


def _su_basis(n):
    """Standard basis: torus i(E_jj - E_{j+1,j+1}), then E_jk - E_kj, then i(E_jk + E_kj)."""
    basis = []
    labels = []
    for j in range(n - 1):
        basis.append({(j, j): (0, 1), (j + 1, j + 1): (0, -1)})
        labels.append(f"t{j+1}")
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    for j, k in pairs:
        basis.append({(j, k): (1, 0), (k, j): (-1, 0)})
        labels.append(f"a{j+1}{k+1}")
    for j, k in pairs:
        basis.append({(j, k): (0, 1), (k, j): (0, 1)})
        labels.append(f"s{j+1}{k+1}")
    return basis, labels, pairs


def _su_coordinates(n, m, slots):
    """Coordinates of an antihermitian traceless sparse matrix in the
    standard basis; `slots` maps (j, k), j < k, to its a_jk coordinate."""
    coords = [0] * (n * n - 1)
    half = len(slots)
    for (j, k), (re, im) in m.items():
        if j == k:
            for t in range(j, n - 1):  # torus coordinate t sums diagonal 0..t
                coords[t] += im
        elif j < k:
            coords[slots[j, k]] = re
            coords[slots[j, k] + half] = im
    return coords


def su(n):
    """su(n) for n >= 2, dimension n^2 - 1, Jacobi verified."""
    if n < 2:
        raise LieAlgebraError(f"su(n) needs n >= 2, got {n}")
    basis, labels, pairs = _su_basis(n)
    slots = {pair: n - 1 + t for t, pair in enumerate(pairs)}
    structure = [[_su_coordinates(n, _commutator(a, b), slots) for b in basis]
                 for a in basis]
    alg = LieAlgebra(structure, labels, name=f"su{n}")
    alg.matrix_basis = [_basis_matrix(n, a) for a in basis]
    return alg


_SL3_LABELS = ("H1", "H2", "E1", "E2", "E3", "F1", "F2", "F3")


def _sl3_coordinates(m):
    """Coordinates of a traceless 3x3 rational sparse matrix in the Chevalley
    basis."""
    entry = lambda i, j: m.get((i, j), (0, 0))[0]
    d1 = entry(0, 0)
    return [d1, d1 + entry(1, 1), entry(0, 1), entry(1, 2), entry(0, 2),
            entry(1, 0), entry(2, 1), entry(2, 0)]


def sl3_chevalley():
    """sl(3) with Chevalley generators H1,H2,E1,E2,E3,F1,F2,F3; E3 = [E1,E2]."""
    E = lambda i, j: {(i, j): (1, 0)}
    H1 = {(0, 0): (1, 0), (1, 1): (-1, 0)}
    H2 = {(1, 1): (1, 0), (2, 2): (-1, 0)}
    basis = [H1, H2, E(0, 1), E(1, 2), E(0, 2), E(1, 0), E(2, 1), E(2, 0)]
    structure = [[_sl3_coordinates(_commutator(a, b)) for b in basis] for a in basis]
    alg = LieAlgebra(structure, _SL3_LABELS, name="sl3")
    alg.matrix_basis = [_basis_matrix(3, a) for a in basis]
    return alg


_REGISTRY = {}


def named_algebra(name):
    """Registry of the algebras addressable from the CLI."""
    key = name.lower()
    if key not in _REGISTRY:
        su_n = re.fullmatch(r"su([1-9][0-9]*)", key)
        if su_n and int(su_n[1]) >= 2:
            _REGISTRY[key] = su(int(su_n[1]))
        elif key == "sl3-chevalley":
            _REGISTRY[key] = sl3_chevalley()
        else:
            raise LieAlgebraError(f"unknown algebra {name!r}; "
                                  "known: su<n> for n >= 2, sl3-chevalley")
    return _REGISTRY[key]


# -- subalgebras and reductive splits ---------------------------------------


class Subalgebra:
    """Span of the given coefficient vectors; closure under bracket verified."""

    def __init__(self, parent, vectors):
        self.basis = [[_narrow(x) for x in v] for v in vectors]
        if linalg.rank(self.basis) != len(self.basis):
            raise LieAlgebraError("subalgebra basis is linearly dependent")
        if len(bracket_closure(parent, self.basis)) != len(self.basis):
            raise LieAlgebraError("subspace is not closed under the bracket")

    @property
    def dim(self):
        return len(self.basis)


def bracket_closure(g, vectors):
    """A basis of the subalgebra of g that the vectors generate: each vector,
    then each bracket of a kept vector with those kept before it, is kept
    when it lies outside the span of those kept so far."""
    basis, queue = [], list(vectors)
    for w in queue:  # grows while it is read
        if linalg.solve_in_span(basis, w) is None:
            queue += (g.bracket(w, u) for u in basis)
            basis.append(w)
    return basis


class ReductiveSplit:
    """g = h (+) m with m the B-orthogonal complement.

    The inclusion [h, m] <= m is proved exactly, once, where
    `invariant.HomogeneousSpace` projects each h action onto m
    (`_project_matrix` raises SpaceError on an h component).
    """

    def __init__(self, g, h, m_basis, B):
        self.g = g
        self.h = h
        self.m_basis = m_basis
        self.B = B


def torus_element(k, l, override=False):
    """i*diag(k, l, -k-l) as a vector in the su(3) standard basis.

    Requires gcd(k,l) = 1 and k*l*(k+l) != 0 unless `override` is set (the
    degenerate k = -l circle inside an SU(2) block is reached that way).
    """
    if k == 0 and l == 0:
        raise LieAlgebraError("(k, l) = (0, 0) does not define a circle")
    if not override:
        if gcd(k, l) != 1:
            raise LieAlgebraError(f"(k, l) = ({k}, {l}) not coprime; "
                                  "set override to force")
        if k * l * (k + l) == 0:
            raise LieAlgebraError(f"(k, l) = ({k}, {l}) violates k*l*(k+l) != 0; "
                                  "set override to force")
    g = named_algebra("su3")
    vec = [0] * g.dim
    vec[g.index_of("t1")] = k
    vec[g.index_of("t2")] = k + l
    return vec


def reductive_split(g, h):
    """Split g = h (+) m along the (negative definite) Killing form."""
    B = killing_form(g)
    if not linalg.is_negative_definite(B):
        raise LieAlgebraError("Killing form is not negative definite; "
                              "reductive_split expects a compact form")
    rows = []
    for hv in h.basis:
        rows.append([sum(hv[i] * B[i][j] for i in range(g.dim))
                     for j in range(g.dim)])
    m_basis = [[v.get(i, 0) for i in range(g.dim)] for v in linalg.kernel(rows, g.dim)[0]]
    if len(m_basis) + h.dim != g.dim:
        raise LieAlgebraError("internal inconsistency: h not transverse to m")
    return ReductiveSplit(g, h, m_basis, B)


# -- invariant forms on the full algebra ------------------------------------


def biinvariant_three_form(g, B=None):
    """eta(X,Y,Z) = B(X,[Y,Z]) as a grade-3 element of Lambda(g*).

    Reading eta off its i < j < k components is exact because eta is
    totally antisymmetric: it is antisymmetric in (Y, Z) since the bracket
    is (`LieAlgebra` verifies that), and cyclic since B is symmetric and
    ad-invariant, B(X,[Y,Z]) = B([X,Y],Z) = B(Z,[X,Y]); both are checked
    here first."""
    if B is None:
        B = killing_form(g)
    for i in range(g.dim):
        for j in range(i):
            if B[i][j] != B[j][i]:
                raise LieAlgebraError("bilinear form is not symmetric")
    if not is_ad_invariant(g, B):
        raise LieAlgebraError("bilinear form is not ad-invariant")
    d = g.dim
    terms = {}
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                val = sum(x * B[i][t] for t, x in g.nonzero[j][k])
                if val:
                    terms[(1 << i) | (1 << j) | (1 << k)] = val
    return Multivector(d, terms)


def differential_images(brackets):
    """d(e^a) = -sum_{i<j} brackets[i][j][a] e^i ^ e^j as {mask: coeff}, per a."""
    n = len(brackets)
    return [{(1 << i) | (1 << j): -brackets[i][j][a]
             for i in range(n) for j in range(i + 1, n) if brackets[i][j][a]}
            for a in range(n)]


def lie_derivative_images(A):
    """L_A(e^b) = -sum_j A[b][j] e^j as {mask: coeff}, per b, for the action A."""
    return [{1 << j: -x for j, x in enumerate(row) if x} for row in A]
