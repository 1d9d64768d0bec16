"""Compact Lie algebras as exact structure-constant tensors.

Provides su(2..4) in the standard antihermitian basis, the Chevalley
presentation of sl(3) (the split real form, which carries the same rational
structure constants as the complexification), Killing forms, subalgebras,
reductive splits and the biinvariant three-form eta(X,Y,Z) = B(X,[Y,Z]).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import linalg
from .errors import LieAlgebraError
from .exterior import Multivector

# -- tiny complex-rational matrix helpers (entries are (re, im) Fractions) --


def _cmat(n):
    z = (Fraction(0), Fraction(0))
    return [[z] * n for _ in range(n)]


def _cmul(a, b):
    n = len(a)
    out = _cmat(n)
    for i in range(n):
        for k in range(n):
            are, aim = a[i][k]
            if are == 0 and aim == 0:
                continue
            row = b[k]
            for j in range(n):
                bre, bim = row[j]
                if bre == 0 and bim == 0:
                    continue
                ore, oim = out[i][j]
                out[i][j] = (ore + are * bre - aim * bim,
                             oim + are * bim + aim * bre)
    return out


def _csub(a, b):
    return [[(x[0] - y[0], x[1] - y[1]) for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)]


def _commutator(a, b):
    return _csub(_cmul(a, b), _cmul(b, a))


def _basis_matrix(n, entries):
    m = _cmat(n)
    for (i, j), (re, im) in entries.items():
        m[i][j] = (Fraction(re), Fraction(im))
    return m


class LieAlgebra:
    """Finite-dimensional Lie algebra over Q given by structure constants.

    c[i][j] is the coefficient vector of [e_i, e_j]; antisymmetry and the
    Jacobi identity are verified exactly on construction.
    """

    def __init__(self, structure, labels=None, name=""):
        d = len(structure)
        self.dim = d
        self.name = name
        self.labels = tuple(labels) if labels else tuple(f"e{i+1}" for i in range(d))
        if len(self.labels) != d:
            raise LieAlgebraError("label count != dimension")
        self.c = tuple(tuple(tuple(Fraction(x) for x in structure[i][j])
                             for j in range(d)) for i in range(d))
        self._verify()

    def _verify(self):
        d = self.dim
        for i in range(d):
            for j in range(i, d):
                for k in range(d):
                    if self.c[i][j][k] != -self.c[j][i][k]:
                        raise LieAlgebraError(
                            f"antisymmetry fails at ({i},{j},{k})")
        for i in range(d):
            for j in range(i + 1, d):
                for k in range(j + 1, d):
                    acc = [Fraction(0)] * d
                    for (a, b, c3) in ((i, j, k), (j, k, i), (k, i, j)):
                        inner = self.c[b][c3]
                        for t in range(d):
                            if inner[t]:
                                row = self.c[a][t]
                                f = inner[t]
                                for s in range(d):
                                    if row[s]:
                                        acc[s] += f * row[s]
                    if any(acc):
                        raise LieAlgebraError(
                            f"Jacobi identity fails on basis triple ({i},{j},{k})")

    def bracket(self, x, y):
        d = self.dim
        out = [Fraction(0)] * d
        for i in range(d):
            if x[i] == 0:
                continue
            for j in range(d):
                if y[j] == 0:
                    continue
                row = self.c[i][j]
                f = Fraction(x[i]) * Fraction(y[j])
                for k in range(d):
                    if row[k]:
                        out[k] += f * row[k]
        return out

    def ad(self, x):
        """Matrix of ad_x: columns are [x, e_j]."""
        d = self.dim
        cols = [self.bracket(x, [1 if t == j else 0 for t in range(d)])
                for j in range(d)]
        return [[cols[j][i] for j in range(d)] for i in range(d)]

    def basis_vector(self, i):
        return [Fraction(1) if t == i else Fraction(0) for t in range(self.dim)]

    def index_of(self, label):
        return self.labels.index(label)


def killing_form(g):
    """B[i][j] = trace(ad e_i . ad e_j), exact."""
    d = g.dim
    B = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            s = Fraction(0)
            for k in range(d):
                rik = g.c[i][k]
                for l in range(d):
                    if rik[l]:
                        s += rik[l] * g.c[j][l][k]
            B[i][j] = s
            B[j][i] = s
    return B


def is_ad_invariant(g, B):
    d = g.dim
    for i in range(d):
        for j in range(d):
            for k in range(d):
                lhs = sum(g.c[i][j][t] * B[t][k] for t in range(d))
                rhs = sum(g.c[i][k][t] * B[j][t] for t in range(d))
                if lhs + rhs != 0:
                    return False
    return True


# -- concrete algebras ------------------------------------------------------


def _su_basis(n):
    """Standard basis: torus i(E_jj - E_{j+1,j+1}), then E_jk - E_kj, then i(E_jk + E_kj)."""
    basis = []
    labels = []
    for j in range(n - 1):
        basis.append(_basis_matrix(n, {(j, j): (0, 1), (j + 1, j + 1): (0, -1)}))
        labels.append(f"t{j+1}")
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    for j, k in pairs:
        basis.append(_basis_matrix(n, {(j, k): (1, 0), (k, j): (-1, 0)}))
        labels.append(f"a{j+1}{k+1}")
    for j, k in pairs:
        basis.append(_basis_matrix(n, {(j, k): (0, 1), (k, j): (0, 1)}))
        labels.append(f"s{j+1}{k+1}")
    return basis, labels, pairs


def _su_coordinates(n, m, pairs):
    """Coordinates of an antihermitian traceless matrix in the standard basis."""
    diag_im = [m[j][j][1] for j in range(n)]
    coords = []
    acc = Fraction(0)
    for j in range(n - 1):
        acc += diag_im[j]
        coords.append(acc)
    for j, k in pairs:
        coords.append(m[j][k][0])
    for j, k in pairs:
        coords.append(m[j][k][1])
    return coords


def su(n):
    """su(n) for 2 <= n <= 4, dimension n^2 - 1, Jacobi verified."""
    if not 2 <= n <= 4:
        raise LieAlgebraError(f"su(n) supported for 2 <= n <= 4, got {n}")
    basis, labels, pairs = _su_basis(n)
    d = len(basis)
    structure = []
    for i in range(d):
        row = []
        for j in range(d):
            row.append(_su_coordinates(n, _commutator(basis[i], basis[j]), pairs))
        structure.append(row)
    alg = LieAlgebra(structure, labels, name=f"su{n}")
    alg.matrix_basis = basis
    return alg


_SL3_LABELS = ("H1", "H2", "E1", "E2", "E3", "F1", "F2", "F3")


def _sl3_coordinates(m):
    """Coordinates of a traceless 3x3 rational matrix in the Chevalley basis."""
    d1 = m[0][0][0]
    d2 = m[1][1][0]
    return [d1, d1 + d2,
            m[0][1][0], m[1][2][0], m[0][2][0],
            m[1][0][0], m[2][1][0], m[2][0][0]]


def sl3_chevalley():
    """sl(3) with Chevalley generators H1,H2,E1,E2,E3,F1,F2,F3; E3 = [E1,E2]."""
    E = lambda i, j: _basis_matrix(3, {(i, j): (1, 0)})
    H1 = _basis_matrix(3, {(0, 0): (1, 0), (1, 1): (-1, 0)})
    H2 = _basis_matrix(3, {(1, 1): (1, 0), (2, 2): (-1, 0)})
    basis = [H1, H2, E(0, 1), E(1, 2), E(0, 2), E(1, 0), E(2, 1), E(2, 0)]
    structure = []
    for i in range(8):
        row = []
        for j in range(8):
            row.append(_sl3_coordinates(_commutator(basis[i], basis[j])))
        structure.append(row)
    alg = LieAlgebra(structure, _SL3_LABELS, name="sl3")
    alg.matrix_basis = basis
    return alg


_REGISTRY = {}


def named_algebra(name):
    """Registry of the algebras addressable from the CLI."""
    key = name.lower()
    if key not in _REGISTRY:
        if key == "su2":
            _REGISTRY[key] = su(2)
        elif key == "su3":
            _REGISTRY[key] = su(3)
        elif key == "su4":
            _REGISTRY[key] = su(4)
        elif key == "sl3-chevalley":
            _REGISTRY[key] = sl3_chevalley()
        else:
            raise LieAlgebraError(f"unknown algebra {name!r}; "
                                  "known: su2, su3, su4, sl3-chevalley")
    return _REGISTRY[key]


# -- subalgebras and reductive splits ---------------------------------------


class Subalgebra:
    """Span of the given coefficient vectors; closure under bracket verified."""

    def __init__(self, parent, vectors):
        self.basis = [[Fraction(x) for x in v] for v in vectors]
        if linalg.rank(self.basis) != len(self.basis):
            raise LieAlgebraError("subalgebra basis is linearly dependent")
        for i, u in enumerate(self.basis):
            for v in self.basis[i:]:
                w = parent.bracket(u, v)
                if linalg.solve_in_span(self.basis, w) is None:
                    raise LieAlgebraError("subspace is not closed under the bracket")

    @property
    def dim(self):
        return len(self.basis)


class ReductiveSplit:
    """g = h (+) m with m the B-orthogonal complement; [h, m] <= m verified."""

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
    vec = [Fraction(0)] * g.dim
    vec[g.index_of("t1")] = Fraction(k)
    vec[g.index_of("t2")] = Fraction(k + l)
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
    m_basis, _ = linalg.kernel(rows, g.dim)
    if len(m_basis) + h.dim != g.dim:
        raise LieAlgebraError("internal inconsistency: h not transverse to m")
    for hv in h.basis:
        for mv in m_basis:
            w = g.bracket(hv, mv)
            if linalg.solve_in_span(m_basis, w) is None:
                raise LieAlgebraError("internal inconsistency: [h, m] not inside m")
    return ReductiveSplit(g, h, m_basis, B)


# -- invariant forms on the full algebra ------------------------------------


def biinvariant_three_form(g, B=None):
    """eta(X,Y,Z) = B(X,[Y,Z]) as a grade-3 element of Lambda(g*)."""
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
                val = sum(g.c[j][k][t] * B[i][t] for t in range(d))
                if val:
                    terms[(1 << i) | (1 << j) | (1 << k)] = val
    eta = Multivector(d, terms)
    _verify_three_form_antisymmetry(g, B, eta)
    return eta


def _verify_three_form_antisymmetry(g, B, eta):
    from .exterior import evaluate
    d = g.dim
    for i in range(d):
        for j in range(d):
            for k in range(d):
                direct = sum(g.c[j][k][t] * B[i][t] for t in range(d))
                basis = [g.basis_vector(i), g.basis_vector(j), g.basis_vector(k)]
                if evaluate(eta, basis) != direct:
                    raise LieAlgebraError(
                        "three-form is not totally antisymmetric "
                        "(bilinear form not ad-invariant?)")


def differential_images(brackets):
    """d(e^a) = -sum_{i<j} brackets[i][j][a] e^i ^ e^j as {mask: coeff}, per a."""
    n = len(brackets)
    return [{(1 << i) | (1 << j): -brackets[i][j][a]
             for i in range(n) for j in range(i + 1, n) if brackets[i][j][a]}
            for a in range(n)]


def lie_derivative_images(A):
    """L_A(e^b) = -sum_j A[b][j] e^j as {mask: coeff}, per b, for the action A."""
    return [{1 << j: -x for j, x in enumerate(row) if x} for row in A]
