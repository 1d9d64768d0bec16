"""Exterior algebra over R^n (n <= 16) with exact-rational or float scalars.

Blades are bitmasks over basis indices 0..n-1 in increasing-index
orientation.  Every blade sign comes from one rule, `_odd_above`: the
concatenation sign of two disjoint blades is the parity of index inversions
between them.  One routine, `derivation`, applies a blade operator: d, L_X
and the interior product are its degree 1, 0 and -1 cases.  The interior
product contracts the first slot: i_v(a)(w_2,...,w_k) = a(v, w_2,...,w_k),
so contracting the j-th slot (0-indexed) of a blade contributes (-1)^j.

Scalar kinds never mix: a Multivector is either exact (Fraction) or float.
Proof-side code stays exact; the numerical search uses the float kind.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from . import linalg
from .errors import DimensionMismatchError, GradeError, MetricError, ScalarKindError

MAX_DIM = 16

EXACT = "exact"
FLOAT = "float"


def _blade_name(mask):
    """`e` followed by the 1-based indices of the blade, `1` for the unit."""
    if mask == 0:
        return "1"
    return "e" + "".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)


def _coerce(value, kind):
    if kind == EXACT:
        if isinstance(value, float):
            raise ScalarKindError("float coefficient in an exact multivector")
        # ints stay ints: cheaper than Fraction in the hot exact paths
        return value if isinstance(value, int) else Fraction(value)
    return float(value)


def _infer_kind(values):
    kinds = {FLOAT if isinstance(v, float) else EXACT for v in values}
    if len(kinds) > 1:
        raise ScalarKindError("mixed exact and float coefficients")
    return kinds.pop() if kinds else None


def _odd_above(a_mask):
    """Mask of the positions with an odd number of bits of a_mask above them.

    For b disjoint from a, e_A ^ e_B has sign -1 exactly when b & mask has
    odd popcount: each bit i of a flips the positions below it."""
    mask = 0
    mm = a_mask
    while mm:
        low = mm & -mm
        mask ^= low - 1
        mm ^= low
    return mask


def wedge_sign(a_mask, b_mask):
    """Sign of e_A ^ e_B for disjoint masks: parity of index inversions."""
    return -1 if (b_mask & _odd_above(a_mask)).bit_count() & 1 else 1


class Multivector:
    """Immutable element of Lambda(R^n); sparse blade->coefficient storage."""

    __slots__ = ("n", "kind", "_terms")

    def __init__(self, n, terms=None, kind=None):
        if not 0 < n <= MAX_DIM:
            raise DimensionMismatchError(f"dimension must be in 1..{MAX_DIM}, got {n}")
        self.n = n
        terms = dict(terms or {})
        inferred = _infer_kind(terms.values())
        if kind is None:
            kind = inferred or EXACT
        elif inferred is not None and inferred != kind:
            raise ScalarKindError(f"coefficients are {inferred}, requested {kind}")
        self.kind = kind
        clean = {}
        for mask, c in terms.items():
            if mask < 0 or mask >= (1 << n):
                raise DimensionMismatchError(f"blade mask {mask:#x} outside 2^{n}")
            c = _coerce(c, kind)
            if c != 0:
                clean[mask] = c
        self._terms = clean

    @classmethod
    def _trusted(cls, n, kind, terms):
        """Result of arithmetic on validated operands of one kind: the
        coefficients already have that kind and the masks fit in 2^n, so
        only the cancelled zeros are dropped."""
        mv = object.__new__(cls)
        mv.n = n
        mv.kind = kind
        mv._terms = {m: c for m, c in terms.items() if c != 0}
        return mv

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n, kind=EXACT):
        return cls(n, {}, kind)

    @classmethod
    def unit(cls, n, kind=EXACT):
        return cls(n, {0: 1 if kind == EXACT else 1.0}, kind)

    @classmethod
    def blade(cls, n, indices):
        """Blade from 0-based index tuple; repeated indices give zero."""
        mask = 0
        sign = 1
        for i in indices:
            bit = 1 << i
            if mask & bit:
                return cls.zero(n)
            # insertion sign: parity of already-present indices above i
            if (mask >> (i + 1)).bit_count() & 1:
                sign = -sign
            mask |= bit
        return cls(n, {mask: sign})

    @classmethod
    def volume(cls, n, kind=EXACT):
        return cls(n, {(1 << n) - 1: 1 if kind == EXACT else 1.0}, kind)

    # -- inspection ---------------------------------------------------------

    def coeff_mask(self, mask):
        return self._terms.get(mask, _coerce(0, self.kind))

    def is_zero(self):
        return not self._terms

    def grades(self):
        return sorted({m.bit_count() for m in self._terms})

    def grade(self):
        """The common grade of all terms, or None for zero/inhomogeneous."""
        gs = self.grades()
        return gs[0] if len(gs) == 1 else None

    def homogeneous_grade(self):
        if self.is_zero():
            return None
        g = self.grade()
        if g is None:
            raise GradeError(f"multivector is inhomogeneous: grades {self.grades()}")
        return g

    def terms_dict(self):
        return dict(self._terms)

    # -- arithmetic ---------------------------------------------------------

    def _check_compat(self, other):
        if self.n != other.n:
            raise DimensionMismatchError(f"dimensions differ: {self.n} vs {other.n}")
        if self.kind != other.kind:
            raise ScalarKindError(f"scalar kinds differ: {self.kind} vs {other.kind}")

    def __add__(self, other):
        self._check_compat(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            acc = terms.get(m)
            terms[m] = c if acc is None else acc + c
        return Multivector._trusted(self.n, self.kind, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Multivector._trusted(self.n, self.kind,
                                    {m: -c for m, c in self._terms.items()})

    def scale(self, s):
        s = _coerce(s, self.kind)
        return Multivector._trusted(self.n, self.kind,
                                    {m: c * s for m, c in self._terms.items()})

    def __eq__(self, other):
        return (isinstance(other, Multivector) and self.n == other.n
                and self.kind == other.kind and self._terms == other._terms)

    def __hash__(self):
        return hash((self.n, self.kind, tuple(sorted(self._terms.items()))))

    def wedge(self, other):
        self._check_compat(other)
        out = {}
        right = other._terms.items()
        for ma, ca in self._terms.items():
            odd = _odd_above(ma)
            for mb, cb in right:
                if ma & mb:
                    continue
                c = ca * cb
                if (mb & odd).bit_count() & 1:
                    c = -c
                m = ma | mb
                acc = out.get(m)
                out[m] = c if acc is None else acc + c
        return Multivector._trusted(self.n, self.kind, out)

    def __repr__(self):
        if self.is_zero():
            return f"Multivector({self.n}, 0)"
        parts = [f"{c}*{_blade_name(m)}" for (m, c) in sorted(self._terms.items())]
        return f"Multivector({self.n}, {' + '.join(parts)})"


def wedge(a, b):
    """Graded-commutative product; sign by blade-inversion parity."""
    return a.wedge(b)


def derivation_terms(images, mask):
    """Terms (mask, coeff) of D(e^I) for the derivation D with D(e^b) = images[b].

    `images[b]` is the {mask: coeff} form of D(e^b).  For I = b_0 < ... < b_k
    and Y_t = D(e^{b_t}),

        D(e^I) = sum_t (-1)^t Y_t ^ e^{I minus b_t}

    for a derivation of any degree: the degree 1 antiderivation d (Y_t a
    2-form), a degree 0 Lie derivative (Y_t a 1-form) and the degree -1
    contraction i_v (Y_t the scalar v_{b_t}, mask 0).  The slot sign
    (-1)^(t*deg D) and the sign (-1)^(t*(deg D + 1)) of moving Y_t past t
    covectors combine to (-1)^t.  Terms may repeat a mask; callers sum them.
    """
    slot_sign = 1
    mm = mask
    while mm:
        low = mm & -mm
        rest = mask ^ low
        for y, c in images[low.bit_length() - 1].items():
            if not y & rest:
                yield y | rest, slot_sign * wedge_sign(y, rest) * c
        slot_sign = -slot_sign
        mm ^= low


def derivation(images, form):
    """D(form) for the derivation of `derivation_terms`, in the form's kind.

    The one routine that applies a blade operator: `d` and `L_X` on the
    invariant complex, and `interior`, the degree -1 case with images
    {0: v_b}."""
    if len(images) != form.n:
        raise DimensionMismatchError(f"derivation on {len(images)} covectors "
                                     f"applied in dimension {form.n}")
    out = {}
    for mask, c in form._terms.items():
        for m, x in derivation_terms(images, mask):
            acc = out.get(m)
            out[m] = c * x if acc is None else acc + c * x
    return Multivector._trusted(form.n, form.kind, out)


def interior(v, a):
    """Contraction of the first slot of `a` with the vector `v`.

    The degree -1 antiderivation with i_v(e^b) = v_b: removing the j-th
    (0-indexed) index of a blade contributes (-1)^j.
    """
    if len(v) != a.n:
        raise DimensionMismatchError(f"vector length {len(v)} != dimension {a.n}")
    k = a.homogeneous_grade()
    if k is None:
        return Multivector.zero(a.n, a.kind)
    if k == 0:
        raise GradeError("interior product of a grade-0 multivector")
    coeffs = [_coerce(x, a.kind) for x in v]
    return derivation([{0: x} if x else {} for x in coeffs], a)


def evaluate(a, vectors):
    """Full antisymmetric evaluation a(v_1,...,v_k); equals iterated interiors."""
    k = a.homogeneous_grade()
    if k is None:
        k = 0 if not vectors else len(vectors)
    if len(vectors) != k and not a.is_zero():
        raise GradeError(f"grade {k} form evaluated on {len(vectors)} vectors")
    acc = a
    for v in vectors:
        if acc.is_zero():
            break
        acc = interior(v, acc)
    return acc.coeff_mask(0)


def _two_form_matrix(a):
    """The skew matrix of a 2-form: row i holds the coefficients of i_{e_i} a."""
    if a.is_zero():
        return [[0] * a.n for _ in range(a.n)]
    if a.homogeneous_grade() != 2:
        raise GradeError("expected a 2-form")
    if a.kind != EXACT:
        raise ScalarKindError("rank/kernel analysis requires exact scalars")
    rows = (interior([int(i == j) for j in range(a.n)], a) for i in range(a.n))
    return [[row.coeff_mask(1 << j) for j in range(a.n)] for row in rows]


def two_form_rank(a):
    """Rank of the skew matrix of a 2-form; always even."""
    return linalg.rank(_two_form_matrix(a))


def two_form_kernel(a):
    """Exact basis of {v : i_v a = 0}."""
    basis, _ = linalg.kernel(_two_form_matrix(a), a.n)
    return basis


class FrameMetric:
    """SPD Gram matrix of the coordinate coframe.

    Positive-definiteness is certified on construction by exact leading
    principal minors.  The Hodge star is only defined for diagonal Gram
    matrices (the root-adapted bases used here are always orthogonal).
    """

    __slots__ = ("n", "gram")

    def __init__(self, gram):
        n = len(gram)
        if not 0 < n <= MAX_DIM:
            raise MetricError(f"dimension must be in 1..{MAX_DIM}")
        g = [[Fraction(x) for x in row] for row in gram]
        if any(len(row) != n for row in g):
            raise MetricError("Gram matrix is not square")
        for i in range(n):
            for j in range(i):
                if g[i][j] != g[j][i]:
                    raise MetricError("Gram matrix is not symmetric")
        if not linalg.is_positive_definite(g):
            raise MetricError("Gram matrix is not positive definite")
        self.n = n
        self.gram = tuple(tuple(row) for row in g)

    @classmethod
    def euclidean(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries):
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def is_diagonal(self):
        return all(self.gram[i][j] == 0
                   for i in range(self.n) for j in range(self.n) if i != j)

    def diagonal_entries(self):
        return [self.gram[i][i] for i in range(self.n)]


def _exact_sqrt(q):
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def hodge_star(a, metric, scale=None):
    """Hodge star for a diagonal rational coframe metric.

    The factor 1/sqrt(det G) in front of the star must be rational for the
    result to stay exact; pass `scale` to substitute the overall scale by
    hand (harmonicity verdicts are scale-invariant).
    """
    if metric.n != a.n:
        raise DimensionMismatchError("metric dimension mismatch")
    if not metric.is_diagonal():
        raise MetricError("Hodge star supports only diagonal Gram matrices")
    a.homogeneous_grade()  # raises for inhomogeneous input
    diag = metric.diagonal_entries()
    if scale is None:
        d = Fraction(1)
        for h in diag:
            d *= h
        root = _exact_sqrt(d)
        if root is None:
            raise MetricError(
                "det(Gram) has no rational square root; pass an explicit scale")
        scale = Fraction(1) / root
    full = (1 << a.n) - 1
    out = {}
    for mask, c in a._terms.items():
        comp = full ^ mask
        norm = Fraction(1)
        mm = mask
        while mm:
            low = mm & -mm
            norm *= diag[low.bit_length() - 1]
            mm ^= low
        factor = wedge_sign(mask, comp) * norm
        if a.kind == FLOAT:
            out[comp] = c * float(factor * Fraction(scale)) if isinstance(scale, Fraction) else c * float(factor) * scale
        else:
            out[comp] = c * factor * scale
    return Multivector(a.n, out, a.kind)


def grade_masks(n, k):
    """The grade-k blade masks over R^n, in increasing order."""
    return [m for m in range(1 << n) if m.bit_count() == k]


def lefschetz_matrix(omega):
    """Matrix of a -> a ^ omega from 2-forms to 4-forms in dimension six."""
    if omega.n != 6:
        raise DimensionMismatchError("Lefschetz map implemented for n = 6 only")
    if not omega.is_zero() and omega.homogeneous_grade() != 2:
        raise GradeError("expected a 2-form")
    masks2 = grade_masks(6, 2)
    masks4 = grade_masks(6, 4)
    index4 = {m: i for i, m in enumerate(masks4)}
    zero = _coerce(0, omega.kind)
    mat = [[zero] * len(masks2) for _ in range(len(masks4))]
    for col, m2 in enumerate(masks2):
        image = Multivector(6, {m2: 1 if omega.kind == EXACT else 1.0},
                            omega.kind).wedge(omega)
        for mask, c in image._terms.items():
            mat[index4[mask]][col] = c
    return mat
