"""Exterior algebra over R^n (n <= 16) with exact rational scalars.

Blades are bitmasks over basis indices 0..n-1 in increasing-index
orientation, and a form is a term dict {mask: x}.  Every blade sign comes
from one rule, `_odd_above`: the concatenation sign of two disjoint blades
is the parity of index inversions between them, and one loop, `wedge_terms`,
wedges.  One routine, `derivation_terms`, applies a blade operator: d, L_X
and the interior product i_v, which contracts the first slot, are its
degree 1, 0 and -1 cases.  `interior`, `evaluate`, `two_form_rank`,
`two_form_kernel` and `lefschetz_matrix` take term dicts.

A Multivector's coefficients, and the entries of a vector contracted by
`interior`, are ints and Fractions only: a bool is stored as an int, and a
value that is not a rational number (a float, a numpy float) raises
ScalarKindError.  The numerical search works on numpy arrays of its own and
builds no Multivector.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, prod
from numbers import Rational

from . import linalg
from .errors import DimensionMismatchError, GradeError, MetricError, ScalarKindError

MAX_DIM = 16
_BLADES = (1 << MAX_DIM) - 1  # the blade bits of a tagged mask


def _blade_name(mask):
    """`e` followed by the 1-based indices of the blade, `1` for the unit."""
    if mask == 0:
        return "1"
    return "e" + "".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)


def form_text(n, terms):
    """`Multivector(n, c*e12 + ...)` for (mask, coeff) pairs in the given
    order, `Multivector(n, 0)` for none: the one text form of a form, for
    exact Multivectors and the search's float points alike."""
    parts = " + ".join(f"{c}*{_blade_name(m)}" for m, c in terms)
    return f"Multivector({n}, {parts or 0})"


def _grades(terms, n, blades=-1):
    """The grades of a form's nonzero terms over R^n, read in the mask bits
    `blades` (`_BLADES` lets tags pass); a blade outside R^n raises."""
    if max((m & blades for m in terms), default=0) >> n:
        raise DimensionMismatchError(f"blade mask outside 2^{n}")
    return {(m & blades).bit_count() for m, c in terms.items() if c}


def _coerce(value):
    """An exact scalar as an int or a Fraction: a bool becomes an int, and a
    value that is not a rational number (a float, a numpy float) raises."""
    # ints stay ints: cheaper than Fraction in the hot exact paths
    if type(value) is int:
        return value
    if isinstance(value, int):  # a bool, or another int subclass
        return int(value)
    if isinstance(value, Rational):
        return Fraction(value)
    raise ScalarKindError(f"{type(value).__name__} coefficient in an exact "
                          "multivector")


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


def wedge_terms(left, right, out=None):
    """The terms {mask: coeff} of left ^ right, added into `out` if given.

    The masks of either operand may carry a tag from bit MAX_DIM up: it takes
    no part in the sign and passes to the product, so one call wedges every
    tagged form at once.  Tags on both operands must lie in disjoint bit
    ranges, such as `i << MAX_DIM` and `j << 2 * MAX_DIM`, or the overlap
    test would read a shared tag bit as a shared index.  Cancelled zeros stay."""
    out = {} if out is None else out
    right = right.items()
    for ma, ca in left.items():
        odd = _odd_above(ma & _BLADES)
        for mb, cb in right:
            if ma & mb:
                continue
            c = ca * cb
            if (mb & odd).bit_count() & 1:
                c = -c
            m = ma | mb
            acc = out.get(m)
            out[m] = c if acc is None else acc + c
    return out


class Multivector:
    """Immutable element of Lambda(R^n); sparse blade->coefficient storage."""

    __slots__ = ("n", "_terms")

    def __init__(self, n, terms=None):
        if not 0 < n <= MAX_DIM:
            raise DimensionMismatchError(f"dimension must be in 1..{MAX_DIM}, got {n}")
        self.n = n
        clean = {}
        for mask, c in (terms or {}).items():
            if mask < 0 or mask >= (1 << n):
                raise DimensionMismatchError(f"blade mask {mask:#x} outside 2^{n}")
            c = _coerce(c)
            if c != 0:
                clean[mask] = c
        self._terms = clean

    @classmethod
    def _trusted(cls, n, terms):
        """Result of arithmetic on validated operands: the coefficients are
        already ints or Fractions and the masks fit in 2^n, so only the
        cancelled zeros are dropped."""
        mv = object.__new__(cls)
        mv.n = n
        mv._terms = {m: c for m, c in terms.items() if c != 0}
        return mv

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls(n, {})

    @classmethod
    def unit(cls, n):
        return cls(n, {0: 1})

    # -- inspection ---------------------------------------------------------

    def coeff_mask(self, mask):
        return self._terms.get(mask, 0)

    def is_zero(self):
        return not self._terms

    def homogeneous_grade(self):
        grades = _grades(self._terms, self.n)
        if len(grades) > 1:
            raise GradeError(f"multivector is inhomogeneous: grades {sorted(grades)}")
        return grades.pop() if grades else None

    def terms_dict(self):
        return dict(self._terms)

    # -- arithmetic ---------------------------------------------------------

    def _check_compat(self, other):
        if self.n != other.n:
            raise DimensionMismatchError(f"dimensions differ: {self.n} vs {other.n}")

    def __add__(self, other):
        self._check_compat(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            acc = terms.get(m)
            terms[m] = c if acc is None else acc + c
        return Multivector._trusted(self.n, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Multivector._trusted(self.n, {m: -c for m, c in self._terms.items()})

    def scale(self, s):
        s = _coerce(s)
        return Multivector._trusted(self.n, {m: c * s for m, c in self._terms.items()})

    def __eq__(self, other):
        return (isinstance(other, Multivector) and self.n == other.n
                and self._terms == other._terms)

    def __hash__(self):
        return hash((self.n, tuple(sorted(self._terms.items()))))

    def wedge(self, other):
        self._check_compat(other)
        return Multivector._trusted(self.n, wedge_terms(self._terms, other._terms))

    def __repr__(self):
        return form_text(self.n, sorted(self._terms.items()))


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


def interior(v, a):
    """i_v a for the form `a` over R^n, n = len(v), without zeros: the degree
    -1 antiderivation with i_v(e^b) = v_b, contracting the first slot.  Tags
    on the masks (see `wedge_terms`) pass to the result, so one call
    contracts every tagged form at once."""
    if 0 in _grades(a, len(v), _BLADES):
        raise GradeError("interior product of a grade-0 form")
    images = [{0: x} if x else {} for x in map(_coerce, v)]
    out = {}
    for mask, c in a.items():
        tag = mask & ~_BLADES
        for m, x in derivation_terms(images, mask & _BLADES):
            acc = out.get(m | tag)
            out[m | tag] = c * x if acc is None else acc + c * x
    return {m: x for m, x in out.items() if x}


def evaluate(a, vectors):
    """a(v_1,...,v_k) for the k-form `a`, by iterated interiors."""
    if _grades(a, MAX_DIM) - {len(vectors)}:
        raise GradeError(f"form of another grade evaluated on {len(vectors)} vectors")
    for v in vectors:
        a = interior(v, a)
    return a.get(0, 0)


def _two_form_matrix(a, n):
    """The skew matrix of the 2-form `a` over R^n: row i, column j holds
    a(e_i, e_j), the coefficient of e_j in i_{e_i} a."""
    if _grades(a, n) - {2}:
        raise GradeError("expected a 2-form")
    mat = [[0] * n for _ in range(n)]
    for mask, c in a.items():
        if c:
            i, j = (mask & -mask).bit_length() - 1, mask.bit_length() - 1
            mat[i][j], mat[j][i] = c, -c
    return mat


def two_form_rank(a, n):
    """Rank of the skew matrix of the 2-form `a` over R^n; always even."""
    return linalg.rank(_two_form_matrix(a, n))


def two_form_kernel(a, n):
    """Exact basis of {v in R^n : i_v a = 0}: `linalg.kernel`'s {i: x} vectors."""
    return linalg.kernel(_two_form_matrix(a, n), n)[0]


def _exact_sqrt(q):
    num, den = q.numerator, q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def hodge_star(a, metric, scale=None):
    """Hodge star for the diagonal rational coframe metric `metric`, the
    positive entries G_ii of an orthogonal coframe's Gram matrix (the
    root-adapted bases used here are always orthogonal).

    The factor 1/sqrt(det G) in front of the star must be rational for the
    result to stay exact; pass `scale` to substitute the overall scale by
    hand (harmonicity verdicts are scale-invariant).
    """
    if len(metric) != a.n:
        raise DimensionMismatchError("metric dimension mismatch")
    diag = [Fraction(h) for h in metric]
    if any(h <= 0 for h in diag):
        raise MetricError(f"metric entries {[str(h) for h in diag]} are not all positive")
    a.homogeneous_grade()  # raises for inhomogeneous input
    if scale is None:
        root = _exact_sqrt(prod(diag, start=Fraction(1)))
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
        out[comp] = c * wedge_sign(mask, comp) * norm * scale
    return Multivector(a.n, out)


def grade_masks(n, k):
    """The grade-k blade masks over R^n, in increasing order."""
    return [m for m in range(1 << n) if m.bit_count() == k]


def lefschetz_matrix(omega):
    """Matrix of a -> a ^ omega from 2-forms to 4-forms in dimension six: one
    wedge of the 2-blades, each tagged by its column, with the 2-form omega."""
    if _grades(omega, 6) - {2}:
        raise GradeError("expected a 2-form")
    index4 = {m: i for i, m in enumerate(grade_masks(6, 4))}
    mat = [[0] * 15 for _ in range(15)]
    twos = {m | col << MAX_DIM: 1 for col, m in enumerate(grade_masks(6, 2))}
    for key, c in wedge_terms(twos, {m: c for m, c in omega.items() if c}).items():
        mat[index4[key & _BLADES]][key >> MAX_DIM] = c
    return mat
