"""Finitely presented graded-commutative algebras over Q.

Degreewise normal forms by exact linear algebra over monomials: the span of
all monomial multiples of the relations is eliminated per degree, and the
surviving monomials form the quotient basis.  Odd generators square to zero
implicitly; products pick up the usual graded sign.  Top degrees here never
exceed 12 and there are at most three degree-2 generators, so no Groebner
machinery is needed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import linalg
from .errors import RingError

# -- polynomials -------------------------------------------------------------


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int


class GradedPoly:
    """Polynomial in graded-commutative generators; terms: exps tuple -> Fraction."""

    __slots__ = ("gens", "terms")

    def __init__(self, gens, terms=None):
        self.gens = tuple(gens)
        clean = {}
        for exps, c in (terms or {}).items():
            c = Fraction(c)
            if c == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(self.gens):
                raise RingError("exponent tuple length mismatch")
            if any(e < 0 for e in exps):
                raise RingError("negative exponent")
            if any(e > 1 for e, g in zip(exps, self.gens) if g.degree % 2 == 1):
                continue  # odd generators square to zero
            clean[exps] = clean.get(exps, Fraction(0)) + c
        self.terms = {e: c for e, c in clean.items() if c != 0}

    @classmethod
    def zero(cls, gens):
        return cls(gens, {})

    @classmethod
    def generator(cls, gens, name):
        idx = [g.name for g in gens].index(name)
        exps = tuple(1 if i == idx else 0 for i in range(len(gens)))
        return cls(gens, {exps: 1})

    @classmethod
    def constant(cls, gens, c):
        return cls(gens, {tuple(0 for _ in gens): c})

    def is_zero(self):
        return not self.terms

    def monomial_degree(self, exps):
        return sum(e * g.degree for e, g in zip(exps, self.gens))

    def degree(self):
        """Common degree of all terms; None for 0; raises if inhomogeneous."""
        degs = {self.monomial_degree(e) for e in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise RingError(f"inhomogeneous polynomial: degrees {sorted(degs)}")
        return degs.pop()

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return GradedPoly(self.gens, terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return GradedPoly(self.gens, {e: x * c for e, x in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                se = _mul_exps(self.gens, e1, e2)
                if se is None:
                    continue
                sign, exps = se
                out[exps] = out.get(exps, Fraction(0)) + sign * c1 * c2
        return GradedPoly(self.gens, out)

    def power(self, k):
        acc = GradedPoly.constant(self.gens, 1)
        for _ in range(k):
            acc = acc * self
        return acc

    def _check(self, other):
        if self.gens != other.gens:
            raise RingError("polynomials over different generator sets")

    def __eq__(self, other):
        return (isinstance(other, GradedPoly) and self.gens == other.gens
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.gens, tuple(sorted(self.terms.items()))))

    def map_generators(self, new_gens, images):
        """Substitute each generator by a polynomial over `new_gens`."""
        out = GradedPoly.zero(new_gens)
        for exps, c in self.terms.items():
            term = GradedPoly.constant(new_gens, c)
            for e, g in zip(exps, self.gens):
                img = images[g.name]
                for _ in range(e):
                    term = term * img
            out = out + term
        return out

    def antiderivation(self, images):
        """The image under the odd derivation D with D(g) = images[g.name]:
        D(ab) = D(a) b + (-1)^|a| a D(b).  Every generator of every term
        needs an image."""
        out = GradedPoly.zero(self.gens)
        zeros = (0,) * len(self.gens)
        for exps, c in self.terms.items():
            before = 0  # degree of the factors before g
            for k, (e, g) in enumerate(zip(exps, self.gens)):
                if e:  # D(g^e) = e g^(e-1) D(g); e = 1 for odd g
                    head = exps[:k] + (e - 1,) + zeros[k + 1:]
                    tail = zeros[:k + 1] + exps[k + 1:]
                    sign = -1 if before % 2 else 1
                    out = out + (GradedPoly(self.gens, {head: sign * e * c})
                                 * images[g.name]
                                 * GradedPoly(self.gens, {tail: 1}))
                    before += e * g.degree
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}" if not any(exps) else
                          f"{c}*{monomial_string(self.gens, exps)}"
                          for exps, c in sorted(self.terms.items(), reverse=True))


def monomial_string(gens, exps):
    """`x^2*y` for the exponents (2, 1) over generators (x, y); `1` for the
    unit monomial."""
    return "*".join(f"{g.name}^{e}" if e > 1 else g.name
                    for e, g in zip(exps, gens) if e) or "1"


def poly_to_string(poly):
    """Serialize a GradedPoly into a string `parse_poly` accepts."""
    if poly.is_zero():
        return "0"
    bits = []
    for exps, c in sorted(poly.terms.items()):
        if not any(exps):
            bits.append(str(c))
        else:
            mono = monomial_string(poly.gens, exps)
            bits.append(f"{c}*{mono}" if c != 1 else mono)
    return " + ".join(bits)


def generators_to_spec(gens):
    """The JSON form `[[name, degree], ...]` of a generator list."""
    return [[g.name, g.degree] for g in gens]


def generators_from_spec(spec):
    return tuple(Generator(n, int(d)) for n, d in spec)


def _mul_exps(gens, e1, e2):
    """Graded product of canonical monomials; None when an odd gen repeats."""
    odd1 = [e for e, g in zip(e1, gens) if g.degree % 2 == 1]
    odd2 = [e for e, g in zip(e2, gens) if g.degree % 2 == 1]
    for a, b in zip(odd1, odd2):
        if a and b:
            return None
    # inversions: pairs (i in e1, j in e2) with i > j, both odd
    swaps = 0
    for jj in range(len(odd1)):
        if odd2[jj]:
            swaps += sum(odd1[ii] for ii in range(jj + 1, len(odd1)))
    exps = tuple(a + b for a, b in zip(e1, e2))
    return (-1 if swaps % 2 else 1), exps


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
                    r"|(?P<pow>\^|\*\*)|(?P<mul>\*)|(?P<sign>[+-]))")


def parse_poly(text, gens):
    """Parse 'x*y - 2*y^2 + 1/2*x^2' into a GradedPoly."""
    by_name = {g.name: i for i, g in enumerate(gens)}
    pos = 0
    terms = {}
    sign = 1
    coeff = None
    exps = None

    def flush():
        nonlocal coeff, exps, sign
        if exps is None and coeff is None:
            return
        c = Fraction(sign) * (coeff if coeff is not None else Fraction(1))
        e = exps if exps is not None else tuple(0 for _ in gens)
        terms[e] = terms.get(e, Fraction(0)) + c
        coeff, exps, sign = None, None, 1

    last = None
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise RingError(f"cannot parse polynomial near {text[pos:pos+12]!r}")
        pos = m.end()
        if m.group("sign"):
            if last in (None, "sign", "op"):
                if m.group("sign") == "-":
                    sign = -sign
                last = "sign"
            else:
                flush()
                sign = -1 if m.group("sign") == "-" else 1
                last = "sign"
        elif m.group("num"):
            if coeff is None:
                coeff = Fraction(m.group("num"))
            else:
                coeff *= Fraction(m.group("num"))
            last = "atom"
        elif m.group("name"):
            name = m.group("name")
            if name not in by_name:
                raise RingError(f"unknown generator {name!r}")
            if exps is None:
                exps = (0,) * len(gens)
            power = 1
            m2 = _TOKEN.match(text, pos)
            if m2 and m2.group("pow"):
                pos = m2.end()
                m3 = _TOKEN.match(text, pos)
                if not m3 or not m3.group("num") or "/" in m3.group("num"):
                    raise RingError("exponent must be a positive integer")
                power = int(m3.group("num"))
                pos = m3.end()
            # multiply on the right, with the graded sign of the reordering
            factor = tuple(power if i == by_name[name] else 0
                           for i in range(len(gens)))
            product = _mul_exps(gens, exps, factor)
            if product is None:  # a repeated odd factor
                coeff = Fraction(0)
            else:
                swap_sign, exps = product
                sign *= swap_sign
            last = "atom"
        elif m.group("mul") or m.group("pow"):
            if last != "atom":
                raise RingError("misplaced operator")
            last = "op"
    flush()
    return GradedPoly(gens, terms)


# -- presentations and normal-form tables ------------------------------------


class RingPresentation:
    """Generators with positive degrees, homogeneous relations, a top degree.

    `volume_monomial` optionally designates which top-degree monomial should
    survive as the quotient basis of the top graded piece.
    """

    def __init__(self, generators, relations, top, volume_monomial=None, name=""):
        self.gens = generators_from_spec(generators)
        if any(g.degree <= 0 for g in self.gens):
            raise RingError("generator degrees must be positive")
        self.top = int(top)
        self.name = name
        rels = []
        for r in relations:
            poly = parse_poly(r, self.gens) if isinstance(r, str) else r
            if poly.is_zero():
                continue
            d = poly.degree()  # raises if inhomogeneous
            if d > self.top:
                raise RingError(f"relation degree {d} exceeds top {self.top}")
            rels.append(poly)
        self.relations = tuple(rels)
        if volume_monomial is not None and isinstance(volume_monomial, str):
            poly = parse_poly(volume_monomial, self.gens)
            if len(poly.terms) != 1:
                raise RingError("volume monomial must be a single monomial")
            ((volume_monomial, c),) = poly.terms.items()
            if c != 1:
                raise RingError("volume monomial must have coefficient 1")
        self.volume_monomial = volume_monomial

    def spec(self):
        """The JSON form of the presentation, which `from_spec` reads back."""
        return {
            "name": self.name,
            "generators": generators_to_spec(self.gens),
            "relations": [poly_to_string(r) for r in self.relations],
            "top": self.top,
            "volume": (None if self.volume_monomial is None else
                       monomial_string(self.gens, self.volume_monomial)),
        }

    @classmethod
    def from_spec(cls, spec):
        return cls(spec["generators"], list(spec["relations"]), spec["top"],
                   volume_monomial=spec["volume"], name=spec.get("name", ""))

    def poly(self, text):
        return parse_poly(text, self.gens)


def _monomials_of_degree(gens, degree):
    """All exponent tuples of the given total degree (odd exps <= 1)."""
    out = []

    def rec(i, remaining, acc):
        if i == len(gens):
            if remaining == 0:
                out.append(tuple(acc))
            return
        g = gens[i]
        maxe = remaining // g.degree
        if g.degree % 2 == 1:
            maxe = min(maxe, 1)
        for e in range(maxe + 1):
            acc.append(e)
            rec(i + 1, remaining - e * g.degree, acc)
            acc.pop()

    rec(0, degree, [])
    return out


class NormalFormTable:
    """Degreewise monomial bases and reduction onto the quotient."""

    def __init__(self, presentation):
        self.presentation = presentation
        gens = presentation.gens
        self.monomials = {}
        self._reduction = {}
        self.basis = {}
        for d in range(presentation.top + 1):
            monos = _monomials_of_degree(gens, d)
            if (d == presentation.top and presentation.volume_monomial is not None):
                vm = presentation.volume_monomial
                if vm not in monos:
                    raise RingError("designated volume monomial has wrong degree")
                monos = [m for m in monos if m != vm] + [vm]
            index = {m: i for i, m in enumerate(monos)}
            rows = []
            for rel in presentation.relations:
                rd = rel.degree()
                if rd > d:
                    continue
                for mult in _monomials_of_degree(gens, d - rd):
                    prod = rel * GradedPoly(gens, {mult: 1})
                    if prod.is_zero():
                        continue
                    row = [Fraction(0)] * len(monos)
                    for e, c in prod.terms.items():
                        row[index[e]] = c
                    rows.append(row)
            red, pivots = linalg.rref(rows) if rows else ([], [])
            pivot_set = set(pivots)
            self.monomials[d] = monos
            self._reduction[d] = (red[: len(pivots)], pivots)
            self.basis[d] = [monos[i] for i in range(len(monos))
                             if i not in pivot_set]
            if (d == presentation.top and presentation.volume_monomial is not None
                    and presentation.volume_monomial not in self.basis[d]):
                raise RingError("designated volume monomial is reducible")

    def reduce(self, poly):
        """Canonical coordinates of `poly` in the quotient basis of its degree.

        Returns a {basis_monomial: Fraction} dict; ring equality is equality
        of reduced forms.
        """
        if isinstance(poly, str):
            poly = self.presentation.poly(poly)
        if poly.is_zero():
            return {}
        d = poly.degree()
        if d > self.presentation.top:
            raise RingError(f"degree {d} exceeds top {self.presentation.top}")
        monos = self.monomials[d]
        index = {m: i for i, m in enumerate(monos)}
        vec = [Fraction(0)] * len(monos)
        for e, c in poly.terms.items():
            vec[index[e]] = c
        red, pivots = self._reduction[d]
        for row, pc in zip(red, pivots):
            f = vec[pc]
            if f:
                vec = [a - f * b for a, b in zip(vec, row)]
        return {monos[i]: vec[i] for i in range(len(monos)) if vec[i]}

    def reduce_poly(self, poly):
        if isinstance(poly, str):
            poly = self.presentation.poly(poly)
        return GradedPoly(self.presentation.gens, self.reduce(poly))

    def is_ring_zero(self, poly):
        return not self.reduce(poly)

    def betti(self):
        return [len(self.basis[d]) if d in self.basis else 0
                for d in range(self.presentation.top + 1)]

    def monomial_name(self, exps):
        return monomial_string(self.presentation.gens, exps)


# presentation content -> its table, shared by every caller in the process;
# no caller mutates a table
_TABLES = {}


def build_table(presentation):
    """The normal-form table of `presentation`, built once per process for
    each distinct content: generator names and degrees, each relation's
    sorted terms in order, top, volume monomial and name.  The key is the
    content, not the spec text, so two presentations share a table only
    when they are equal."""
    p = presentation
    vol = None if p.volume_monomial is None else tuple(p.volume_monomial)
    key = (p.gens, tuple(tuple(sorted(r.terms.items())) for r in p.relations),
           p.top, vol, p.name)
    if key not in _TABLES:
        _TABLES[key] = NormalFormTable(presentation)
    return _TABLES[key]


def _generator_change(old_gens, assignments):
    """Invert a linear change of the degree-2 generators.

    `assignments` names each new degree-2 generator by a combination of the
    old ones.  Returns `(new_gens, images)`: the new degree-2 generators
    followed by the other old generators, and each old generator's image as
    a polynomial over `new_gens`."""
    deg2 = [g for g in old_gens if g.degree == 2]
    others = [g for g in old_gens if g.degree != 2]
    new_names = list(assignments.keys())
    if len(new_names) != len(deg2):
        raise RingError("assignment must cover exactly the degree-2 generators")
    mat = []
    for name in new_names:
        poly = assignments[name]
        if isinstance(poly, str):
            poly = parse_poly(poly, old_gens)
        if poly.is_zero() or poly.degree() != 2:
            raise RingError("assignments must be degree-2 combinations")
        row = []
        for g in deg2:
            exps = tuple(1 if h.name == g.name else 0 for h in old_gens)
            row.append(poly.terms.get(exps, Fraction(0)))
        extra = sum(1 for e in poly.terms
                    if any(ee and old_gens[i].degree != 2 for i, ee in enumerate(e)))
        if extra:
            raise RingError("assignments may only involve degree-2 generators")
        mat.append(row)
    try:
        inv = linalg.invert(mat)
    except ValueError:
        raise RingError("generator change is not invertible") from None

    new_gens = tuple(Generator(n, 2) for n in new_names) + tuple(others)
    images = {}
    for j, g in enumerate(deg2):
        img = GradedPoly.zero(new_gens)
        for i, name in enumerate(new_names):
            if inv[j][i]:
                img = img + GradedPoly.generator(new_gens, name).scale(inv[j][i])
        images[g.name] = img
    for g in others:
        images[g.name] = GradedPoly.generator(new_gens, g.name)
    return new_gens, images


def poincare_pairing(table, k):
    """Pairing matrix H^k x H^(top-k) -> H^top (coefficients on the top basis)."""
    top = table.presentation.top
    if len(table.basis[top]) != 1:
        raise RingError("top graded piece is not one-dimensional")
    (top_mono,) = table.basis[top]
    gens = table.presentation.gens
    rows = []
    for a in table.basis[k]:
        row = []
        pa = GradedPoly(gens, {a: 1})
        for b in table.basis[top - k]:
            prod = pa * GradedPoly(gens, {b: 1})
            row.append(table.reduce(prod).get(top_mono, Fraction(0)))
        rows.append(row)
    return rows


def is_pd_algebra(table):
    """True iff every pairing into the (one-dimensional) top piece is nondegenerate."""
    top = table.presentation.top
    if len(table.basis[top]) != 1:
        return False
    b = table.betti()
    for k in range(top + 1):
        if b[k] != b[top - k]:
            return False
        if b[k] == 0:
            continue
        mat = poincare_pairing(table, k)
        if linalg.rank(mat) != b[k]:
            return False
    return True


# -- pattern recognition ------------------------------------------------------


@dataclass
class PatternTag:
    kind: str
    params: dict

    def __str__(self):
        if not self.params:
            return self.kind
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.kind}({inner})"


NONE_TAG = PatternTag("NONE", {})


def _rational_cubic_roots(c3, c2, c1, c0):
    """Rational roots of c3 t^3 + c2 t^2 + c1 t + c0 (exact)."""
    coeffs = [Fraction(c) for c in (c3, c2, c1, c0)]
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    if not coeffs:
        return []
    denom = 1
    for c in coeffs:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = [int(c * denom) for c in coeffs]
    lead, const = ints[0], ints[-1]
    roots = set()
    if const == 0:
        roots.add(Fraction(0))
        while ints[-1] == 0 and len(ints) > 1:
            ints = ints[:-1]
        lead, const = ints[0], ints[-1]
        if const == 0:
            return sorted(roots)
    for p in _divisors(abs(const)):
        for q in _divisors(abs(lead)):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if sum(c * cand ** i for i, c in enumerate(reversed(ints))) == 0:
                    roots.add(cand)
    return sorted(roots)


def _divisors(n):
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def _match_totaro(table):
    pres = table.presentation
    gens = pres.gens
    if len(gens) != 3 or any(g.degree != 2 for g in gens) or len(pres.relations) != 3:
        return None
    import itertools
    for perm in itertools.permutations(range(3)):
        sq = None
        rest = []
        for rel in pres.relations:
            mono = {tuple(2 if i == perm[0] else 0 for i in range(3)): True}
            if set(rel.terms.keys()) == set(mono.keys()):
                sq = rel
            else:
                rest.append(rel)
        if sq is None or len(rest) != 2:
            continue

        def coeff(rel, i, j):
            e = [0, 0, 0]
            e[perm[i]] += 1
            e[perm[j]] += 1
            return rel.terms.get(tuple(e), Fraction(0))

        for r2, r3 in (rest, rest[::-1]):
            # r2 ~ a x1x2 + x2x3 + x2^2, r3 ~ b x1x3 + 2 x2x3 + x3^2
            s2 = coeff(r2, 1, 1)
            s3 = coeff(r3, 2, 2)
            if s2 == 0 or s3 == 0:
                continue
            r2n = r2.scale(Fraction(1) / s2)
            r3n = r3.scale(Fraction(1) / s3)
            if coeff(r2n, 1, 2) != 1 or coeff(r3n, 1, 2) != 2:
                continue
            if coeff(r2n, 0, 2) != 0 or coeff(r3n, 0, 1) != 0:
                continue
            a = coeff(r2n, 0, 1)
            b = coeff(r3n, 0, 2)
            extras = [coeff(r2n, 0, 0), coeff(r3n, 0, 0)]
            if any(extras):
                continue
            names = [gens[p].name for p in perm]
            return PatternTag("TOTARO", {"a": a, "b": b, "order": tuple(names)})
    return None


def _top_value(table, poly):
    top = table.presentation.top
    if len(table.basis[top]) != 1:
        return None
    (tm,) = table.basis[top]
    red = table.reduce(poly)
    if set(red.keys()) - {tm}:
        return None
    return red.get(tm, Fraction(0))


def _match_rank_kernel(table):
    pres = table.presentation
    deg2 = [g for g in pres.gens if g.degree == 2]
    if len(deg2) != 2 or len(pres.gens) != 2 or pres.top != 6:
        return None
    x = GradedPoly.generator(pres.gens, deg2[0].name)
    y = GradedPoly.generator(pres.gens, deg2[1].name)
    candidates = []
    # u = x + t y with u^3 = 0, plus u = y
    coeffs = {}
    for i in range(4):
        mono = x.power(3 - i) * y.power(i)
        coeffs[i] = table.reduce(mono)
    (tm,) = table.basis[6] if len(table.basis[6]) == 1 else (None,)
    if tm is None:
        return None

    def cube_coeff(i):
        return coeffs[i].get(tm, Fraction(0))

    c0, c1, c2, c3 = (cube_coeff(0), 3 * cube_coeff(1),
                      3 * cube_coeff(2), cube_coeff(3))
    # prefer pure generators over mixed combinations
    if c0 == 0:
        candidates.append(x)
    if table.is_ring_zero(y * y * y):
        candidates.append(y)
    for t in _rational_cubic_roots(c3, c2, c1, c0):
        if t != 0:
            candidates.append(x + y.scale(t))
    for u in candidates:
        for w in (x, y):
            tag = _try_rank_kernel_pair(table, u, w)
            if tag is not None:
                return tag
    return None


def _try_rank_kernel_pair(table, u, w):
    """Find v = w + s u with v^2 + c u^2 = 0, c != 0, v^3 != 0."""
    if not table.is_ring_zero(u * u * u):
        return None
    if table.is_ring_zero(u * u):
        return None  # c would be meaningless against a vanishing square
    u2 = table.reduce_poly(u * u)
    uw = table.reduce_poly(u * w)
    w2 = table.reduce_poly(w * w)
    coords = _in_span_2(table, [u2, uw], w2, degree=4)
    if coords is None:
        return None
    A, Bc = coords
    s = -Bc / 2
    v = w + u.scale(s)
    # v^2 = (w + su)^2 = (A + s^2) u^2 + (B + 2s) uw = (A + B^2/4) u^2
    lam = A + Bc * Bc / 4
    c = -lam
    if c == 0:
        return None
    if _top_value(table, v * v * v) in (None, Fraction(0)):
        return None
    u_n, v_n = _primitive(u), _primitive(v)
    scale_u = _primitive_scale(u)
    scale_v = _primitive_scale(v)
    c_norm = c * scale_v ** 2 / scale_u ** 2
    return PatternTag("RANK_KERNEL", {"c": c_norm, "u": repr(u_n), "v": repr(v_n)})


def _primitive_scale(poly):
    L = 1
    for c in poly.terms.values():
        L = L * c.denominator // gcd(L, c.denominator)
    G = 0
    for c in poly.terms.values():
        G = gcd(G, abs(c.numerator * (L // c.denominator)))
    return Fraction(L, G if G else 1)


def _primitive(poly):
    return poly.scale(_primitive_scale(poly))


def _in_span_2(table, basis_polys, target, degree):
    monos = table.basis[degree]
    index = {m: i for i, m in enumerate(monos)}

    def vec(p):
        v = [Fraction(0)] * len(monos)
        for m, c in table.reduce(p).items():
            v[index[m]] = c
        return v

    return linalg.solve_in_span([vec(b) for b in basis_polys], vec(target))


def _match_lefschetz(table):
    pres = table.presentation
    deg2 = [g for g in pres.gens if g.degree == 2]
    if len(deg2) != 2 or len(pres.gens) != 2 or pres.top != 6:
        return None
    if len(table.basis[2]) != 2:
        return None
    x = GradedPoly.generator(pres.gens, deg2[0].name)
    y = GradedPoly.generator(pres.gens, deg2[1].name)
    # t = x + tau y (or y); need s != 0 with s*t = 0 in H^4 and t^3 != 0
    candidates = []
    m_x = _mult_matrix(table, x)
    m_y = _mult_matrix(table, y)
    # det(m_x + tau m_y) as a polynomial in tau (2x2 here)
    a0 = _det2(m_x)
    a2 = _det2(m_y)
    a1 = (_det2_mixed(m_x, m_y))
    roots = _rational_cubic_roots(0, a2, a1, a0)
    for tau in roots:
        candidates.append(x + y.scale(tau))
    if a2 == 0:
        candidates.append(y)
    for t in candidates:
        tv = _top_value(table, t * t * t)
        if tv in (None, Fraction(0)):
            continue
        mt = _mult_matrix(table, t)
        ker, _ = linalg.kernel(mt, 2)
        for kv in ker:
            s = x.scale(kv.get(0, 0)) + y.scale(kv.get(1, 0))
            if not table.is_ring_zero(s):
                return PatternTag("LEFSCHETZ",
                                  {"omega": repr(_primitive(t)),
                                   "annihilator": repr(_primitive(s))})
    return None


def _mult_matrix(table, t):
    """Matrix of multiplication by t from H^2 to H^4 in the quotient bases."""
    pres = table.presentation
    monos4 = table.basis[4]
    index = {m: i for i, m in enumerate(monos4)}
    cols = []
    for m in table.basis[2]:
        prod = GradedPoly(pres.gens, {m: 1}) * t
        v = [Fraction(0)] * len(monos4)
        for mm, c in table.reduce(prod).items():
            v[index[mm]] = c
        cols.append(v)
    return [[cols[j][i] for j in range(len(cols))] for i in range(len(monos4))]


def _det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _det2_mixed(a, b):
    return (a[0][0] * b[1][1] + b[0][0] * a[1][1]
            - a[0][1] * b[1][0] - b[0][1] * a[1][0])


def pattern_match(table):
    """Recognize the certificate families this engine can dispatch on.

    Priority: TOTARO (three degree-2 generators), then RANK_KERNEL
    (u^3 = 0 and v^2 + c u^2 = 0 with c != 0, v^3 != 0), then LEFSCHETZ
    (an annihilated class against a symplectic cube), then the two
    formal-by-structure Betti shapes.
    """
    tag = _match_totaro(table)
    if tag:
        return tag
    tag = _match_rank_kernel(table)
    if tag:
        return tag
    tag = _match_lefschetz(table)
    if tag:
        return tag
    b = table.betti()
    if b and b[0] == 1 and b[-1] == 1:
        from .invariant import APPLIES_P1, APPLIES_PROD, formality_by_top_degree
        verdict = formality_by_top_degree(b)
        if verdict == APPLIES_PROD:
            return PatternTag("PROD_ODD", {})
        if verdict == APPLIES_P1:
            return PatternTag("P1", {})
    return NONE_TAG


# -- named presentations ------------------------------------------------------


def builtin_presentation(name, **params):
    """Named rings addressable from the CLI and the certificate layer."""
    key = name.lower()
    if key == "eschenburg-ex1":
        return RingPresentation(
            [("x", 2), ("y", 2)],
            ["x*y - y^2 + x^2", "x^3"], 6,
            volume_monomial="x^2*y", name="eschenburg-ex1")
    if key == "eschenburg-ex2":
        return RingPresentation(
            [("x", 2), ("y", 2)],
            ["x^2 - y^2", "x^3 - y^3"], 6,
            volume_monomial="x^2*y", name="eschenburg-ex2")
    if key == "totaro":
        a = Fraction(params["a"])
        b = Fraction(params["b"])
        return RingPresentation(
            [("x1", 2), ("x2", 2), ("x3", 2)],
            [f"x1^2",
             f"{a}*x1*x2 + x2*x3 + x2^2" if a else "x2*x3 + x2^2",
             f"{b}*x1*x3 + 2*x2*x3 + x3^2" if b else "2*x2*x3 + x3^2"],
            6, volume_monomial="x1*x2*x3", name=f"totaro({a},{b})")
    if key == "sphere-bundle":
        c = Fraction(params["c"])
        rels = ["x^3"]
        if c:
            rels.append(f"y^2 + {c}*x^2" if c > 0 else f"y^2 - {-c}*x^2")
        else:
            rels.append("y^2")
        return RingPresentation(
            [("x", 2), ("y", 2)], rels, 6,
            volume_monomial="x^2*y", name=f"sphere-bundle({c})")
    if key == "flag-su3":
        return RingPresentation(
            [("x", 2), ("y", 2)],
            ["x^2 + x*y + y^2", "x^2*y + x*y^2"], 6,
            volume_monomial="x^2*y", name="flag-su3")
    if key == "wedge":
        p = int(params["p"])
        q = int(params["q"])
        rels = []
        # squares of degree beyond the top vanish for free
        if p % 2 == 0 and 2 * p <= p + q:
            rels.append("u^2")
        if q % 2 == 0 and 2 * q <= p + q:
            rels.append("v^2")
        return RingPresentation(
            [("u", p), ("v", q)], rels, p + q,
            volume_monomial="u*v", name=f"wedge({p},{q})")
    raise RingError(f"unknown presentation {name!r}; known: eschenburg-ex1, "
                    "eschenburg-ex2, totaro, sphere-bundle, flag-su3, wedge")
