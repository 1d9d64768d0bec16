"""Finitely presented graded-commutative algebras over Q.

Degreewise normal forms by exact linear algebra over monomials: the span of
all monomial multiples of the relations is eliminated per degree, and the
surviving monomials form the quotient basis.  Odd generators square to zero
implicitly; products pick up the usual graded sign.  Top degrees here never
exceed 12 and there are at most three degree-2 generators, so no Groebner
machinery is needed.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import cache
from math import isqrt
from operator import add

from . import linalg
from .errors import RingError
from .linalg import _narrow

# -- polynomials -------------------------------------------------------------


class Generator:
    """A named generator of a graded degree; read-only, equal and hashed by
    (name, degree), since `GradedPoly` compares and hashes its `gens`."""

    __slots__ = ("name", "degree")

    def __init__(self, name, degree):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "degree", degree)

    def __setattr__(self, name, value):
        raise AttributeError(f"a Generator is read-only: cannot set {name}")

    def __eq__(self, other):
        return isinstance(other, Generator) and \
            (self.name, self.degree) == (other.name, other.degree)

    def __hash__(self):
        return hash((self.name, self.degree))

    def __reduce__(self):  # copy and pickle rebuild it through __init__
        return Generator, (self.name, self.degree)


class GradedPoly:
    """Polynomial in graded-commutative generators; terms: exps tuple ->
    coefficient, an int when integral and a Fraction otherwise.

    Immutable: `parse_poly` shares one instance per text, so only this
    class writes `terms`, and every operation builds a new polynomial."""

    __slots__ = ("gens", "terms")

    def __init__(self, gens, terms=None):
        self.gens = tuple(gens)
        clean = {}
        for exps, c in (terms or {}).items():
            c = _narrow(c)
            if c == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(self.gens):
                raise RingError("exponent tuple length mismatch")
            if any(e < 0 for e in exps):
                raise RingError("negative exponent")
            if any(e > 1 for e, g in zip(exps, self.gens) if g.degree % 2 == 1):
                continue  # odd generators square to zero
            clean[exps] = clean.get(exps, 0) + c
        self.terms = {e: _narrow(c) for e, c in clean.items() if c != 0}

    @classmethod
    def _trusted(cls, gens, terms):
        """Result of arithmetic on polynomials over the tuple `gens`: the
        exponent tuples are already canonical, so only the cancelled zeros
        are dropped and integral Fractions narrowed to ints."""
        poly = object.__new__(cls)
        poly.gens = gens
        poly.terms = {e: _narrow(c) for e, c in terms.items() if c != 0}
        return poly

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

    def degree(self):
        """Common degree of all terms; None for 0; raises if inhomogeneous."""
        degs = {sum(e * g.degree for e, g in zip(exps, self.gens)) for exps in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise RingError(f"inhomogeneous polynomial: degrees {sorted(degs)}")
        return degs.pop()

    def coefficient(self, *names):
        """The coefficient of the monomial that is the product of the named
        generators, e.g. `p.coefficient("x", "y")` for x*y."""
        exps = tuple(names.count(g.name) for g in self.gens)
        return self.terms.get(exps, 0)

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        _add_terms(terms, other)
        return GradedPoly._trusted(self.gens, terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = _narrow(c)
        return GradedPoly._trusted(self.gens,
                                   {e: x * c for e, x in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        odd = [i for i, g in enumerate(self.gens) if g.degree % 2]
        right = _by_odd_part(other.terms, odd)
        out = {}
        for odd1, part1 in _by_odd_part(self.terms, odd):
            for odd2, part2 in right:
                sign = _graded_sign(odd1, odd2)
                if not sign:
                    continue
                for e1, c1 in part1:
                    c1 = -c1 if sign < 0 else c1
                    for e2, c2 in part2:
                        exps = tuple(map(add, e1, e2))
                        out[exps] = out.get(exps, 0) + c1 * c2
        return GradedPoly._trusted(self.gens, out)

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
        new_gens = tuple(new_gens)
        one = (0,) * len(new_gens)
        out = {}
        for exps, c in self.terms.items():
            term = GradedPoly._trusted(new_gens, {one: c})
            for e, g in zip(exps, self.gens):
                img = images[g.name]
                for _ in range(e):
                    term = term * img
            _add_terms(out, term)
        return GradedPoly._trusted(new_gens, out)

    def antiderivation(self, images):
        """The image under the odd derivation D with D(g) = images[g.name]:
        D(ab) = D(a) b + (-1)^|a| a D(b).  Every generator of every term
        needs an image."""
        out = {}
        zeros = (0,) * len(self.gens)
        for exps, c in self.terms.items():
            before = 0  # degree of the factors before g
            for k, (e, g) in enumerate(zip(exps, self.gens)):
                if e:  # D(g^e) = e g^(e-1) D(g); e = 1 for odd g
                    head = exps[:k] + (e - 1,) + zeros[k + 1:]
                    tail = zeros[:k + 1] + exps[k + 1:]
                    sign = -1 if before % 2 else 1
                    _add_terms(out, GradedPoly._trusted(self.gens,
                                                        {head: sign * e * c})
                               * images[g.name]
                               * GradedPoly._trusted(self.gens, {tail: 1}))
                    before += e * g.degree
        return GradedPoly._trusted(self.gens, out)

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
    """The generators of `[[name, degree], ...]`; names must be distinct
    names of `parse_poly`'s grammar, so that the text forms name each
    generator."""
    gens = tuple(Generator(n, int(d)) for n, d in spec)
    names = [g.name for g in gens]
    for name in names:
        token = _TOKEN.fullmatch(name) if isinstance(name, str) else None
        if token is None or not token[2]:
            raise RingError(f"generator name {name!r} is not a name a polynomial "
                            "can use: a letter or _, then letters, digits or _")
    if len(set(names)) != len(names):
        raise RingError(f"generator names must be distinct: {names}")
    return gens


def _add_terms(acc, poly):
    """Add the terms of `poly` into the exps -> coefficient dict `acc`."""
    for e, c in poly.terms.items():
        acc[e] = acc.get(e, 0) + c


def _by_odd_part(terms, odd):
    """The (exps, coefficient) pairs of `terms`, grouped by their exponents
    at the odd positions `odd`: a list of (odd part, pairs)."""
    groups = {}
    for e, c in terms.items():
        groups.setdefault(tuple([e[i] for i in odd]), []).append((e, c))
    return list(groups.items())


def _graded_sign(odd1, odd2):
    """Sign of the graded product of monomials with the odd-generator
    exponents `odd1` and `odd2`: 0 when an odd generator repeats, else -1
    to the number of pairs (i in the first, j in the second) with i > j,
    the odd factors the product reorders."""
    swaps = 0
    for j, b in enumerate(odd2):
        if b:
            if odd1[j]:
                return 0
            swaps += sum(odd1[j + 1:])
    return -1 if swaps % 2 else 1


# a number, a name, an operator, or any other character; the space between
# tokens is skipped
_TOKEN = re.compile(r"(\d+(?:/\d+)?)|([A-Za-z_][A-Za-z_0-9]*)|(\*\*|[*^+-])|(\S)")


def parse_poly(text, gens):
    """Parse 'x*y - 2*y^2 + 1/2*x^2' into a GradedPoly, by the grammar

        poly = term (sign term)*,  term = factor ("*" factor)*,
        factor = sign* (number | name [("^" | "**") integer])

    where a number is an integer or a fraction such as 1/2, an exponent is
    at least 1 and space may stand between any two tokens; any other text
    raises RingError.

    Each distinct (text, generators) pair is parsed once per process and
    the one GradedPoly is shared by every caller, so no caller may change
    its `terms` (no code outside `GradedPoly` writes them)."""
    if not isinstance(text, str):
        raise RingError(f"a polynomial must be a string such as 'x*y - y^2', got {text!r}")
    try:
        return _parse_poly(text, tuple(gens))
    except ZeroDivisionError:
        raise RingError(f"zero denominator in {text!r}") from None
    except ValueError as exc:  # a number of more digits than `int` reads
        raise RingError(f"cannot read a number in {text!r}: {exc}") from None


@cache
def _parse_poly(text, gens):
    """`parse_poly` without the cache; a RingError raised is not cached.
    A term keeps one coefficient and one exponent tuple, and each factor
    multiplies it on the right, with the graded sign of the reordering."""
    by_name = {g.name: i for i, g in enumerate(gens)}
    odd = [i for i, g in enumerate(gens) if g.degree % 2]
    tokens = _TOKEN.findall(text) + [("",) * 4]  # the last marks the end
    pos = 0
    terms = {}
    while True:  # a term
        coeff, exps = 1, (0,) * len(gens)
        while True:  # a sign, or a factor and what follows it
            num, name, op, _ = token = tokens[pos]
            pos += 1
            if op == "+" or op == "-":
                coeff = -coeff if op == "-" else coeff
                continue
            if num:
                coeff *= Fraction(num) if "/" in num else int(num)
            elif name:
                if name not in by_name:
                    raise RingError(f"unknown generator {name!r}")
                i, power = by_name[name], 1
                if tokens[pos][2] in ("^", "**"):
                    token = tokens[pos + 1]
                    if not token[0].isdigit() or int(token[0]) < 1:
                        raise _unexpected(text, token, "an integer exponent of at least 1")
                    power, pos = int(token[0]), pos + 2
                if i in odd:
                    coeff *= _graded_sign([exps[j] for j in odd],
                                          [power if j == i else 0 for j in odd])
                exps = exps[:i] + (exps[i] + power,) + exps[i + 1:]
            else:
                raise _unexpected(text, token, "a number or a generator")
            if tokens[pos][2] != "*":
                break
            pos += 1
        terms[exps] = terms.get(exps, 0) + coeff
        token = tokens[pos]
        if not any(token):
            return GradedPoly(gens, terms)
        if token[2] != "+" and token[2] != "-":
            raise _unexpected(text, token, "'*', '+', '-' or the end")


def _unexpected(text, token, wanted):
    """The RingError for a token of `text` where the grammar wants `wanted`."""
    if not any(token):
        return RingError(f"incomplete polynomial {text!r}: it must end in a term")
    return RingError(f"{wanted} expected, got {''.join(token)!r} in {text!r}")


# -- presentations and normal-form tables ------------------------------------

# The most monomials, over the degrees 0..top, a normal-form table may hold
# (see `_monomial_counts`): the built-in rings hold at most 20 and the tests'
# rings 35.  Two degree-2 generators with top 400 hold 20,301, built in
# 0.6 s (2 CPUs, Python 3.11.7); eight with top 16 hold 12,870 (0.09 s) and
# with top 24 125,970 (1.0 s).  Each degree is a piece of the table, so a
# top degree this large is refused before the count.
MAX_TABLE_MONOMIALS = 20_000


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
        if self.top < 0:
            raise RingError(f"top degree must be >= 0, got {self.top}")
        self.name = name
        rels = []
        for r in relations:
            poly = r if isinstance(r, GradedPoly) else parse_poly(r, self.gens)
            if poly.is_zero():
                continue
            d = poly.degree()  # raises if inhomogeneous
            if d > self.top:
                raise RingError(f"relation degree {d} exceeds top {self.top}")
            rels.append(poly)
        self.relations = tuple(rels)
        if not isinstance(volume_monomial, (str, tuple, type(None))):
            raise RingError("the volume monomial must be a string such as 'x^2*y', "
                            f"got {volume_monomial!r}")
        if isinstance(volume_monomial, str):
            poly = parse_poly(volume_monomial, self.gens)
            if list(poly.terms.values()) != [1]:
                raise RingError("volume monomial must be one monomial, coefficient 1")
            (volume_monomial,) = poly.terms
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
    if not gens:
        return [()] if degree == 0 else []
    out = []
    last = len(gens) - 1

    def rec(i, remaining, acc):
        g = gens[i]
        maxe = remaining // g.degree
        if g.degree % 2 == 1:
            maxe = min(maxe, 1)
        if i == last:  # what remains fixes the last exponent
            if maxe * g.degree == remaining:
                out.append((*acc, maxe))
            return
        for e in range(maxe + 1):
            acc.append(e)
            rec(i + 1, remaining - e * g.degree, acc)
            acc.pop()

    rec(0, degree, [])
    return out


def _monomial_counts(gens, top):
    """The number of monomials of each degree 0..top (odd exps <= 1), one
    generator at a time: with a generator of degree g, a monomial of degree
    d leaves it out or is it times a monomial of degree d - g, which may
    hold it again when g is even and may not when g is odd (the descending
    pass reads the counts from before the generator)."""
    counts = [1] + [0] * top
    for g in gens:
        degrees = range(g.degree, top + 1)
        for d in reversed(degrees) if g.degree % 2 else degrees:
            counts[d] += counts[d - g.degree]
    return counts


class NormalFormTable:
    """Degreewise monomial bases and reduction onto the quotient.

    Per degree the table keeps the kernel of the relation products, taken
    in the columns of that degree's monomials with the volume monomial
    last.  Its free columns are the quotient basis, and each kernel vector
    is 1 on its own free column, 0 on the others and minus the reduced
    relation row on each pivot, so the normal-form coefficient of a basis
    monomial is the dot product with its vector."""

    def __init__(self, presentation):
        self.presentation = presentation
        gens = presentation.gens
        if presentation.top >= MAX_TABLE_MONOMIALS:
            raise RingError(f"a ring of top degree {presentation.top:,} has more "
                            f"degrees than the {MAX_TABLE_MONOMIALS:,} monomials a "
                            "normal-form table may hold")
        size = sum(_monomial_counts(gens, presentation.top))
        if size > MAX_TABLE_MONOMIALS:
            raise RingError(f"the ring has {size:,} monomials in degrees "
                            f"0..{presentation.top}, more than the "
                            f"{MAX_TABLE_MONOMIALS:,} a normal-form table may hold")
        self.monomials = {}
        self._kernel = {}
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
                    prod = rel * GradedPoly._trusted(rel.gens, {mult: 1})
                    rows.append({index[e]: c for e, c in prod.terms.items()})
            vectors, free = linalg.kernel(rows, len(monos))
            self.monomials[d] = monos
            self._kernel[d] = (index, [(monos[f], v) for f, v in zip(free, vectors)])
            self.basis[d] = [monos[f] for f in free]
            if (d == presentation.top and presentation.volume_monomial is not None
                    and presentation.volume_monomial not in self.basis[d]):
                raise RingError("designated volume monomial is reducible")

    def reduce(self, poly):
        """Canonical coordinates of `poly` in the quotient basis of its degree.

        Returns a {basis_monomial: coefficient} dict, each an int when
        integral; ring equality is equality of reduced forms.
        """
        if isinstance(poly, str):
            poly = self.presentation.poly(poly)
        if poly.is_zero():
            return {}
        d = poly.degree()
        if d > self.presentation.top:
            raise RingError(f"degree {d} exceeds top {self.presentation.top}")
        index, vectors = self._kernel[d]
        vec = [(index[e], c) for e, c in poly.terms.items()]
        out = {}
        for mono, v in vectors:
            x = sum(c * v[i] for i, c in vec if i in v)
            if x:
                out[mono] = _narrow(x)
        return out

    def coordinates(self, poly, degree):
        """The coordinates of `poly` (of `degree`, or zero) on `basis[degree]`."""
        red = self.reduce(poly)
        return [red.get(m, 0) for m in self.basis[degree]]

    def volume(self):
        """The one top basis monomial; None unless the top piece is a line."""
        top = self.basis[self.presentation.top]
        return top[0] if len(top) == 1 else None

    def volume_coefficient(self, poly):
        """mu with poly = mu * volume in the ring (0 when poly is zero there);
        None when there is no volume or poly is not a multiple of it."""
        vol = self.volume()
        red = self.reduce(poly)
        if vol is None or red.keys() - {vol}:
            return None
        return red.get(vol, 0)

    def is_ring_zero(self, poly):
        return not self.reduce(poly)

    def betti(self):
        return [len(self.basis[d]) for d in range(self.presentation.top + 1)]

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
            row.append(poly.terms.get(exps, 0))
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
    """Pairing matrix H^k x H^(top-k) -> H^top (coefficients on the volume)."""
    if table.volume() is None:
        raise RingError("top graded piece is not one-dimensional")
    top = table.presentation.top
    gens = table.presentation.gens
    return [[table.volume_coefficient(GradedPoly(gens, {a: 1})
                                      * GradedPoly(gens, {b: 1}))
             for b in table.basis[top - k]] for a in table.basis[k]]


def is_pd_algebra(table):
    """True iff every pairing into the (one-dimensional) top piece is nondegenerate."""
    if table.volume() is None:
        return False
    top = table.presentation.top
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


class PatternTag:
    def __init__(self, kind, params):
        self.kind = kind
        self.params = params

    def __str__(self):
        if not self.params:
            return self.kind
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.kind}({inner})"


NONE_TAG = PatternTag("NONE", {})


def _rational_roots(*coeffs):
    """Rational roots of the polynomial of degree at most 3 with these
    coefficients, leading first (exact), sorted.

    No coefficient is factored.  With a the leading coefficient of the
    primitive integer form p of degree d, every rational root x of p makes
    y = a x an integer root of the monic integer polynomial
    a^(d-1) p(y / a), and `_integer_roots` finds those."""
    ints = linalg.primitive_vector(coeffs)
    while ints and ints[0] == 0:
        ints.pop(0)
    if not ints:
        return []
    roots = set()
    while ints[-1] == 0:
        roots.add(Fraction(0))
        ints.pop()
    a = ints[0]
    monic = [1] + [c * a ** (k - 1) for k, c in enumerate(ints) if k]
    roots.update(Fraction(y, a) for y in _integer_roots(monic))
    return sorted(roots)


def _integer_roots(g):
    """The integer roots of the monic integer polynomial `g` (leading
    first) of degree at most 3.

    Every root lies in [-r, r] for Cauchy's bound r = 1 + max |g_k|.  Cut
    there, and after the floor of each critical point (a real zero of g'),
    the integers fall into runs on which g is monotone, so each run holds
    at most one root, found by bisection on the sign of g."""
    r = 1 + max(map(abs, g[1:]), default=0)
    turns = []
    if len(g) == 3:  # g' = 2y + g1
        turns = [-g[1] // 2]
    elif len(g) == 4:  # g' = 3y^2 + 2 g1 y + g2, zeros (-g1 +- sqrt(disc)) / 3
        disc = g[1] * g[1] - 3 * g[2]
        if disc >= 0:
            s = isqrt(disc)
            turns = [(-g[1] - s - (s * s != disc)) // 3, (-g[1] + s) // 3]

    def value(y):
        acc = 0
        for c in g:
            acc = acc * y + c
        return acc

    roots = []
    cuts = [-r - 1] + [min(max(t, -r - 1), r) for t in turns] + [r]
    for lo, hi in zip(cuts, cuts[1:]):
        lo += 1
        if lo > hi:
            continue
        at_lo, at_hi = value(lo), value(hi)
        if at_lo == 0 or at_hi == 0:
            roots.append(lo if at_lo == 0 else hi)
            continue
        if (at_lo < 0) == (at_hi < 0):
            continue
        while hi - lo > 1:  # the sign of g differs at lo and hi
            mid = (lo + hi) // 2
            at_mid = value(mid)
            if at_mid == 0:
                roots.append(mid)
                break
            if (at_mid < 0) == (at_lo < 0):
                lo = mid
            else:
                hi = mid
    return roots


def totaro_relations(pres, order):
    """The relations of `pres` by role in the three-generator family, with
    `order` naming (x1, x2, x3): the x1 square, the one with an x2^2 term
    and the rest; None unless each role holds exactly one relation."""
    x1, x2, _ = order
    square = tuple(2 if g.name == x1 else 0 for g in pres.gens)
    roles = ([], [], [])
    for rel in pres.relations:
        roles[0 if rel.terms.keys() == {square} else
              1 if rel.coefficient(x2, x2) else 2].append(rel)
    if any(len(rels) != 1 for rels in roles):
        return None
    return tuple(rels[0] for rels in roles)


def _match_totaro(table):
    """TOTARO(a, b, order) when the relations are, up to scale, x1^2,
    a x1x2 + x2x3 + x2^2 and b x1x3 + 2 x2x3 + x3^2, on top degree 6 a line."""
    pres = table.presentation
    gens = pres.gens
    if (len(gens) != 3 or any(g.degree != 2 for g in gens) or pres.top != 6
            or table.volume() is None):
        return None
    for order in itertools.permutations(g.name for g in gens):
        roles = totaro_relations(pres, order)
        x1, x2, x3 = order
        if roles is None or not roles[2].coefficient(x3, x3):
            continue
        r2 = roles[1].scale(Fraction(1) / roles[1].coefficient(x2, x2))
        r3 = roles[2].scale(Fraction(1) / roles[2].coefficient(x3, x3))
        a, b = r2.coefficient(x1, x2), r3.coefficient(x1, x3)
        if (r2 == parse_poly(f"{a}*{x1}*{x2} + {x2}*{x3} + {x2}^2", gens) and
                r3 == parse_poly(f"{b}*{x1}*{x3} + 2*{x2}*{x3} + {x3}^2", gens)):
            return PatternTag("TOTARO", {"a": a, "b": b, "order": order})
    return None


def _two_classes_top_6(table):
    """(x, y) when the ring has two generators, both of degree 2, and top
    degree 6, the shape the rank/kernel and Lefschetz families read; else
    None."""
    pres = table.presentation
    if len(pres.gens) != 2 or any(g.degree != 2 for g in pres.gens) or pres.top != 6:
        return None
    return tuple(GradedPoly.generator(pres.gens, g.name) for g in pres.gens)


def _match_rank_kernel(table):
    pair = _two_classes_top_6(table)
    if pair is None or table.volume() is None:
        return None
    x, y = pair
    # u = x + t y with u^3 = 0, plus u = y
    c0, c1, c2, c3 = (k * table.volume_coefficient(x.power(3 - i) * y.power(i))
                      for i, k in enumerate((1, 3, 3, 1)))
    candidates = []
    # prefer pure generators over mixed combinations
    if c0 == 0:
        candidates.append(x)
    if table.is_ring_zero(y * y * y):
        candidates.append(y)
    for t in _rational_roots(c3, c2, c1, c0):
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
    # c would be meaningless against a vanishing square
    if not table.is_ring_zero(u * u * u) or table.is_ring_zero(u * u):
        return None
    coords = linalg.solve_in_span(
        [table.coordinates(u * u, 4), table.coordinates(u * w, 4)],
        table.coordinates(w * w, 4))
    if coords is None:
        return None
    A, Bc = coords
    s = Fraction(-Bc, 2)
    v = w + u.scale(s)
    # v^2 = (w + su)^2 = (A + s^2) u^2 + (B + 2s) uw = (A + B^2/4) u^2
    c = -(A + Fraction(Bc * Bc, 4))
    if c == 0 or not table.volume_coefficient(v * v * v):
        return None
    (u_n, scale_u), (v_n, scale_v) = _primitive(u), _primitive(v)
    c_norm = c * Fraction(scale_v ** 2, scale_u ** 2)
    return PatternTag("RANK_KERNEL", {"c": c_norm, "u": repr(u_n), "v": repr(v_n)})


def _primitive(poly):
    """(k * poly, k) with k > 0 the scale that makes the coefficients of the
    nonzero `poly` coprime integers."""
    exps = list(poly.terms)
    ints = linalg.primitive_vector([poly.terms[e] for e in exps])
    return (GradedPoly(poly.gens, dict(zip(exps, ints))),
            Fraction(ints[0], poly.terms[exps[0]]))


def _match_lefschetz(table):
    pair = _two_classes_top_6(table)
    if pair is None or len(table.basis[2]) != 2 or len(table.basis[4]) != 2:
        return None
    x, y = pair
    # t = x + tau y (or y); need s != 0 with s*t = 0 in H^4 and t^3 != 0
    # det(m_x + tau m_y) = a0 + a1 tau + a2 tau^2, m_t multiplication by t
    a0, a2, a012 = (_narrow(m[0][0] * m[1][1] - m[0][1] * m[1][0])
                    for m in (_mult_matrix(table, t, pair) for t in (x, y, x + y)))
    a1 = a012 - a0 - a2
    candidates = [x + y.scale(tau) for tau in _rational_roots(a2, a1, a0)]
    for t in candidates + ([y] if a2 == 0 else []):
        if not table.volume_coefficient(t * t * t):
            continue
        ker, _ = linalg.kernel(_mult_matrix(table, t, pair), 2)
        for kv in ker:
            s = x.scale(kv.get(0, 0)) + y.scale(kv.get(1, 0))
            if not table.is_ring_zero(s):
                return PatternTag("LEFSCHETZ",
                                  {"omega": repr(_primitive(t)[0]),
                                   "annihilator": repr(_primitive(s)[0])})
    return None


def _mult_matrix(table, t, classes):
    """Matrix of multiplication by t from H^2, in the basis `classes`, to
    H^4, in its quotient basis."""
    cols = [table.coordinates(c * t, 4) for c in classes]
    return [list(row) for row in zip(*cols)]


def pattern_match(table):
    """Recognize the certificate families this engine can dispatch on.

    Priority: TOTARO (three degree-2 generators), then RANK_KERNEL
    (u^3 = 0 and v^2 + c u^2 = 0 with c != 0, v^3 != 0), then LEFSCHETZ
    (an annihilated class against a symplectic cube), then the two
    formal-by-structure Betti shapes.
    """
    for match in (_match_totaro, _match_rank_kernel, _match_lefschetz):
        tag = match(table)
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


@cache
def builtin_presentation(name, **params):
    """Named rings addressable from the CLI and the certificate layer, built
    once per process for each name and params (no caller mutates one)."""
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
            ["x1^2", f"{a}*x1*x2 + x2*x3 + x2^2", f"{b}*x1*x3 + 2*x2*x3 + x3^2"],
            6, volume_monomial="x1*x2*x3", name=f"totaro({a},{b})")
    if key == "sphere-bundle":
        c = Fraction(params["c"])
        return RingPresentation(
            [("x", 2), ("y", 2)], ["x^3", f"y^2 + {c}*x^2"], 6,
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
