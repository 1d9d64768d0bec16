import re
from fractions import Fraction

import pytest

from geoformal.certify import certify_table
from geoformal.exterior import Multivector, derivation_terms, interior
from geoformal.invariant import aloff_wallach, flag_su3, su4_su2
from geoformal.ring import (GradedPoly, NormalFormTable, RingPresentation,
                            _generator_change, build_table,
                            builtin_presentation, generators_to_spec,
                            pattern_match)


def blade(n, indices):
    """The blade e^{i_1} ^ ... ^ e^{i_k} over R^n from 0-based indices in any
    order, signed by the sort; a repeated index gives zero."""
    mask = 0
    sign = 1
    for i in indices:
        bit = 1 << i
        if mask & bit:
            return Multivector.zero(n)
        # insertion sign: parity of already-present indices above i
        if (mask >> (i + 1)).bit_count() & 1:
            sign = -sign
        mask |= bit
    return Multivector(n, {mask: sign})


def contract(v, form):
    """i_v(form) for a Multivector, by the term-dict `exterior.interior`."""
    return Multivector(form.n, interior(v, form.terms_dict()))


def derive(images, form):
    """D(form) for a Multivector and the derivation with D(e^b) =
    images[b]: the terms of `exterior.derivation_terms`, summed."""
    out = {}
    for mask, c in form.terms_dict().items():
        for m, x in derivation_terms(images, mask):
            out[m] = out.get(m, 0) + c * x
    return Multivector(form.n, out)


def euclidean(n):
    """The identity coframe metric on R^n."""
    return [1] * n


def certificate(name, **params):
    """The certificate the CLI emits for a built-in ring."""
    table = build_table(builtin_presentation(name, **params))
    return certify_table(table, pattern_match(table))


def reduce_poly(table, poly):
    """The normal form of `poly` (a GradedPoly or string) in `table`, as a
    polynomial over the presentation's generators."""
    return GradedPoly(table.presentation.gens, table.reduce(poly))


def substitute(table, assignments):
    """Rewrite the presentation under an invertible linear change of the
    degree-2 generators.

    `assignments` maps each new generator name to a linear combination (a
    GradedPoly or string) of the old degree-2 generators; every old degree-2
    generator must be expressible in the new ones.  Relations are rewritten
    and expanded; other generators pass through unchanged.
    """
    pres = table.presentation if isinstance(table, NormalFormTable) else table
    old_gens = pres.gens
    new_gens, images = _generator_change(old_gens, assignments)
    new_rels = [r.map_generators(new_gens, images) for r in pres.relations]
    vol = None
    if pres.volume_monomial is not None:
        vol_poly = GradedPoly(old_gens, {pres.volume_monomial: 1}).map_generators(
            new_gens, images)
        # keep the designation only if it lands on a single monomial
        if len(vol_poly.terms) == 1:
            ((vol, c),) = vol_poly.terms.items()
            if c != 1:
                vol = None
    return RingPresentation(
        generators_to_spec(new_gens), new_rels, pres.top, volume_monomial=vol,
        name=f"{pres.name}-rewritten" if pres.name else "rewritten")


def _narrowed(x):
    """Whether the rational x is an int when integral and a Fraction otherwise."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def _fraction_rref(rows):
    """Reference Gauss-Jordan elimination in Fractions, in place.

    Returns (rows, pivot_columns, scale), where scale is the product of the
    pivots divided out, times -1 per row swap: the determinant of a square
    input of full rank.
    """
    pivots = []
    scale = Fraction(1)
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            scale = -scale
        scale *= rows[r][c]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots, scale


def _reference_kernel(rows, ncols):
    """The identity-pattern kernel basis read off one unsplit `_fraction_rref`."""
    dense = [[Fraction(row.get(j, 0)) for j in range(ncols)] if isinstance(row, dict)
             else [Fraction(x) for x in row] for row in rows]
    red, pivots, _ = _fraction_rref(dense)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[f]
        basis.append(v)
    return basis, free


def _reference_solve(basis, target):
    aug = [[Fraction(b[i]) for b in basis] + [Fraction(t)] for i, t in enumerate(target)]
    red, pivots, _ = _fraction_rref(aug)
    k = len(basis)
    if k in pivots:
        return None
    coords = [Fraction(0)] * k
    for r, pc in enumerate(pivots):
        coords[pc] = red[r][k]
    return coords


def ad(g, x):
    """Matrix of ad_x on the Lie algebra g: columns are [x, e_j]."""
    d = g.dim
    cols = [g.bracket(x, [1 if t == j else 0 for t in range(d)])
            for j in range(d)]
    return [[cols[j][i] for j in range(d)] for i in range(d)]


_FORM_TERM = re.compile(r"\s*([+-]?)\s*(\d+(?:/\d+)?)?\s*(e\d+(?:\^e\d+)*)")


def _parse_form(text, n):
    """Exact form from a sum of `c eI^eJ` terms with 1-based frame indices."""
    form = Multivector.zero(n)
    pos = 0
    while pos < len(text):
        term = _FORM_TERM.match(text, pos)
        assert term, f"cannot parse {text[pos:]!r} in {text!r}"
        sign, coeff, name = term.groups()
        c = Fraction(coeff or 1) * (-1 if sign == "-" else 1)
        idx = tuple(int(e[1:]) - 1 for e in name.split("^"))
        form = form + blade(n, idx).scale(c)
        pos = term.end()
    return form


@pytest.fixture(scope="session")
def parse_form():
    """Parser for the witness forms the emitter attaches, as `c eI^eJ` sums."""
    return _parse_form


@pytest.fixture(scope="session")
def aw11():
    return aloff_wallach(1, 1)


@pytest.fixture(scope="session")
def flag():
    return flag_su3()


@pytest.fixture(scope="session")
def sphere_product():
    # SU(4)/SU(2): the expensive space; built once per session
    return su4_su2()


@pytest.fixture(scope="session")
def ex1_table():
    return build_table(builtin_presentation("eschenburg-ex1"))


@pytest.fixture(scope="session")
def ex2_table():
    return build_table(builtin_presentation("eschenburg-ex2"))
