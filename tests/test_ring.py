"""Graded-commutative ring tables: reduction, substitution, patterns."""

import itertools
import json
import random
import time
from fractions import Fraction
from math import isqrt
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoformal import linalg, ring
from geoformal.errors import RingError
from geoformal.ring import (GradedPoly, Generator, NormalFormTable,
                            RingPresentation, build_table,
                            builtin_presentation, generators_from_spec,
                            is_pd_algebra, parse_poly,
                            pattern_match, poincare_pairing, poly_to_string)

from conftest import _fraction_rref, _narrowed, reduce_poly, substitute


def _reduce_oracle(table, poly):
    """Independent reduction oracle: express the polynomial's vector as
    (relation span) + (quotient basis) by solving a full linear system with
    reversed column preference, on the tests' own Fraction elimination, then
    compare as ring equality."""
    pres = table.presentation
    if isinstance(poly, str):
        poly = parse_poly(poly, pres.gens)
    d = poly.degree()
    from geoformal.ring import _monomials_of_degree
    monos = list(reversed(_monomials_of_degree(pres.gens, d)))
    index = {m: i for i, m in enumerate(monos)}
    span = []
    for rel in pres.relations:
        rd = rel.degree()
        if rd > d:
            continue
        for mult in _monomials_of_degree(pres.gens, d - rd):
            prod = rel * GradedPoly(pres.gens, {mult: 1})
            if prod.is_zero():
                continue
            row = [Fraction(0)] * len(monos)
            for e, c in prod.terms.items():
                row[index[e]] = c
            span.append(row)
    vec = [Fraction(0)] * len(monos)
    for e, c in poly.terms.items():
        vec[index[e]] = c
    red, pivots, _ = _fraction_rref(span)
    for row, pc in zip(red, pivots):
        f = vec[pc]
        if f:
            vec = [x - f * y for x, y in zip(vec, row)]
    return GradedPoly(pres.gens, {monos[i]: vec[i] for i in range(len(monos))})


def _ring_equal(table, p, q):
    diff = (p if not isinstance(p, str) else table.presentation.poly(p)) - \
        (q if not isinstance(q, str) else table.presentation.poly(q))
    return table.is_ring_zero(diff)


# -- basics ---------------------------------------------------------------------

def test_wedge_presentation_bases():
    t = build_table(builtin_presentation("wedge", p=5, q=7))
    assert t.betti() == [1 if k in (0, 5, 7, 12) else 0 for k in range(13)]
    assert [t.monomial_name(m) for m in t.basis[12]] == ["u*v"]


def test_odd_generators_square_to_zero():
    gens = (Generator("u", 3), Generator("v", 5))
    u = GradedPoly.generator(gens, "u")
    assert (u * u).is_zero()
    v = GradedPoly.generator(gens, "v")
    # graded commutativity: odd * odd anticommutes
    assert u * v == (v * u).scale(-1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 5), max_size=5), st.integers(0, 14))
def test_monomials_are_listed_and_counted_by_degree(degrees, top):
    """`_monomials_of_degree` lists the exponent tuples of a degree, odd
    exponents at most 1, in lexicographic order; `_monomial_counts` counts
    them without listing them."""
    gens = [Generator(f"g{i}", d) for i, d in enumerate(degrees)]
    by_degree = [[] for _ in range(top + 1)]
    for exps in itertools.product(*(range(2 if d % 2 else top // d + 1)
                                    for d in degrees)):
        d = sum(e * g for e, g in zip(exps, degrees))
        if d <= top:
            by_degree[d].append(exps)
    assert [ring._monomials_of_degree(gens, d) for d in range(top + 1)] == by_degree
    assert ring._monomial_counts(gens, top) == [len(m) for m in by_degree]


def test_parse_poly_roundtrip():
    gens = (Generator("x", 2), Generator("y", 2))
    for s in ("x*y - y^2 + x^2", "-2*x^2 + 1/2*y^2", "x^3", "3*x*y"):
        p = parse_poly(s, gens)
        assert parse_poly(poly_to_string(p), gens) == p
    with pytest.raises(RingError):
        parse_poly("x*z", gens)
    with pytest.raises(RingError):
        parse_poly("x^y", gens)


@st.composite
def _poly(draw):
    """A polynomial over generators of mixed parity, with Fraction
    coefficients of either sign and possibly a constant term."""
    degrees = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    gens = tuple(Generator(f"g{i}", d) for i, d in enumerate(degrees))
    exps = st.tuples(*(st.integers(0, 3) for _ in gens))
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    return gens, GradedPoly(gens, draw(st.dictionaries(exps, coeffs, max_size=5)))


@settings(max_examples=150, deadline=None)
@given(_poly())
def test_parse_poly_roundtrip_property(case):
    gens, p = case
    assert parse_poly(poly_to_string(p), gens) == p


@st.composite
def _word(draw):
    """Generators of mixed parity and a word of factors over them: generator
    indices with exponents, in any order and with repeats."""
    degrees = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    gens = tuple(Generator(f"g{i}", d) for i, d in enumerate(degrees))
    factors = st.tuples(st.integers(0, len(gens) - 1), st.integers(1, 2))
    return gens, draw(st.lists(factors, min_size=1, max_size=6))


@settings(max_examples=200, deadline=None)
@given(_word())
def test_parse_poly_word_is_graded_product(case):
    gens, factors = case
    text = "*".join(f"{gens[i].name}^{e}" if e > 1 else gens[i].name
                    for i, e in factors)
    product = GradedPoly.constant(gens, 1)
    for i, e in factors:
        product = product * GradedPoly.generator(gens, gens[i].name).power(e)
    assert parse_poly(text, gens) == product


@pytest.mark.parametrize("text", [
    "x*y -", "x*", "+", "-", "", "x^", "x**", "x +", "x*y + -", "2*",
    "1/0", "x^3 - 1/0*y^3", "0/0*x", "x*y - 3/00*y^2",
    "2^3*x", "x^2^3", "x y", "2 3*x", "2x", "x^0",
    "9" * 4400 + "*x", "1/" + "9" * 4400 + "*x", "x^" + "9" * 4400,
], ids=lambda text: text if len(text) < 20 else f"{text[:8]}...{len(text)}")
def test_parse_poly_refuses_incomplete_text_and_zero_denominators(text):
    """A text with no term, or that ends in `*`, `^`, `+` or `-`, or with a
    zero denominator, a power of a number, a power of a power, two atoms
    with no operator between them, an exponent below 1 or a number too long
    for `int` is refused, rather than read as some other polynomial or let
    a ZeroDivisionError or ValueError through."""
    gens = (Generator("x", 2), Generator("y", 2))
    with pytest.raises(RingError):
        parse_poly(text, gens)


def test_parse_poly_keeps_zero_and_signs():
    gens = (Generator("x", 2), Generator("y", 2))
    assert parse_poly("0", gens).is_zero()
    assert parse_poly("-0", gens).is_zero()
    assert parse_poly("x - -y", gens) == parse_poly("x + y", gens)
    assert parse_poly("-x*y", gens) == parse_poly("x*y", gens).scale(-1)
    assert parse_poly("3/6*x", gens).terms == {(1, 0): Fraction(1, 2)}
    assert parse_poly("x + -3*y", gens) == parse_poly("x - 3*y", gens)
    assert parse_poly("--x", gens) == parse_poly("x", gens)
    assert parse_poly("x*-y", gens) == parse_poly("-x*y", gens)
    assert parse_poly("x**2", gens) == parse_poly("x^2", gens)
    assert parse_poly(" x * y ", gens) == parse_poly("x*y", gens)


@st.composite
def _written_poly(draw):
    """A polynomial over generators of mixed parity and a text for it with
    random space between tokens, `^` or `**`, an optional `1*` and leading
    signs before any factor.  Each term lists its factors in generator
    order, so the graded sign of every term is +1."""
    gens, p = draw(_poly())
    space = st.sampled_from(["", " ", "  ", "\t"])
    signs = st.lists(st.sampled_from("+-"), max_size=3)

    def join(tokens):
        return "".join(draw(space) + t for t in tokens) + draw(space)

    terms = []
    for k, (exps, c) in enumerate(sorted(p.terms.items()) or [((), 0)]):
        factors = [[str(abs(c))]] if abs(c) != 1 or not any(exps) \
            or draw(st.booleans()) else []
        for e, g in zip(exps, gens):
            if e:
                pow_ = draw(st.sampled_from(["^", "**"]))
                factors.append([g.name, pow_, str(e)] if e > 1 or draw(st.booleans())
                               else [g.name])
        lead = [draw(signs) for _ in factors]
        separator = [draw(st.sampled_from("+-"))] if k else []
        minus = sum(s.count("-") for s in lead + [separator])
        if (minus % 2 == 1) != (c < 0):
            lead[0] = ["-"] + lead[0]
        terms.append(separator + [t for s, f in zip(lead, factors)
                                  for t in s + f + ["*"]][:-1])
    return gens, p, join([t for term in terms for t in term])


@settings(max_examples=200, deadline=None)
@given(_written_poly())
def test_parse_poly_reads_any_spacing_power_sign_and_unit_coefficient(case):
    gens, p, text = case
    assert parse_poly(text, gens) == p, text


def test_parsed_polynomials_are_shared_per_text_and_generators():
    """One GradedPoly per (text, generators) pair: a list of the same
    generators finds it too; other generators or another text do not."""
    gens = (Generator("x", 2), Generator("y", 2))
    p = parse_poly("x*y - 2*y^2", gens)
    assert parse_poly("x*y - 2*y^2", list(gens)) is p
    assert parse_poly("x*y - 2*y^2", tuple(Generator(g.name, g.degree)
                                            for g in gens)) is p
    assert parse_poly("x*y - 2*y^2", (Generator("x", 2), Generator("y", 4))) \
        is not p
    assert parse_poly("x*y + -2*y^2", gens) == p


_BUILTINS = [("eschenburg-ex1", {}), ("eschenburg-ex2", {}), ("flag-su3", {}),
             ("totaro", {"a": 1, "b": 1}), ("totaro", {"a": 0, "b": Fraction(-1, 2)}),
             ("sphere-bundle", {"c": 2}), ("sphere-bundle", {"c": 0}),
             ("sphere-bundle", {"c": -3}), ("wedge", {"p": 5, "q": 7}),
             ("wedge", {"p": 2, "q": 4})]


@pytest.mark.parametrize("name,params", _BUILTINS)
def test_spec_round_trip_gives_same_table(name, params):
    pres = builtin_presentation(name, **params)
    spec = pres.spec()
    assert json.loads(json.dumps(spec)) == spec
    table = build_table(pres)
    again = build_table(RingPresentation.from_spec(spec))
    assert again is table  # the round trip gives an equal ring, hence its table
    assert again.basis == table.basis
    assert {d: [again.monomial_name(m) for m in b] for d, b in again.basis.items()} \
        == {d: [table.monomial_name(m) for m in b] for d, b in table.basis.items()}


def test_builtin_presentations_are_built_once_per_params():
    """Equal params give the same presentation object, whatever their type;
    other params give another."""
    one = builtin_presentation("totaro", a=1, b=-2)
    assert builtin_presentation("totaro", a=Fraction(1), b=Fraction(-2)) is one
    assert builtin_presentation("totaro", a=2, b=-2) is not one
    assert builtin_presentation("sphere-bundle", c=0) is \
        builtin_presentation("sphere-bundle", c=Fraction(0))


def test_tables_are_shared_by_content_not_by_spec_text(monkeypatch):
    """Two rings whose specs print alike, because `poly_to_string` is made to
    drop every term but the first, still get their own tables; an equal
    ring gets the same one."""
    def spec_ring(c):
        return RingPresentation([("x", 2), ("y", 2)], ["x^3", f"y^2 + {c}*x^2"],
                                6, volume_monomial="x^2*y", name="r")

    keep_first = poly_to_string
    monkeypatch.setattr(ring, "poly_to_string", lambda p: keep_first(
        GradedPoly(p.gens, dict(sorted(p.terms.items())[:1]))))
    one, two = spec_ring(1), spec_ring(2)
    assert one.spec() == two.spec()
    assert build_table(one) is not build_table(two)
    assert build_table(one).reduce("y^2") != build_table(two).reduce("y^2")
    assert build_table(spec_ring(1)) is build_table(one)


@pytest.mark.parametrize("name", ["y-1", "2", 2, "", "x y", "x^2", "1x"], ids=[
    "minus", "digit-text", "int", "empty", "space", "power", "leading-digit"])
def test_generator_names_no_text_can_name_are_refused(name):
    """A generator must be a name of `parse_poly`'s grammar: `y-1` or `2`
    would give the ring a generator no relation can mention."""
    assert generators_from_spec([["x", 2], ["_y1", 2]])[1].name == "_y1"
    with pytest.raises(RingError, match="generator name"):
        generators_from_spec([["x", 2], [name, 2]])
    with pytest.raises(RingError, match="generator name"):
        RingPresentation([("x", 2), (name, 2)], ["x^3"], 6)


def _suite_certificates():
    """Every certificate the suite's certify and totaro rows emit."""
    from geoformal.certify import certify_table, certify_totaro
    from geoformal.cli import _expected_rows
    from geoformal.errors import GeoformalError
    certs = []
    for row in _expected_rows():
        try:
            if row["kind"] == "certify-totaro":
                certs.append(certify_totaro(row["a"], row["b"]))
            elif row["kind"] == "certify":
                table = build_table(builtin_presentation(
                    row["target"], **({"c": row["c"]} if "c" in row else {})))
                certs.append(certify_table(table, pattern_match(table)))
        except GeoformalError:  # NO_CERTIFICATE or PATTERN_INAPPLICABLE rows
            continue
    return certs


def _payload_texts(cert):
    """(text, generators) of every polynomial a certificate writes: its
    ring's relations and volume, its params and each step's polynomials."""
    ring_gens = generators_from_spec(cert.ring["generators"])
    out = [(t, ring_gens) for t in cert.ring["relations"] + [cert.ring["volume"]]]
    out += [(cert.params[k], ring_gens) for k in ("u", "v", "omega", "annihilator")
            if k in cert.params]
    for step in cert.steps:
        p = step.payload
        if step.kind == "ring-reduce":
            out += [(t, ring_gens) for t in [p["poly"], *p.get("expect", {})]]
        elif step.kind == "substitution-identity":
            old, new = (generators_from_spec(p[k])
                        for k in ("generators_old", "generators_new"))
            out += [(p["poly"], old), (p["equals"], new)]
            out += [(t, new) for t in p["images"].values()]
        elif step.kind == "poly-identity":
            gens = generators_from_spec(p["generators"])
            out += [(t, gens) for _, t in p["combination"]] + [(p["equals"], gens)]
    return out


def test_written_polynomials_parse_back_to_themselves():
    """`poly_to_string` and `repr` of every built-in ring's relations, and
    every polynomial text of every certificate the suite emits, read back
    as the polynomial they write."""
    polys = [rel for name, params in _EVERY_BUILTIN
             for rel in builtin_presentation(name, **params).relations]
    certs = _suite_certificates()
    assert {"ring-reduce", "substitution-identity", "poly-identity"} <= \
        {s.kind for cert in certs for s in cert.steps}
    texts = [text for cert in certs for text in _payload_texts(cert)]
    polys += [parse_poly(text, gens) for text, gens in texts]
    for p in polys:
        assert parse_poly(poly_to_string(p), p.gens) == p
        assert parse_poly(repr(p), p.gens) == p


def test_inhomogeneous_relation_rejected():
    with pytest.raises(RingError):
        RingPresentation([("x", 2)], ["x^2 + x"], 6)


def test_degree_overflow_rejected():
    with pytest.raises(RingError):
        RingPresentation([("x", 2)], ["x^4"], 6)
    t = build_table(builtin_presentation("eschenburg-ex1"))
    with pytest.raises(RingError):
        t.reduce("x^4")


# -- Eschenburg example 1 --------------------------------------------------------

def test_ex1_degree4_basis(ex1_table):
    assert [ex1_table.monomial_name(m) for m in ex1_table.basis[4]] == \
        ["x*y", "x^2"]
    assert ex1_table.betti() == [1, 0, 2, 0, 2, 0, 1]


def test_ex1_top_basis_is_designated(ex1_table):
    assert [ex1_table.monomial_name(m) for m in ex1_table.basis[6]] == ["x^2*y"]


def test_ex1_z_prime_identities(ex1_table):
    t = ex1_table
    z = t.presentation.poly("x - 2*y")
    # z'^2 = 5 x^2 exactly
    assert reduce_poly(t, z * z) == reduce_poly(t, t.presentation.poly("5*x^2"))
    assert {t.monomial_name(m): c for m, c in t.reduce(z * z).items()} == \
        {"x^2": Fraction(5)}
    # z'^3 = -10 x y^2 as ring elements
    z3 = reduce_poly(t, z * z * z)
    assert z3 == reduce_poly(t, t.presentation.poly("x*y^2").scale(-10))
    assert {t.monomial_name(m): c for m, c in z3.terms.items()} == \
        {"x^2*y": Fraction(-10)}
    # reduce(x*y^2) lands on the designated volume monomial
    assert {t.monomial_name(m): c for m, c in t.reduce("x*y^2").items()} == \
        {"x^2*y": Fraction(1)}


def test_ex1_reduction_matches_oracle(ex1_table):
    rng = random.Random(3)
    gens = ex1_table.presentation.gens
    for d in (2, 4, 6):
        from geoformal.ring import _monomials_of_degree
        monos = _monomials_of_degree(gens, d)
        for _ in range(10):
            poly = GradedPoly(gens, {m: rng.randint(-3, 3) for m in monos})
            mine = reduce_poly(ex1_table, poly)
            oracle = _reduce_oracle(ex1_table, poly)
            assert ex1_table.is_ring_zero(mine - oracle)


def test_ex1_is_pd(ex1_table):
    assert is_pd_algebra(ex1_table)
    assert linalg.rank(poincare_pairing(ex1_table, 2)) == 2


# -- Eschenburg example 2 --------------------------------------------------------

def test_ex2_bases_and_products(ex2_table):
    t = ex2_table
    assert t.betti() == [1, 0, 2, 0, 2, 0, 1]
    assert [t.monomial_name(m) for m in t.basis[4]] == ["x*y", "x^2"]
    # H^6 is a single line with x^3 = y^3 = x^2 y = x y^2
    for mono in ("x^3", "y^3", "x*y^2"):
        assert _ring_equal(t, mono, "x^2*y")
    s = t.presentation.poly("x + y")
    cube = t.reduce(s * s * s)
    assert {t.monomial_name(m): c for m, c in cube.items()} == \
        {"x^2*y": Fraction(8)}  # all four degree-6 monomials coincide
    assert t.is_ring_zero(t.presentation.poly("x - y") * s)


def test_ex2_pairing_is_degenerate(ex2_table):
    """The literal two-relation presentation is not a PD algebra: x - y
    pairs to zero with all of H^4 (the actual biquotient rings carry a
    weight-dependent cube ratio that restores duality).  The Lefschetz
    obstruction does not use duality."""
    t = ex2_table
    assert not is_pd_algebra(t)
    s = t.presentation.poly("x - y")
    for mono in ("x*y", "x^2"):
        assert t.is_ring_zero(s * t.presentation.poly(mono))


def test_pd_destroyed_by_extra_relation():
    pres = RingPresentation(
        [("x", 2), ("y", 2)],
        ["x^2 - y^2", "x^3 - y^3", "x^2"], 6, name="ex2-degenerate")
    assert not is_pd_algebra(build_table(pres))


# -- flag and sphere-bundle rings -------------------------------------------------

def test_flag_ring():
    t = build_table(builtin_presentation("flag-su3"))
    assert t.betti() == [1, 0, 2, 0, 2, 0, 1]
    assert is_pd_algebra(t)
    assert t.is_ring_zero("x^3")
    assert t.is_ring_zero("y^3")


def test_sphere_bundle_ring_values():
    t = build_table(builtin_presentation("sphere-bundle", c=Fraction(3)))
    assert t.betti() == [1, 0, 2, 0, 2, 0, 1]
    assert _ring_equal(t, "y^3", "-3*x^2*y")
    assert t.is_ring_zero("x*y^2")
    assert is_pd_algebra(t)


def test_sphere_bundle_chern_normalization():
    """Completing the square on y^2 + c1 xy + c2 x^2 = 0 gives
    y'^2 + (c2 - c1^2/4) x^2 = 0: the reduced constant is -p1/4."""
    c1, c2 = Fraction(2), Fraction(5)
    pres = RingPresentation(
        [("x", 2), ("y", 2)],
        [f"y^2 + {c1}*x*y + {c2}*x^2", "x^3"], 6,
        volume_monomial="x^2*y", name="chern")
    t = build_table(pres)
    yp = pres.poly(f"y + {c1 / 2}*x")
    c = c2 - c1 * c1 / 4
    assert t.is_ring_zero(yp * yp + pres.poly("x^2").scale(c))
    tag = pattern_match(t)
    assert tag.kind == "RANK_KERNEL"
    assert tag.params["c"] == c


# -- reduction laws ----------------------------------------------------------------

_TABLES = {}


@st.composite
def _reduction_case(draw):
    """A built-in ring's table, two polynomials of one degree over its
    generators and a rational scalar."""
    i = draw(st.integers(0, len(_BUILTINS) - 1))
    if i not in _TABLES:
        _TABLES[i] = build_table(builtin_presentation(_BUILTINS[i][0], **_BUILTINS[i][1]))
    table = _TABLES[i]
    monos = draw(st.sampled_from([m for m in table.monomials.values() if m]))
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    p, q = (GradedPoly(table.presentation.gens,
                       draw(st.dictionaries(st.sampled_from(monos), coeffs, max_size=6)))
            for _ in range(2))
    return table, p, q, draw(coeffs)


@settings(max_examples=200, deadline=None)
@given(_reduction_case())
def test_reduce_is_idempotent_and_linear_property(case):
    table, p, q, s = case
    rp, rq = table.reduce(p), table.reduce(q)
    assert table.reduce(reduce_poly(table, p)) == rp  # idempotent
    assert all(m in table.basis[p.degree()] for m in rp)  # onto the basis
    combined = {m: rp.get(m, 0) + s * rq.get(m, 0) for m in rp.keys() | rq.keys()}
    assert table.reduce(p + q.scale(s)) == {m: c for m, c in combined.items() if c}


_EVERY_BUILTIN = ([("eschenburg-ex1", {}), ("eschenburg-ex2", {}), ("flag-su3", {}),
                   ("wedge", {"p": 2, "q": 4}), ("wedge", {"p": 5, "q": 7})]
                  + [("totaro", {"a": a, "b": b})
                     for a in range(-2, 3) for b in range(-2, 3)]
                  + [("sphere-bundle", {"c": c})
                     for c in (-2, -1, 0, 1, 2, Fraction(1, 2))])


def _reference_normal_forms(table, d, polys):
    """The quotient basis of degree d and the normal forms of `polys`, from
    one Fraction elimination of the relation products in the table's column
    order, then subtracting the reduced rows from each polynomial."""
    from geoformal.ring import _monomials_of_degree
    pres = table.presentation
    monos = table.monomials[d]
    rows = []
    for rel in pres.relations:
        if rel.degree() <= d:
            for mult in _monomials_of_degree(pres.gens, d - rel.degree()):
                prod = rel * GradedPoly(pres.gens, {mult: 1})
                rows.append([Fraction(prod.terms.get(m, 0)) for m in monos])
    red, pivots, _ = _fraction_rref(rows)
    forms = []
    for poly in polys:
        vec = [Fraction(poly.terms.get(m, 0)) for m in monos]
        for row, pc in zip(red, pivots):
            f = vec[pc]
            if f:
                vec = [x - f * y for x, y in zip(vec, row)]
        forms.append({m: x for m, x in zip(monos, vec) if x})
    return [m for i, m in enumerate(monos) if i not in pivots], forms


@pytest.mark.parametrize("name,params", _EVERY_BUILTIN)
def test_normal_forms_match_fraction_reference(name, params):
    """Every degree of every built-in ring: the quotient basis and the
    normal forms of each monomial and of seeded random polynomials equal
    the Fraction reference, with each coefficient an int exactly when
    integral; the columns are the degree's monomials, volume monomial last."""
    from geoformal.ring import _monomials_of_degree
    table = NormalFormTable(builtin_presentation(name, **params))
    pres = table.presentation
    rng = random.Random(f"{name}{sorted(params.items())}")
    for d, monos in table.monomials.items():
        assert sorted(monos) == sorted(_monomials_of_degree(pres.gens, d))
        if d == pres.top and pres.volume_monomial is not None:
            assert monos[-1] == pres.volume_monomial
        polys = [GradedPoly(pres.gens, {m: 1}) for m in monos]
        for _ in range(6 if monos else 0):
            terms = rng.sample(monos, rng.randint(1, len(monos)))
            polys.append(GradedPoly(pres.gens, {m: rng.choice(
                [rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 6))])
                for m in terms}))
        basis, forms = _reference_normal_forms(table, d, polys)
        assert table.basis[d] == basis
        for poly, form in zip(polys, forms):
            got = table.reduce(poly)
            assert got == form
            assert all(_narrowed(x) for x in got.values())

def test_reduce_linear_idempotent_and_kills_ideal(ex1_table, ex2_table):
    rng = random.Random(8)
    for t in (ex1_table, ex2_table):
        pres = t.presentation
        from geoformal.ring import _monomials_of_degree
        for rel in pres.relations:
            rd = rel.degree()
            for d in range(rd, pres.top + 1, 2):
                for mult in _monomials_of_degree(pres.gens, d - rd):
                    assert t.is_ring_zero(rel * GradedPoly(pres.gens, {mult: 1}))
        for d in (2, 4, 6):
            monos = _monomials_of_degree(pres.gens, d)
            p = GradedPoly(pres.gens, {m: rng.randint(-3, 3) for m in monos})
            q = GradedPoly(pres.gens, {m: rng.randint(-3, 3) for m in monos})
            rp = reduce_poly(t, p)
            assert reduce_poly(t, rp) == rp  # idempotent
            assert reduce_poly(t, p + q) == reduce_poly(
                t, reduce_poly(t, p) + reduce_poly(t, q))  # linear


def test_products_rereduce_consistently(ex1_table):
    rng = random.Random(21)
    t = ex1_table
    gens = t.presentation.gens
    from geoformal.ring import _monomials_of_degree
    m2 = _monomials_of_degree(gens, 2)
    m4 = _monomials_of_degree(gens, 4)
    for _ in range(30):
        p = GradedPoly(gens, {m: rng.randint(-3, 3) for m in m2})
        q = GradedPoly(gens, {m: rng.randint(-3, 3) for m in m4})
        assert reduce_poly(t, reduce_poly(t, p) * reduce_poly(t, q)) == \
            reduce_poly(t, p * q)
        assert reduce_poly(t, p * q) == reduce_poly(t, q * p)  # even degrees


def test_graded_commutativity_signs():
    gens = (Generator("a", 3), Generator("b", 2), Generator("c", 5))
    a = GradedPoly.generator(gens, "a")
    b = GradedPoly.generator(gens, "b")
    c = GradedPoly.generator(gens, "c")
    assert a * b == b * a
    assert a * c == (c * a).scale(-1)
    assert (a * b) * c == a * (b * c)



def test_antiderivation_is_odd_leibniz():
    gens = (Generator("x", 2), Generator("a", 1), Generator("b", 1),
            Generator("s", 0))

    def P(text):
        return parse_poly(text, gens)

    images = {"x": P("a"), "a": P("s"), "b": P("1"), "s": P("0")}
    assert P("x^3").antiderivation(images) == P("3*x^2*a")
    assert P("a*b").antiderivation(images) == P("s*b - a")
    for p, q in (("x*a", "b"), ("a", "x*b"), ("x^2", "a*b"), ("s*x", "x*a")):
        sign = (-1) ** P(p).degree()
        assert (P(p) * P(q)).antiderivation(images) == (
            P(p).antiderivation(images) * P(q)
            + (P(p) * P(q).antiderivation(images)).scale(sign))
    with pytest.raises(KeyError):
        P("x*a").antiderivation({"x": P("a")})


# -- int coefficients against a Fraction-only reference ----------------------------
#
# The reference keeps every polynomial as an {exps: Fraction} dict and repeats
# the graded rules on it independently: odd generators square to zero, and
# moving an odd factor past another costs a sign.


def _ref(gens, terms):
    """`terms` as Fractions, without zeros and odd squares."""
    return {e: Fraction(c) for e, c in terms.items()
            if c and all(x <= 1 for x, g in zip(e, gens) if g.degree % 2)}


def _ref_add(gens, p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, Fraction(0)) + c
    return _ref(gens, out)


def _ref_scale(gens, p, k):
    return _ref(gens, {e: c * Fraction(k) for e, c in p.items()})


def _ref_mul(gens, p, q):
    odd = [i for i, g in enumerate(gens) if g.degree % 2]
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            if any(e1[i] and e2[i] for i in odd):
                continue
            swaps = sum(e1[i] * e2[j] for i in odd for j in odd if i > j)
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + (-1) ** swaps * c1 * c2
    return _ref(gens, out)


def _ref_power(gens, p, k):
    acc = {(0,) * len(gens): Fraction(1)}
    for _ in range(k):
        acc = _ref_mul(gens, acc, p)
    return acc


def _ref_map(gens, p, new_gens, images):
    out = {}
    for exps, c in p.items():
        term = {(0,) * len(new_gens): c}
        for e, g in zip(exps, gens):
            for _ in range(e):
                term = _ref_mul(new_gens, term, images[g.name])
        out = _ref_add(new_gens, out, term)
    return out


def _ref_antiderivation(gens, p, images):
    out = {}
    for exps, c in p.items():
        before = 0
        for k, (e, g) in enumerate(zip(exps, gens)):
            if e:
                head = {exps[:k] + (e - 1,) + (0,) * (len(gens) - k - 1):
                        (-1) ** before * e * c}
                tail = {(0,) * (k + 1) + exps[k + 1:]: Fraction(1)}
                out = _ref_add(gens, out, _ref_mul(
                    gens, _ref_mul(gens, head, images[g.name]), tail))
                before += e * g.degree
    return out


_COEFFS = [1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2),
           Fraction(2, 3), Fraction(4, 2), Fraction(-6, 3), "1/2", "7"]


def _random_terms(rng, gens):
    return {tuple(rng.randint(0, 2) for _ in gens): rng.choice(_COEFFS)
            for _ in range(rng.randint(0, 4))}


def _random_gens(rng, prefix):
    return tuple(Generator(f"{prefix}{i}", rng.randint(1, 3))
                 for i in range(rng.randint(1, 3)))


def _assert_matches(poly, ref):
    """Equal terms and text, and a coefficient is an int exactly when it is
    integral."""
    assert poly.terms == ref
    assert poly_to_string(poly) == poly_to_string(
        SimpleNamespace(gens=poly.gens, terms=ref, is_zero=lambda: not ref))
    for c in poly.terms.values():
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction), c


def test_arithmetic_matches_fraction_reference_with_int_coefficients():
    rng = random.Random(24)
    for _ in range(200):
        gens = _random_gens(rng, "g")
        pt, qt = _random_terms(rng, gens), _random_terms(rng, gens)
        p, q = GradedPoly(gens, pt), GradedPoly(gens, qt)
        pr, qr = _ref(gens, pt), _ref(gens, qt)
        _assert_matches(p, pr)
        _assert_matches(p + q, _ref_add(gens, pr, qr))
        _assert_matches(p - q, _ref_add(gens, pr, _ref_scale(gens, qr, -1)))
        _assert_matches(p * q, _ref_mul(gens, pr, qr))
        k = rng.choice(_COEFFS)
        _assert_matches(p.scale(k), _ref_scale(gens, pr, k))
        e = rng.randint(0, 3)
        _assert_matches(p.power(e), _ref_power(gens, pr, e))
        new_gens = _random_gens(rng, "h")
        image_terms = {g.name: _random_terms(rng, new_gens) for g in gens}
        _assert_matches(
            p.map_generators(new_gens, {name: GradedPoly(new_gens, t)
                                        for name, t in image_terms.items()}),
            _ref_map(gens, pr, new_gens, {name: _ref(new_gens, t)
                                          for name, t in image_terms.items()}))
        image_terms = {g.name: _random_terms(rng, gens) for g in gens}
        _assert_matches(
            p.antiderivation({name: GradedPoly(gens, t)
                              for name, t in image_terms.items()}),
            _ref_antiderivation(gens, pr, {name: _ref(gens, t)
                                           for name, t in image_terms.items()}))


# -- the polynomial kernel against per-pair and term-by-term references ----------


def _mul_exps_reference(gens, e1, e2):
    """The graded product of two canonical monomials, computed for one term
    pair on its own; None when an odd generator repeats."""
    odd1 = [e for e, g in zip(e1, gens) if g.degree % 2 == 1]
    odd2 = [e for e, g in zip(e2, gens) if g.degree % 2 == 1]
    for a, b in zip(odd1, odd2):
        if a and b:
            return None
    swaps = 0
    for jj in range(len(odd1)):
        if odd2[jj]:
            swaps += sum(odd1[ii] for ii in range(jj + 1, len(odd1)))
    return (-1 if swaps % 2 else 1), tuple(a + b for a, b in zip(e1, e2))


def _mul_per_pair(p, q):
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            product = _mul_exps_reference(p.gens, e1, e2)
            if product is not None:
                sign, exps = product
                out[exps] = out.get(exps, 0) + sign * c1 * c2
    return GradedPoly(p.gens, out)


@st.composite
def _gens(draw, prefix, parity):
    """One to three generators: all of even degree, or of mixed parity with
    at least one odd generator."""
    if parity == "even":
        degrees = draw(st.lists(st.sampled_from([2, 4]), min_size=1, max_size=3))
    else:
        degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        degrees[draw(st.integers(0, len(degrees) - 1))] = draw(st.sampled_from([1, 3]))
    return tuple(Generator(f"{prefix}{i}", d) for i, d in enumerate(degrees))


@st.composite
def _poly_over(draw, gens, max_terms=4):
    """Exponents up to 2 on even generators and up to 1 on odd ones, whose
    squares vanish."""
    exps = st.tuples(*(st.integers(0, 1 if g.degree % 2 else 2) for g in gens))
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    return GradedPoly(gens, draw(st.dictionaries(exps, coeffs, max_size=max_terms)))


@st.composite
def _kernel_case(draw):
    """Generators of either parity, two polynomials over them, and images of
    every generator over the same and over other generators."""
    gens = draw(_gens("g", draw(st.sampled_from(["even", "mixed"]))))
    new_gens = draw(_gens("h", draw(st.sampled_from(["even", "mixed"]))))
    p, q = draw(_poly_over(gens)), draw(_poly_over(gens))
    images = {g.name: draw(_poly_over(gens, 3)) for g in gens}
    new_images = {g.name: draw(_poly_over(new_gens, 3)) for g in gens}
    return gens, p, q, images, new_gens, new_images


@settings(max_examples=150, deadline=None)
@given(_kernel_case())
def test_product_matches_per_pair_reference(case):
    gens, p, q, _, _, _ = case
    for left, right in ((p, q), (q, p), (p, p)):
        got = left * right
        assert got == _mul_per_pair(left, right)
        _assert_matches(got, _ref_mul(gens, left.terms, right.terms))


@settings(max_examples=100, deadline=None)
@given(_kernel_case())
def test_substitution_and_antiderivation_match_term_by_term_reference(case):
    gens, p, _, images, new_gens, new_images = case
    _assert_matches(p.map_generators(new_gens, new_images),
                    _ref_map(gens, p.terms, new_gens,
                             {k: v.terms for k, v in new_images.items()}))
    _assert_matches(p.antiderivation(images),
                    _ref_antiderivation(gens, p.terms,
                                        {k: v.terms for k, v in images.items()}))


@settings(max_examples=100, deadline=None)
@given(_kernel_case())
def test_arithmetic_leaves_its_operands_unchanged(case):
    """Parsed polynomials are shared, so no operation may write to an
    operand's terms or hand an operand's dict out as its result's."""
    gens, p, q, images, new_gens, new_images = case
    operands = [p, q, *images.values(), *new_images.values()]
    before = [dict(x.terms) for x in operands]
    results = [p + q, p - q, -p, p * q, q * p, p.scale(3),
               p.scale(Fraction(-1, 2)), p.power(2),
               p.map_generators(new_gens, new_images), p.antiderivation(images)]
    assert [x.terms for x in operands] == before
    assert not {id(r.terms) for r in results} & {id(x.terms) for x in operands}


def test_suite_totaro_rows_parse_each_text_once(monkeypatch):
    """Emitting and verifying the suite's 25 totaro certificates runs the
    uncached parser once per distinct (text, generators) pair; every other
    request is served from the per-process cache."""
    from geoformal import certify
    from geoformal.cli import _expected_rows
    from geoformal.errors import CertificateUnavailableError

    requested = []

    def recording(text, gens):
        requested.append((text, tuple(gens)))
        return parse_poly(text, gens)

    monkeypatch.setattr(ring, "parse_poly", recording)
    monkeypatch.setattr(certify, "parse_poly", recording)
    ring._parse_poly.cache_clear()
    rows = [row for row in _expected_rows() if row["kind"] == "certify-totaro"]
    assert len(rows) == 25
    for row in rows:
        try:
            cert = certify.certify_totaro(row["a"], row["b"])
        except CertificateUnavailableError:
            continue
        assert certify.verify_certificate(cert, trials=2, seed=0).status == \
            certify.ACCEPTED
    distinct = set(requested)
    assert ring._parse_poly.cache_info().misses == len(distinct)
    assert len(requested) > 2 * len(distinct)


# -- substitution and the parameter family ----------------------------------------

def _nrel_formula(b, gens):
    return (parse_poly("x1*y1", gens).scale(5 * b - 2 * b * b - 4)
            + parse_poly("y1*y2", gens).scale(6 * b - 8)
            + parse_poly("y1^2", gens).scale(b * (b - 4))
            + parse_poly("y2^2", gens).scale(4))


def _displayed_relations(b, gens):
    d2 = (parse_poly("x1*y1", gens).scale(1 - 2 * b)
          + parse_poly("x1*y2", gens).scale(-2)
          + parse_poly("y1*y2", gens).scale(2)
          + parse_poly("y1^2", gens).scale(b))
    d3 = (parse_poly("x1*y1", gens).scale(-2 * b)
          + parse_poly("x1*y2", gens).scale(b - 4)
          + parse_poly("y1*y2", gens).scale(2 * b)
          + parse_poly("y2^2", gens).scale(2))
    return d2, d3


@pytest.mark.parametrize("b", [Fraction(x) for x in (-3, -2, -1, 1, 2, 3)])
def test_totaro_rewrite_grid(b):
    pres = builtin_presentation("totaro", a=1, b=b)
    table = build_table(pres)
    sub = substitute(table, {
        "x1": "x1",
        "y1": f"x1 + {3 / b}*x2",
        "y2": "x1 + 3/2*x3"})
    tsub = build_table(sub)
    gens = sub.gens
    d2, d3 = _displayed_relations(b, gens)
    # the displayed relations are ideal members of the rewritten presentation
    assert tsub.is_ring_zero(d2)
    assert tsub.is_ring_zero(d3)
    # and conversely the rewritten relations reduce to zero against them
    check = build_table(RingPresentation(
        [(g.name, g.degree) for g in gens],
        [d2, d3, parse_poly("x1^2", gens)], 6))
    for rel in sub.relations:
        assert check.is_ring_zero(rel)
    # the eliminating combination reproduces the displayed coefficients
    assert d2.scale(b - 4) + d3.scale(2) == _nrel_formula(b, gens)


def test_totaro_rewrite_random_rationals():
    rng = random.Random(42)
    gens = None
    for _ in range(100):
        b = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        if b == 0:
            continue
        pres = builtin_presentation("totaro", a=1, b=b)
        table = build_table(pres)
        sub = substitute(table, {
            "x1": "x1", "y1": f"x1 + {3 / b}*x2", "y2": "x1 + 3/2*x3"})
        gens = sub.gens
        d2, d3 = _displayed_relations(b, gens)
        tsub = build_table(sub)
        assert tsub.is_ring_zero(d2)
        assert tsub.is_ring_zero(d3)
        assert d2.scale(b - 4) + d3.scale(2) == _nrel_formula(b, gens)


def test_discriminant_fact():
    # 2b^2 - 5b + 4 has discriminant 25 - 32 = -7 < 0
    assert Fraction(5) ** 2 - 4 * Fraction(2) * Fraction(4) == -7


def test_substitute_identity_noop(ex1_table):
    sub = substitute(ex1_table, {"x": "x", "y": "y"})
    assert [poly_to_string(r) for r in sub.relations] == \
        [poly_to_string(r) for r in ex1_table.presentation.relations]


def test_substitute_rejects_singular(ex1_table):
    with pytest.raises(RingError):
        substitute(ex1_table, {"x": "x + y", "y": "x + y"})


def test_substitute_case4_decouples():
    pres = builtin_presentation("totaro", a=0, b=0)
    table = build_table(pres)
    sub = substitute(table, {"x1": "x1", "y1": "x2 + x3", "y2": "x2 + 1/2*x3"})
    tsub = build_table(sub)
    gens = sub.gens
    # the derived relations of the decoupled member
    assert tsub.is_ring_zero(parse_poly("y2^2 - y1*y2", gens))
    assert tsub.is_ring_zero(parse_poly("y1^2 - 2*y1*y2", gens))
    # and the would-be contradiction pivot reduces to zero
    y1y2sq = parse_poly("y1", gens) * parse_poly("y2^2", gens)
    assert tsub.is_ring_zero(y1y2sq)


def test_table_readers(ex1_table):
    t = ex1_table
    z = t.presentation.poly("x - y")
    assert t.volume() == (2, 1)  # x^2*y, the designated top monomial
    assert t.basis[4] == [(1, 1), (2, 0)]  # x*y, x^2
    assert t.coordinates(z * z, 4) == [-1, 2]  # z^2 = 2 x^2 - x y
    assert t.volume_coefficient(z * z * z) == -2
    assert t.volume_coefficient(t.presentation.poly("x^3")) == 0
    assert t.volume_coefficient(z * z) is None  # not of the top degree
    flat = build_table(RingPresentation([("x", 2), ("y", 2)], [], 4))
    assert flat.volume() is None and flat.volume_coefficient(z * z) is None


def test_coefficient_reads_products_of_named_generators():
    p = RingPresentation([("x", 2), ("y", 2)], [], 6).poly("3*x*y - y^2 + 1/2")
    assert (p.coefficient("y", "x"), p.coefficient("y", "y"),
            p.coefficient("x", "x"), p.coefficient()) == (3, -1, 0, Fraction(1, 2))


# -- pairings and patterns ----------------------------------------------------------

def test_poincare_pairing_requires_one_dim_top():
    pres = RingPresentation([("x", 2), ("y", 2)], [], 4)
    t = build_table(pres)  # top piece is 3-dimensional
    with pytest.raises(RingError):
        poincare_pairing(t, 2)


def test_pd_betti_palindromic():
    for name, params in (("eschenburg-ex1", {}), ("flag-su3", {}),
                         ("sphere-bundle", {"c": 2}), ("wedge", {"p": 5, "q": 7})):
        t = build_table(builtin_presentation(name, **params))
        if is_pd_algebra(t):
            assert t.betti() == t.betti()[::-1]


def test_pattern_dispatch():
    assert pattern_match(build_table(builtin_presentation(
        "sphere-bundle", c=3))).kind == "RANK_KERNEL"
    tag = pattern_match(build_table(builtin_presentation("sphere-bundle", c=3)))
    assert tag.params["c"] == 3
    tag1 = pattern_match(build_table(builtin_presentation("eschenburg-ex1")))
    assert tag1.kind == "RANK_KERNEL" and tag1.params["c"] == -5
    assert pattern_match(build_table(builtin_presentation(
        "eschenburg-ex2"))).kind == "LEFSCHETZ"
    tt = pattern_match(build_table(builtin_presentation("totaro", a=1, b=-2)))
    assert tt.kind == "TOTARO" and (tt.params["a"], tt.params["b"]) == (1, -2)
    assert pattern_match(build_table(builtin_presentation(
        "wedge", p=5, q=7))).kind == "PROD_ODD"
    # truncated polynomial ring on one degree-4 generator: degrees 0, 4, 8
    p1 = RingPresentation([("x", 4)], [], 8, name="projective-plane-like")
    assert pattern_match(build_table(p1)).kind == "P1"


@pytest.mark.parametrize("relations", [
    ["x1^2", "x1*x2 + x2*x3 + x2^2 + x3^2", "x1*x3 + 2*x2*x3 + x3^2"],
    ["x1^2", "x1*x2 + x2*x3 + x2^2", "x1*x3 + 2*x2*x3 + x3^2 + 5*x2^2"],
    ["x1^2", "x1*x2 + x2*x3 + x2^2", "x1*x2 + 2*x2*x3 + x2^2"],
], ids=["x3-square-in-r2", "x2-square-in-r3", "two-x2-squares"])
def test_totaro_match_needs_the_whole_relations(relations):
    """TOTARO matches only when each relation is, up to scale, exactly its
    role's polynomial: an extra square term is no member of the family."""
    pres = RingPresentation([("x1", 2), ("x2", 2), ("x3", 2)], relations, 6)
    assert pattern_match(build_table(pres)).kind != "TOTARO"


def test_lefschetz_annihilator_kills_omega():
    # x (x + 2y) = 0: the annihilator of omega = x is x + 2y, not 2x + y
    t = build_table(RingPresentation(
        [("x", 2), ("y", 2)], ["x^2 + 2*x*y", "x^3 - 3*x^2*y - 6*x*y^2 - 4*y^3"],
        6, volume_monomial="y^3"))
    tag = pattern_match(t)
    assert tag.kind == "LEFSCHETZ"
    omega, s = (t.presentation.poly(tag.params[k]) for k in ("omega", "annihilator"))
    assert t.is_ring_zero(omega * s) and not t.is_ring_zero(s)


def test_trivial_bundle_matches_no_negative_pattern():
    t = build_table(builtin_presentation("sphere-bundle", c=0))
    tag = pattern_match(t)
    assert tag.kind not in ("RANK_KERNEL", "LEFSCHETZ", "TOTARO")


def _divisor_roots(*coeffs):
    """Rational roots by the rational root theorem: every candidate +-p/q
    with p dividing the constant and q the leading coefficient of the
    primitive integer form (the trailing zero coefficients stripped first)."""
    ints = linalg.primitive_vector(coeffs)
    while ints and ints[0] == 0:
        ints.pop(0)
    if not ints:
        return []
    roots = set()
    while ints[-1] == 0:
        roots.add(Fraction(0))
        ints.pop()

    def divisors(n):
        small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
        return set(small + [n // d for d in small])

    for p in divisors(abs(ints[-1])):
        for q in divisors(abs(ints[0])):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if sum(c * cand ** i for i, c in enumerate(reversed(ints))) == 0:
                    roots.add(cand)
    return sorted(roots)


def _expand(factors):
    """Coefficients, leading first, of the product of linear factors
    (p, q) -> p*t - q."""
    out = [1]
    for p, q in factors:
        out = [p * a - q * b for a, b in zip(out + [0], [0] + out)]
    return out


def test_rational_roots_match_divisor_reference():
    rng = random.Random(55)
    small = list(range(-6, 7))
    for _ in range(400):
        degree = rng.choice([2, 3])
        if rng.random() < 0.5:  # products of rational linear factors
            factors = [(rng.randint(1, 6), rng.choice(small))
                       for _ in range(rng.randint(0, degree))]
            coeffs = _expand(factors)
            coeffs = [0] * (degree + 1 - len(coeffs)) + coeffs
            coeffs = [c * rng.choice([1, -2, 3]) for c in coeffs]
        else:
            coeffs = [rng.choice(small) for _ in range(degree + 1)]
        if rng.random() < 0.3:  # Fraction coefficients, as the matchers pass
            coeffs = [Fraction(c, 4) for c in coeffs]
        assert ring._rational_roots(*coeffs) == _divisor_roots(*coeffs), coeffs


@pytest.mark.parametrize("coeffs,roots", [
    ((1, 0, 0, -10 ** 21), [Fraction(10 ** 7)]),
    ((10 ** 21, 0, 0, -1), [Fraction(1, 10 ** 7)]),
    ((6, -5, 1), [Fraction(1, 3), Fraction(1, 2)]),
    ((1, 0, 1), []),
    ((0, 0, 0, 0), []),
    ((0, 0, 5), []),
    ((1, 0, 0, 0), [Fraction(0)]),
    ((4, -12, 9, 0), [Fraction(0), Fraction(3, 2)]),
])
def test_rational_roots_of_extreme_polynomials(coeffs, roots):
    assert ring._rational_roots(*coeffs) == roots


def test_ring_with_a_huge_coefficient_is_matched_quickly():
    """Finding rational roots factors no coefficient: a 10^21 coefficient
    took trial division past any patience."""
    t0 = time.perf_counter()
    table = build_table(RingPresentation(
        [("x", 2), ("y", 2)], ["x*y", "x^3 - 1000000000000000000000*y^3"], 6))
    tag = pattern_match(table)
    assert time.perf_counter() - t0 < 5
    assert str(tag) == ("RANK_KERNEL(c=-1, u=1*x + -10000000*y, "
                        "v=1*x + 10000000*y)")


def test_generator_is_a_read_only_value():
    """Generators are equal and hashed by (name, degree), since polynomials
    compare and hash their `gens`, and cannot be changed."""
    x = Generator("x", 2)
    assert x == Generator("x", 2) and hash(x) == hash(Generator("x", 2))
    assert x != Generator("x", 4) and x != Generator("y", 2)
    with pytest.raises(AttributeError):
        x.degree = 4
    assert x.degree == 2
    assert GradedPoly.generator((x, Generator("y", 2)), "x") == \
        GradedPoly.generator((Generator("x", 2), Generator("y", 2)), "x")
