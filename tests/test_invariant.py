"""Invariant complexes: Betti numbers, harmonicity, formality probes."""

from fractions import Fraction

import pytest

from geoformal import linalg
from geoformal.errors import GradeError, SpaceError
from geoformal.exterior import Multivector, derivation, grade_masks, interior
from geoformal.invariant import (APPLIES_P1, APPLIES_PROD, FORMAL,
                                 NOT_APPLICABLE, NOT_FORMAL, HomogeneousSpace,
                                 aloff_wallach, aw_contraction_check, flag_su3,
                                 formality_by_top_degree)
from geoformal.lie import (LieAlgebra, Subalgebra, killing_form, named_algebra,
                           reductive_split, torus_element)
from geoformal.ring import build_table, builtin_presentation


def test_aw_betti_and_invariant_dims(aw11):
    assert aw11.betti() == [1, 0, 1, 0, 0, 1, 0, 1]
    assert len(aw11.invariant_basis(0)) == 1
    assert len(aw11.invariant_basis(2)) >= 1
    with pytest.raises(GradeError):
        aw11.invariant_basis(9)


def test_flag_betti_matches_ring(flag):
    # independent oracle: the flag cohomology ring presentation
    ring = build_table(builtin_presentation("flag-su3"))
    assert flag.betti() == ring.betti() == [1, 0, 2, 0, 2, 0, 1]
    assert len(flag.invariant_basis(1)) == 0  # no invariant covectors


def test_sphere_product_betti_matches_ring(sphere_product):
    ring = build_table(builtin_presentation("wedge", p=5, q=7))
    assert sphere_product.betti() == ring.betti()
    assert [k for k, b in enumerate(sphere_product.betti()) if b] == [0, 5, 7, 12]


def test_d_squared_zero_exact(aw11, flag):
    for space in (aw11, flag):
        for k in range(space.dim_m - 1):
            dk = space.ce_differential(k)
            dk1 = space.ce_differential(k + 1)
            if not (dk and dk[0] and dk1 and dk1[0]):
                continue
            rows = len(dk1)
            cols = len(dk[0])
            inner = len(dk)
            for i in range(rows):
                for j in range(cols):
                    assert sum(dk1[i][t] * dk[t][j] for t in range(inner)) == 0


def test_differential_top_degree_zero(aw11):
    top = aw11.dim_m
    d_top = aw11.ce_differential(top)
    assert d_top == [[]] or all(not row for row in d_top)


def test_differential_on_constants(aw11):
    d0 = aw11.ce_differential(0)
    assert all(all(x == 0 for x in row) for row in d0)


def test_invariance_is_exact(aw11):
    # every invariant basis element is annihilated by every h generator
    from geoformal.exterior import derivation_terms
    from geoformal.lie import lie_derivative_images
    for k in (1, 2, 3):
        masks = grade_masks(aw11.dim_m, k)
        index = {m: i for i, m in enumerate(masks)}
        for vec in aw11.invariant_basis(k):
            for A in aw11.h_action:
                images = lie_derivative_images(A)
                out = [Fraction(0)] * len(masks)
                for col, mask in enumerate(masks):
                    if vec[col] == 0:
                        continue
                    for om, c in derivation_terms(images, mask):
                        out[index[om]] += c * vec[col]
                assert all(x == 0 for x in out)


def test_connection_two_form_is_invariant(aw11):
    """The curvature of the circle bundle restricted to m is an invariant
    2-form: (X, Y) -> -alpha([X, Y]) with alpha the metric-dual covector of
    the circle direction."""
    g = named_algebra("su3")
    B = killing_form(g)
    t = torus_element(1, 1)
    btt = sum(t[i] * B[i][j] * t[j] for i in range(8) for j in range(8))

    def alpha(v):
        return sum(t[i] * B[i][j] * v[j] for i in range(8) for j in range(8)) / btt

    dm = aw11.dim_m
    terms = {}
    for i in range(dm):
        for j in range(i + 1, dm):
            w = g.bracket(aw11.m_basis[i], aw11.m_basis[j])
            val = -alpha(w)
            if val:
                terms[(1 << i) | (1 << j)] = val
    curv = Multivector(dm, terms)
    assert not curv.is_zero()
    masks = grade_masks(aw11.dim_m, 2)
    index = {m: i for i, m in enumerate(masks)}
    vec = [Fraction(0)] * len(masks)
    for m, c in curv.terms_dict().items():
        vec[index[m]] = Fraction(c)
    basis = [[Fraction(row[i]) for i in range(len(masks))]
             for row in aw11.invariant_basis(2)]
    assert linalg.solve_in_span(basis, vec) is not None


def test_connection_form_descends():
    """Full-complex check: d(alpha) is closed, horizontal and invariant on
    su(3), so it descends to the base 2-form of the circle fibration."""
    from geoformal.lie import differential_images, lie_derivative_images
    g = named_algebra("su3")
    B = killing_form(g)
    t = torus_element(1, 1)
    btt = sum(t[i] * B[i][j] * t[j] for i in range(8) for j in range(8))
    alpha = Multivector(8, {
        1 << j: sum(t[i] * B[i][j] for i in range(8)) / btt for j in range(8)})
    d = differential_images(g.c)
    dalpha = derivation(d, alpha)
    assert not dalpha.is_zero()
    assert derivation(d, dalpha).is_zero()
    assert interior(t, dalpha).is_zero()          # horizontal
    assert derivation(lie_derivative_images(g.ad(t)), dalpha).is_zero()  # invariant


def test_harmonic_dims_match_betti(aw11, flag):
    for space in (aw11, flag):
        assert [len(h) for h in space.harmonic_basis()] == space.betti()


def _dual_pairing(space, a, b):
    """<a, b> summed over blades; e^I has norm 1 / prod_{i in I} metric_diag[i]."""
    total = Fraction(0)
    for m, x in a.terms_dict().items():
        norm = Fraction(1)
        for i, g in enumerate(space.metric_diag):
            if m >> i & 1:
                norm /= g
        total += x * b.coeff_mask(m) * norm
    return total


def test_harmonic_orthogonal_to_exact_and_coexact(aw11):
    # the normal metric and an invariant one with unequal entries (the h
    # action pairs m-directions 2 with 5 and 3 with 6)
    skewed = HomogeneousSpace(aw11.split, metric_diag=[1, 2, 3, 4, 5, 3, 4])
    assert skewed.harmonic_basis()[2] != aw11.harmonic_basis()[2]
    for space in (aw11, skewed):
        harm = space.harmonic_basis()
        for k in range(1, space.dim_m):
            # exact forms: d of degree k-1 invariant basis
            exact = [space.d_of_multivector(p)
                     for p in space.invariant_multivectors(k - 1)]
            for h in harm[k]:
                assert space.d_of_multivector(h).is_zero()
                for e in exact:
                    assert _dual_pairing(space, h, e) == 0


def test_harmonic_plus_exact_fails_harmonic_equations(aw11, flag):
    checked = 0
    for space in (aw11, flag):
        harm = space.harmonic_basis()
        for k in range(1, space.dim_m + 1):
            exact = [space.d_of_multivector(p)
                     for p in space.invariant_multivectors(k - 1)]
            for h in harm[k]:
                assert space.is_harmonic(k, h)
                for e in exact:
                    if not e.is_zero():
                        assert not space.is_harmonic(k, h + e)
                        checked += 1
    assert checked


def test_coordinates_round_trip(aw11):
    for k in range(aw11.dim_m + 1):
        basis = aw11.invariant_multivectors(k)
        for i, f in enumerate(basis):
            coords = aw11.coordinates(k, f)
            assert coords == [int(j == i) for j in range(len(basis))]
            assert aw11.form(k, coords) == f


def test_coordinates_reject_form_outside_invariant_span(aw11):
    from geoformal.exterior import derivation_terms
    from geoformal.lie import lie_derivative_images
    images = [lie_derivative_images(A) for A in aw11.h_action]

    def moved(mask):
        # some h generator moves the blade: L_A e^I != 0
        for im in images:
            out = {}
            for om, c in derivation_terms(im, mask):
                out[om] = out.get(om, 0) + c
            if any(out.values()):
                return True
        return False

    for k in (1, 2, 3):
        mask = next(m for m in grade_masks(aw11.dim_m, k) if moved(m))
        blade = Multivector(aw11.dim_m, {mask: 1})
        with pytest.raises(SpaceError):
            aw11.coordinates(k, blade)
        with pytest.raises(SpaceError):
            aw11.coordinates(k, aw11.invariant_multivectors(k)[0] + blade)


@pytest.fixture(scope="module")
def flag_su4():
    g = named_algebra("su4")
    h = Subalgebra(g, [g.basis_vector(g.index_of(n)) for n in ("t1", "t2", "t3")])
    return HomogeneousSpace(reductive_split(g, h), label="su4/t3")


def _stacked_operator_basis(space, k):
    """The invariant k-forms as one exact kernel of the stacked Lie-derivative
    operators of every h generator on all grade-k blades, in every degree."""
    from geoformal.exterior import derivation_terms
    from geoformal.lie import lie_derivative_images
    masks = grade_masks(space.dim_m, k)
    index = {m: i for i, m in enumerate(masks)}
    rows = []
    for A in space.h_action:
        images = lie_derivative_images(A)
        op_rows = [dict() for _ in masks]
        for col, mask in enumerate(masks):
            for out_mask, coeff in derivation_terms(images, mask):
                row = op_rows[index[out_mask]]
                row[col] = row.get(col, Fraction(0)) + coeff
        rows.extend(r for r in op_rows if r)
    return linalg.kernel(rows, len(masks))


def _aw11_rebased():
    """aw(1,1) with su(3) in the basis t1, t2, a12, a13, s12, a23, s13, 2*s23.

    Its h action is not antisymmetric (the normal metric is 12 and 48 on the
    plane it rotates with s23) and rotates one plane of m-directions of
    equal parity and one of unequal parity.  In the named spaces every h
    action is antisymmetric on planes of unequal parity, so there a star
    without the blade norm or without the wedge sign still maps invariant
    forms onto invariant forms; here it does not.
    """
    g = named_algebra("su3")
    perm = [0, 1, 2, 3, 5, 4, 6, 7]
    scale = [1] * 7 + [2]
    at = {p: i for i, p in enumerate(perm)}
    structure = [[[Fraction(0)] * 8 for _ in range(8)] for _ in range(8)]
    for a in range(8):
        for b in range(8):
            for c, x in enumerate(g.c[perm[a]][perm[b]]):
                structure[a][b][at[c]] = scale[a] * scale[b] * x / scale[at[c]]
    g2 = LieAlgebra(structure, [g.labels[p] for p in perm], name="su3-rebased")
    t = torus_element(1, 1)
    h = Subalgebra(g2, [[t[p] / s for p, s in zip(perm, scale)]])
    return HomogeneousSpace(reductive_split(g2, h), label="aw(1,1)-rebased")


@pytest.mark.parametrize("space", ["aw11", "flag", "sphere_product", "flag_su4",
                                   "aw11_skewed", "aw11_rebased"])
def test_invariant_bases_match_stacked_operator_reference(space, request):
    """Every degree, the star-built upper half included, gives the same
    Fractions on the same free columns as the stacked-operator kernel, also
    for the unequal invariant metric [1, 2, 3, 4, 5, 3, 4] on aw(1,1) and on
    a basis of su(3) where the star's blade norm and wedge sign matter."""
    if space == "aw11_skewed":
        space = HomogeneousSpace(request.getfixturevalue("aw11").split,
                                 metric_diag=[1, 2, 3, 4, 5, 3, 4])
    elif space == "aw11_rebased":
        space = _aw11_rebased()
        assert any(A[i][j] != -A[j][i] for A in space.h_action
                   for i in range(space.dim_m) for j in range(space.dim_m))
    else:
        space = request.getfixturevalue(space)
    for k in range(space.dim_m + 1):
        assert (space.invariant_basis(k), space._free[k]) == \
            _stacked_operator_basis(space, k)


@pytest.mark.parametrize("space", ["aw11", "flag", "flag_su4"])
def test_probe_matches_span_reference(space, request):
    """Each probed wedge is harmonic exactly when its coordinates lie in the
    span of the harmonic basis's coordinates (solved with solve_in_span)."""
    space = request.getfixturevalue(space)
    harm = space.harmonic_basis()
    targets = [[space.coordinates(k, h) for h in hk] for k, hk in enumerate(harm)]
    failed = set()
    pairs = 0
    for p in range(1, space.dim_m + 1):
        for q in range(p, space.dim_m - p + 1):
            for i, a in enumerate(harm[p]):
                for j, b in enumerate(harm[q]):
                    if p == q and j < i:
                        continue
                    pairs += 1
                    w = a.wedge(b)
                    in_span = linalg.solve_in_span(
                        targets[p + q], space.coordinates(p + q, w)) is not None
                    assert space.is_harmonic(p + q, w) == in_span
                    if not in_span:
                        failed.add((p, q, i, j))
    rep = space.formality_probe()
    assert rep.pairs_checked == pairs
    assert {(f.degree_left, f.degree_right, f.index_left, f.index_right)
            for f in rep.failures} == failed


def test_flag_su4_complex_and_probe(flag_su4):
    """SU(4)/T^3 with the normal metric: Betti numbers of the full flag of
    C^4 (Poincare polynomial (1+t^2)(1+t^2+t^4)(1+t^2+t^4+t^6)), harmonic
    dimensions equal to them, and the probe verdict over all 154 pairs."""
    space = flag_su4
    b = space.betti()
    assert b == [1, 0, 3, 0, 5, 0, 6, 0, 5, 0, 3, 0, 1]
    assert [len(hk) for hk in space.harmonic_basis()] == b
    rep = space.formality_probe()
    assert rep.pairs_checked == 154
    assert rep.verdict == NOT_FORMAL


def test_poincare_duality_and_euler(aw11, flag, sphere_product):
    for space in (aw11, flag, sphere_product):
        b = space.betti()
        assert b == b[::-1]
        if space.dim_m % 2 == 1:
            assert sum((-1) ** k * x for k, x in enumerate(b)) == 0


def test_aw_probe_not_formal(aw11):
    rep = aw11.formality_probe()
    assert rep.verdict == NOT_FORMAL
    assert any("2-form #0 ^ harmonic 2-form #0" in f.description
               for f in rep.failures)


def test_aw_override_probe_not_formal():
    space = aloff_wallach(1, -1, override=True)
    assert space.betti() == [1, 0, 1, 0, 0, 1, 0, 1]
    assert space.formality_probe().verdict == NOT_FORMAL


def test_sphere_product_probe_formal(sphere_product):
    rep = sphere_product.formality_probe()
    assert rep.verdict == FORMAL
    assert formality_by_top_degree(sphere_product.betti()) == APPLIES_PROD


def test_flag_probe_not_formal(flag):
    assert flag.formality_probe().verdict == NOT_FORMAL


def test_formality_by_top_degree_patterns():
    assert formality_by_top_degree([1, 0, 0, 0, 1, 0, 0, 0, 1]) == APPLIES_P1
    assert formality_by_top_degree([1, 0, 0, 0, 2, 0, 0, 0, 1]) == APPLIES_P1
    assert formality_by_top_degree(
        [1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1]) == APPLIES_PROD
    assert formality_by_top_degree([1, 0, 0, 2, 0, 0, 1]) in (APPLIES_P1,
                                                              APPLIES_PROD)
    assert formality_by_top_degree([1, 0, 1, 0, 0, 1, 0, 1]) == NOT_APPLICABLE
    with pytest.raises(GradeError):
        formality_by_top_degree([2, 0, 1])
    with pytest.raises(GradeError):
        formality_by_top_degree([1, 0, 0])


def test_consistency_top_degree_vs_probe(sphere_product):
    # a space classified APPLIES_PROD must pass the pairwise probe
    assert formality_by_top_degree(sphere_product.betti()) == APPLIES_PROD
    assert sphere_product.formality_probe().verdict == FORMAL


def test_aw_contraction_check():
    rep = aw_contraction_check(1, 1)
    assert rep.rank_on_L == 4
    assert rep.case_identities_ok
    assert rep.case_identities_checked == 12
    assert rep.full_map_injective
    assert rep.dim_L + rep.dim_K > rep.ambient_dim
    assert rep.verdict == "OBSTRUCTED"
    rep2 = aw_contraction_check(1, 2)
    assert rep2.rank_on_L == 4  # L does not involve the torus parameters
    rep3 = aw_contraction_check(1, -1, override=True)
    assert rep3.rank_on_L == 4
    with pytest.raises(Exception):
        aw_contraction_check(2, 4)


def test_disconnected_isotropy_rejected():
    g = named_algebra("su3")
    h = Subalgebra(g, [torus_element(1, 1)])
    split = reductive_split(g, h)
    with pytest.raises(SpaceError):
        HomogeneousSpace(split, isotropy_connected=False)


def test_custom_metric_rescaling_keeps_betti(aw11):
    g = named_algebra("su3")
    h = Subalgebra(g, [torus_element(1, 1)])
    split = reductive_split(g, h)
    scaled = HomogeneousSpace(split, metric_diag=[Fraction(3)] * 7)
    assert scaled.betti() == aw11.betti()
    # Betti numbers are metric-independent; harmonic dims still match
    assert [len(h) for h in scaled.harmonic_basis()] == scaled.betti()


@pytest.mark.parametrize("make,entry", [(lambda: aloff_wallach(1, 1), 2),
                                        (flag_su3, 0)], ids=["aw11", "su3-t2"])
def test_non_invariant_metric_rejected(make, entry):
    space = make()
    metric = list(space.metric_diag)
    metric[entry] *= 2
    with pytest.raises(SpaceError, match="not invariant"):
        HomogeneousSpace(space.split, metric_diag=metric)
