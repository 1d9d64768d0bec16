"""Invariant complexes: Betti numbers, harmonicity, formality probes."""

import os
from fractions import Fraction
from math import lcm

import pytest
import yaml

from geoformal import linalg
from geoformal.cli import _space_from_file
from geoformal.errors import GradeError, LieAlgebraError, SpaceError
from geoformal.exterior import Multivector, grade_masks, interior, wedge_terms
from geoformal.invariant import (APPLIES_P1, APPLIES_PROD, FORMAL,
                                 NOT_APPLICABLE, NOT_FORMAL, AWContractionReport,
                                 FormalityReport, HomogeneousSpace,
                                 _torus_part, aloff_wallach,
                                 aw_contraction_check, flag_su3,
                                 formality_by_top_degree, su4_su2, su5_su3)
from geoformal.lie import (LieAlgebra, ReductiveSplit, Subalgebra,
                           differential_images, killing_form, named_algebra,
                           reductive_split, torus_element)
from geoformal.ring import build_table, builtin_presentation

from conftest import ad, derive


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
            dk = _dense_d(space, k)
            dk1 = _dense_d(space, k + 1)
            if not (dk and dk[0] and dk1 and dk1[0]):
                continue
            rows = len(dk1)
            cols = len(dk[0])
            inner = len(dk)
            for i in range(rows):
                for j in range(cols):
                    assert sum(dk1[i][t] * dk[t][j] for t in range(inner)) == 0


def _dense_d(space, k):
    """The rows of d from degree k, dense over the degree-k coordinates."""
    return _dense(space.ce_differential(k), range(len(space.invariant_basis(k))))


def test_differential_top_degree_zero(aw11):
    assert aw11.ce_differential(aw11.dim_m) == []


@pytest.mark.parametrize("space", ["aw11", "flag", "sphere_product"])
def test_differential_rows_are_sparse_on_invariant_coordinates(space, request):
    """d from degree k has one sparse row {j: x} per degree-(k+1) basis
    form, keyed by degree-k coordinates and holding no zero."""
    space = request.getfixturevalue(space)
    for k in range(space.dim_m):
        rows = space.ce_differential(k)
        assert len(rows) == len(space.invariant_basis(k + 1))
        for row in rows:
            assert set(row) <= set(range(len(space.invariant_basis(k))))
            assert all(row.values())


def test_differential_on_constants(aw11):
    d0 = aw11.ce_differential(0)
    assert all(all(x == 0 for x in row.values()) for row in d0)


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
                for mask, x in vec.items():
                    for om, c in derivation_terms(images, mask):
                        out[index[om]] += c * x
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
        return Fraction(sum(t[i] * B[i][j] * v[j] for i in range(8) for j in range(8)),
                        btt)

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
    basis = [[Fraction(row.get(m, 0)) for m in masks]
             for row in aw11.invariant_basis(2)]
    assert linalg.solve_in_span(basis, vec) is not None


def test_split_with_m_not_ad_h_stable_is_refused():
    """[h, m] <= m is proved where the space projects the h action onto m:
    with a12 + t1 in place of a12, m is transverse to h = span(t1) but not
    ad(t1)-stable, since [t1, s12] is a multiple of a12 = (a12 + t1) - t1."""
    g = named_algebra("su3")
    t1 = g.basis_vector(g.index_of("t1"))
    m = [g.basis_vector(i) for i in range(g.dim) if g.labels[i] != "t1"]
    m = [[x + y for x, y in zip(v, t1)] if v == g.basis_vector(g.index_of("a12"))
         else v for v in m]
    split = ReductiveSplit(g, Subalgebra(g, [t1]), m, killing_form(g))
    with pytest.raises(SpaceError, match=r"\[h, m\] leaves m"):
        HomogeneousSpace(split)


def test_connection_form_descends():
    """Full-complex check: d(alpha) is closed, horizontal and invariant on
    su(3), so it descends to the base 2-form of the circle fibration."""
    from geoformal.lie import differential_images, lie_derivative_images
    g = named_algebra("su3")
    B = killing_form(g)
    t = torus_element(1, 1)
    btt = sum(t[i] * B[i][j] * t[j] for i in range(8) for j in range(8))
    alpha = Multivector(8, {
        1 << j: Fraction(sum(t[i] * B[i][j] for i in range(8)), btt) for j in range(8)})
    d = differential_images(g.c)
    dalpha = derive(d, alpha)
    assert not dalpha.is_zero()
    assert derive(d, dalpha).is_zero()
    assert not interior(t, dalpha.terms_dict())   # horizontal
    assert derive(lie_derivative_images(ad(g, t)), dalpha).is_zero()  # invariant


def test_harmonic_dims_match_betti(aw11, flag, sphere_product):
    """Hodge, checked independently of the harmonic basis: the kernel of the
    harmonic equations has b_k vectors in every degree, b_k = 0 included,
    and the harmonic basis is that kernel's forms."""
    for space in (aw11, flag, sphere_product):
        b = space.betti()
        harm = space.harmonic_basis()
        for k in range(space.dim_m + 1):
            coords, _ = linalg.kernel(space.harmonic_equations(k),
                                      len(space.invariant_basis(k)))
            assert len(coords) == b[k]
            assert harm[k] == [space.form(k, c) for c in coords]


@pytest.mark.parametrize("corrupt", ["drop-equations", "raise-betti"])
def test_harmonic_basis_refuses_a_kernel_of_the_wrong_size(aw11, corrupt):
    """A harmonic kernel whose size is not b_k, from lost equations or a
    wrong Betti number, is an internal inconsistency, not a result."""
    space = HomogeneousSpace(aw11.split)
    b = space.betti()
    k = b.index(1, 1)   # the first positive degree with cohomology
    if corrupt == "drop-equations":
        assert len(space.invariant_basis(k)) > b[k]
        space._equations[k] = []
    else:
        space._betti = b[:k] + [b[k] + 1] + b[k + 1:]
    with pytest.raises(SpaceError, match="internal inconsistency"):
        space.harmonic_basis()


def test_wedge_into_a_degree_without_cohomology_is_judged_by_the_zero_rule():
    """On SU(4)/SU(2), the harmonic 5-form squared lands in degree 10, where
    b = 0: it is the zero form, so it is harmonic, and no harmonic equation
    of degree 10 is built to say so."""
    space = su4_su2()
    (h5,) = space.harmonic_basis()[5]
    assert space.betti()[10] == 0 and space.invariant_basis(10)
    w = wedge_terms(h5, h5)
    assert not any(w.values())
    assert space.is_harmonic(10, w)
    assert 10 not in space._equations
    assert space.formality_probe().pairs_checked == 2


def test_nonzero_invariant_form_where_b_is_zero_is_not_harmonic(aw11, sphere_product):
    """In a degree with b = 0 every nonzero invariant form fails the zero
    rule, as it fails the harmonic equations, whose kernel is empty there;
    a form outside the invariant span, a direction h moves, is still
    refused."""
    checked = 0
    for space in (aw11, sphere_product):
        for k, b in enumerate(space.betti()):
            if b:
                continue
            for i, _ in enumerate(space.invariant_basis(k)):
                form = space.form(k, {i: 1})
                assert not space.is_harmonic(k, form)
                c = space.coordinates(k, form)
                assert any(sum(x * c[j] for j, x in row.items())
                           for row in space.harmonic_equations(k))
                checked += 1
    assert checked
    with pytest.raises(SpaceError, match="not in the invariant span"):
        aw11.is_harmonic(1, {aw11._m1_bits[0]: 1})


def _true_d(space, terms):
    """d of the form of the space with terms {mask: x}, from its unscaled
    m-brackets, as a Multivector."""
    return derive(differential_images(space.m_brackets),
                      Multivector(space.dim_m, terms))


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
            exact = [_true_d(space, space.form(k - 1, {i: 1}))
                     for i in range(len(space.invariant_basis(k - 1)))]
            for h in harm[k]:
                assert _true_d(space, h).is_zero()
                for e in exact:
                    assert _dual_pairing(space, Multivector(space.dim_m, h), e) == 0


def test_harmonic_plus_exact_fails_harmonic_equations(aw11, flag):
    checked = 0
    for space in (aw11, flag):
        harm = space.harmonic_basis()
        for k in range(1, space.dim_m + 1):
            exact = [_true_d(space, space.form(k - 1, {i: 1}))
                     for i in range(len(space.invariant_basis(k - 1)))]
            for h in harm[k]:
                assert space.is_harmonic(k, h)
                for e in exact:
                    if not e.is_zero():
                        h_plus_e = Multivector(space.dim_m, h) + e
                        assert not space.is_harmonic(k, h_plus_e.terms_dict())
                        checked += 1
    assert checked


def test_coordinates_round_trip(aw11):
    for k in range(aw11.dim_m + 1):
        basis = [aw11.form(k, {i: 1}) for i in range(len(aw11.invariant_basis(k)))]
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
            aw11.coordinates(k, blade.terms_dict())
        with pytest.raises(SpaceError):
            aw11.coordinates(k, (Multivector(aw11.dim_m, aw11.form(k, {0: 1}))
                                 + blade).terms_dict())


def _holds_fraction(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return any(_holds_fraction(x) for x in value)
    return isinstance(value, Fraction)


@pytest.mark.parametrize("make", [
    lambda: _space_from_file(os.path.join("perfbench", "flag_su4.yaml")),
    flag_su3, lambda: aloff_wallach(1, 1)], ids=["flag_su4-file", "su3-t2", "aw11"])
def test_integral_space_data_holds_no_fraction(make):
    """On spaces with integral brackets on m, the Killing form, the m basis,
    the h actions, the m-brackets and the images of d are ints, and so are
    the forms d b of the complex."""
    space = make()
    space.betti()
    assert space._d_scale == 1
    for value in (space.split.B, space.m_basis, space.h_action, space.m_brackets,
                  space._d_images, space._d_forms):
        assert not _holds_fraction(value)


@pytest.mark.parametrize("space,scale", [("sphere_product", 3), ("su5_su3_space", 6)])
def test_scaled_differential_is_d_times_its_scale(space, scale, request):
    """The m-brackets have denominators, with lcm `scale`; the complex takes
    d times it, on ints, and each column of its differential is `scale`
    times the coordinates of d of the basis form."""
    space = request.getfixturevalue(space)
    assert _holds_fraction(space.m_brackets)
    assert space._d_scale == scale
    for k in range(space.dim_m):
        dk = space.ce_differential(k)
        for j in range(len(space.invariant_basis(k))):
            true = space.coordinates(
                k + 1, _true_d(space, space.form(k, {j: 1})).terms_dict())
            assert [row.get(j, 0) for row in dk] == [scale * x for x in true]
    assert not _holds_fraction(space._d_images)
    assert not _holds_fraction(space._d_forms)


def test_betti_builds_no_multivector(monkeypatch):
    """Betti numbers, harmonic forms and the formality probe of a fresh
    SU(4)/T^3 run on term dicts and sparse rows alone: d, the coordinate
    reads and their span proofs, the harmonic kernel and the wedges of
    harmonic pairs construct no Multivector."""
    space = _space_from_file(os.path.join("perfbench", "flag_su4.yaml"))
    built = []
    init, trusted = Multivector.__init__, Multivector._trusted.__func__

    def counted_init(self, *args, **kwargs):
        built.append("__init__")
        init(self, *args, **kwargs)

    def counted_trusted(cls, *args):
        built.append("_trusted")
        return trusted(cls, *args)

    monkeypatch.setattr(Multivector, "__init__", counted_init)
    monkeypatch.setattr(Multivector, "_trusted", classmethod(counted_trusted))
    b = space.betti()
    assert b == [1, 0, 3, 0, 5, 0, 6, 0, 5, 0, 3, 0, 1]
    assert [len(hk) for hk in space.harmonic_basis()] == b
    assert space.formality_probe().pairs_checked == 154
    assert built == []


@pytest.fixture(scope="module")
def flag_su4():
    g = named_algebra("su4")
    h = Subalgebra(g, [g.basis_vector(g.index_of(n)) for n in ("t1", "t2", "t3")])
    return HomogeneousSpace(reductive_split(g, h), label="su4/t3")


def _stacked_operator_basis(space, k, actions=None):
    """The invariant k-forms as one exact kernel of the stacked Lie-derivative
    operators of every h generator (or of `actions`) on all grade-k blades,
    in every degree: (its vectors {blade mask: x}, their free masks).  Each
    operator is scaled to integers, which keeps its kernel."""
    from geoformal.exterior import derivation_terms
    from geoformal.lie import lie_derivative_images
    masks = grade_masks(space.dim_m, k)
    index = {m: i for i, m in enumerate(masks)}
    rows = []
    for A in space.h_action if actions is None else actions:
        scale = lcm(*(Fraction(x).denominator for row in A for x in row))
        images = lie_derivative_images([[int(x * scale) for x in row] for row in A])
        op_rows = [dict() for _ in masks]
        for col, mask in enumerate(masks):
            for out_mask, coeff in derivation_terms(images, mask):
                row = op_rows[index[out_mask]]
                row[col] = row.get(col, 0) + coeff
        rows.extend(r for r in op_rows if r)
    basis, free = linalg.kernel(rows, len(masks))
    return ([{masks[j]: x for j, x in v.items()} for v in basis],
            [masks[f] for f in free])


def _dense(basis, columns):
    """Sparse vectors as dense lists of Fractions over the column keys."""
    return [[Fraction(v.get(j, 0)) for j in columns] for v in basis]


def _su4_su2_ordered(h_basis):
    """su4/su2 with the h basis given in order, each vector a sum of su4
    basis vectors named like "t1+a12"."""
    g = named_algebra("su4")
    vectors = [[sum(int(g.labels[i] == n) for n in names.split("+"))
                for i in range(g.dim)] for names in h_basis]
    return HomogeneousSpace(reductive_split(g, Subalgebra(g, vectors)), label="su4/su2")


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


@pytest.fixture(scope="module")
def su5_su3_space():
    return su5_su3()


@pytest.fixture(scope="module")
def su4_su2_no_torus(tmp_path_factory):
    """SU(4)/SU(2) from a space file whose h basis is t1+a12, a12+s12,
    s12+t1: none of them is a signed pairing, so there is no torus part."""
    g = named_algebra("su4")
    vectors = [[sum(int(label == n) for n in names.split("+")) for label in g.labels]
               for names in ("t1+a12", "a12+s12", "s12+t1")]
    path = tmp_path_factory.mktemp("space") / "su4_su2.yaml"
    path.write_text(yaml.safe_dump({"algebra": "su4", "subalgebra": {"vectors": vectors},
                                    "label": "su4/su2"}))
    space = _space_from_file(str(path))
    assert _torus_part(space.h_action, space.dim_m)[0] == []
    return space


def _torus(space):
    taken, planes, fixed = _torus_part(space.h_action, space.dim_m)
    return taken, len(planes), fixed


def test_torus_part_of_flag_su4(flag_su4):
    """All three Cartan generators pair the 12 directions of SU(4)/T^3 into
    the 6 root planes; no direction is fixed."""
    assert _torus(flag_su4) == ([0, 1, 2], 6, [])


def test_torus_part_of_su5_su3(su5_su3_space):
    """Of the su(3) basis t1, t2, a12, ..., s23 the torus part is t1, t2 on
    6 planes; the 4 directions of u(2) commuting with the block are fixed."""
    assert _torus(su5_su3_space) == ([0, 1], 6, [0, 1, 8, 15])


def test_torus_part_refuses_non_skew_and_crowded_rows():
    """A pairing whose entries are not opposite (aw(1,1) rebased: the circle
    rotates a plane of unequal norms) and an action with two entries in a
    row give no torus start; a later pairing on a crossing plane is skipped."""
    assert _torus(_aw11_rebased()) == ([], 0, list(range(7)))
    crowded = [[0, 1, 1], [-1, 0, 0], [-1, 0, 0]]
    assert _torus_part([crowded], 3) == ([], [], [0, 1, 2])
    pair_01 = [[0, 2, 0], [-2, 0, 0], [0, 0, 0]]
    pair_12 = [[0, 0, 0], [0, 0, 3], [0, -3, 0]]
    assert _torus_part([crowded, pair_01, pair_12], 3) == \
        ([1], [(0, 1, (2,))], [2])


@pytest.mark.parametrize("space", ["aw11", "flag", "sphere_product", "flag_su4",
                                   "aw11_skewed", "aw11_rebased",
                                   "su4_su2_a12_s12_t1", "su4_su2_t1+a12_a12_s12",
                                   "su4_su2_no_torus", "su5_su3_space"])
def test_invariant_bases_match_stacked_operator_reference(space, request):
    """Every degree, the upper half included, gives the same values on the
    same free columns as the stacked-operator kernel of every h action on
    all of m, so the bases factored over the trivial summand are the
    bases of the whole space.  Also for the unequal invariant metric
    [1, 2, 3, 4, 5, 3, 4] on aw(1,1), on a basis of su(3) whose h action is
    not antisymmetric, on su4/su2 with a non-torus first h operator whose
    kernel is larger than the invariant forms, so the operators' kernels
    are composed, and on su4/su2 read from a space file whose h basis has
    no torus part, so every blade of m_1 starts the kernel."""
    if space.startswith("su4_su2_") and space != "su4_su2_no_torus":
        space = _su4_su2_ordered(space.split("_")[2:])
        assert any(len(_stacked_operator_basis(space, k, space.h_action[:1])[0]) >
                   len(space.invariant_basis(k)) for k in range(space.dim_m // 2 + 1))
    elif space == "aw11_skewed":
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


@pytest.mark.parametrize("space,size", [("flag_su4", 0), ("aw11", 3),
                                        ("sphere_product", 4), ("su4_su2_no_torus", 4),
                                        ("su5_su3_space", 4)])
def test_trivial_summand_and_one_kernel_per_m1_degree(space, size, request):
    """T, the m-directions every h action leaves alone, has 3 of 7 on
    aw(1,1), 4 on SU(4)/SU(2) (with or without a torus part) and on
    SU(5)/SU(3), none on SU(4)/T^3.  Work guard: a fresh space runs
    `_lie_kernel` once per degree of m_1, not once per degree of m."""
    space = request.getfixturevalue(space)
    assert len(space._trivial_masks) == size
    fresh = HomogeneousSpace(space.split, label=space.label)
    calls = []
    lie_kernel = fresh._lie_kernel
    fresh._lie_kernel = lambda k: calls.append(k) or lie_kernel(k)
    for k in range(fresh.dim_m + 1):
        fresh.invariant_basis(k)
    assert sorted(calls) == list(range(fresh.dim_m - size + 1))


@pytest.mark.parametrize("name,make", [("aw11", lambda: aloff_wallach(1, 1)),
                                       ("flag", flag_su3),
                                       ("sphere_product", su4_su2)],
                         ids=["aw11", "flag", "sphere_product"])
def test_invariant_bases_read_no_metric(name, make, request):
    """With the metric taken away after the build, every degree's basis is
    still built, and it is the basis of the space that kept its metric."""
    space = make()
    space.metric_diag = None
    reference = request.getfixturevalue(name)
    for k in range(space.dim_m + 1):
        assert space.invariant_basis(k) == reference.invariant_basis(k)


@pytest.mark.parametrize("space,kept", [("su5_su3_space", 2), ("sphere_product", 1),
                                        ("flag_su4", 0)])
def test_kernel_applies_only_a_generating_set_of_h(space, kept, request):
    """Work guard: besides the torus part, the kernel applies only the h
    actions that generate h with it: a12 and a13 of su(3)'s a12, a13, a23,
    s12, s13, s23 on SU(5)/SU(3), a12 of su(2)'s a12, s12 on SU(4)/SU(2),
    and none on SU(4)/T^3, whose h is its torus part."""
    assert len(request.getfixturevalue(space)._h_images) == kept


def test_flag_su4_solves_only_what_its_answer_needs(flag_su4, monkeypatch):
    """Work guard on a fresh SU(4)/T^3: the 13 bases take 13 `span_basis`
    calls, one per torus weight kernel, none repeated in `_lie_kernel`;
    the harmonic basis takes 7 kernels, one per degree with b_k > 0, and
    builds no harmonic equations in the odd degrees, where b_k = 0."""
    space = HomogeneousSpace(flag_su4.split, label="su4/t3")
    spans, kernels, equations = [], [], []
    span_basis, kernel = linalg.span_basis, linalg.kernel
    monkeypatch.setattr(linalg, "span_basis",
                        lambda rows: spans.append(1) or span_basis(rows))
    for k in range(space.dim_m + 1):
        space.invariant_basis(k)
    assert len(spans) == 13
    b = space.betti()
    monkeypatch.setattr(linalg, "kernel",
                        lambda rows, n: kernels.append(n) or kernel(rows, n))
    harmonic_equations = space.harmonic_equations
    monkeypatch.setattr(space, "harmonic_equations",
                        lambda k: equations.append(k) or harmonic_equations(k))
    assert [len(h) for h in space.harmonic_basis()] == b
    assert len(kernels) == 7 == sum(1 for x in b if x)
    assert equations == [k for k in range(13) if k % 2 == 0]
    assert space.formality_probe().pairs_checked == 154


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
                    w = Multivector(space.dim_m, a).wedge(
                        Multivector(space.dim_m, b)).terms_dict()
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


@pytest.mark.parametrize("build, attr", [
    (lambda: FormalityReport("s", FORMAL, 0), "failures"),
    (lambda: FormalityReport("s", FORMAL, 0), "notes"),
    (lambda: AWContractionReport(1, 1, 0, True, 0, True, 0, 0, 0, "v"), "notes"),
], ids=["FormalityReport.failures", "FormalityReport.notes",
        "AWContractionReport.notes"])
def test_reports_do_not_share_a_default(build, attr):
    """Two reports built without the list get one each."""
    first, second = build(), build()
    assert getattr(first, attr) == getattr(second, attr) == []
    assert getattr(first, attr) is not getattr(second, attr)


def test_aw_contraction_facts_are_computed_once(monkeypatch):
    """The facts the Aloff-Wallach check replays do not depend on (k, l): a
    check with other parameters reuses them, and still validates its own."""
    from geoformal import invariant, lie
    calls = []
    original = lie.biinvariant_three_form

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(lie, "biinvariant_three_form", counting)
    invariant._aw_contraction_facts.cache_clear()
    first, second = aw_contraction_check(1, 1), aw_contraction_check(1, 2)
    assert len(calls) == 1
    assert (second.k, second.l) == (1, 2)
    assert vars(first) | {"l": 2} == vars(second)
    with pytest.raises(LieAlgebraError):
        aw_contraction_check(2, 4)
