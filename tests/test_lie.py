"""Lie algebra constructions: brackets, Killing forms, the three-form."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoformal import linalg
from geoformal.errors import LieAlgebraError
from geoformal.exterior import Multivector, evaluate, interior
from geoformal.lie import (LieAlgebra, Subalgebra, biinvariant_three_form,
                           bracket_closure, differential_images, is_ad_invariant, killing_form,
                           lie_derivative_images, named_algebra,
                           reductive_split, sl3_chevalley, su, torus_element)

from conftest import ad, contract, derive


def _trace_form(alg, scale):
    """Independent Killing oracle: 2n * tr(XY) on the matrix basis."""
    d = alg.dim
    out = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            prod = Fraction(0)
            A, B = alg.matrix_basis[i], alg.matrix_basis[j]
            n = len(A)
            for r in range(n):
                for s in range(n):
                    are, aim = A[r][s]
                    bre, bim = B[s][r]
                    prod += are * bre - aim * bim
            out[i][j] = scale * prod
    return out


def test_su_dimensions():
    assert su(2).dim == 3
    assert su(3).dim == 8
    assert su(4).dim == 15
    with pytest.raises(LieAlgebraError):
        su(1)


def test_su5_constructed_with_negative_definite_killing():
    # constructing it verifies Jacobi on every basis triple
    g = named_algebra("su5")
    assert g.dim == 24
    assert linalg.is_negative_definite(killing_form(g))


def test_su_killing_is_trace_form():
    # Killing of su(n) equals 2n * Re tr(XY); two independent routes
    for n in (2, 3):
        alg = su(n)
        assert killing_form(alg) == _trace_form(alg, Fraction(2 * n))


def test_su_killing_negative_definite():
    for n in (2, 3, 4, 5):
        assert linalg.is_negative_definite(killing_form(named_algebra(f"su{n}")))
    # the split form sl(3, R) has an indefinite Killing form
    assert not linalg.is_negative_definite(killing_form(sl3_chevalley()))


def test_sl3_chevalley_relations():
    sl3 = sl3_chevalley()
    H1, H2 = sl3.basis_vector(0), sl3.basis_vector(1)
    E1, E2, E3 = (sl3.basis_vector(i) for i in (2, 3, 4))
    F1 = sl3.basis_vector(5)
    assert sl3.bracket(H1, E1) == [x * 2 for x in E1]
    assert sl3.bracket(E1, F1) == H1
    assert sl3.bracket(H1, E2) == [-x for x in E2]
    assert sl3.bracket(H2, E1) == [-x for x in E1]
    assert sl3.bracket(E1, E2) == E3  # the chosen E3 convention
    assert sl3.bracket(H1, F1) == [-2 * x for x in F1]


def test_sl3_killing_values():
    sl3 = sl3_chevalley()
    B = killing_form(sl3)
    assert B[2][5] == 6    # B(E1, F1): 6 * tr(E1 F1)
    assert B[2][2] == 0    # root grading
    assert B[0][0] == 12   # B(H1, H1) = 6 * tr(H1^2)
    assert B == _trace_form(sl3, Fraction(6))
    assert is_ad_invariant(sl3, B)


def test_killing_ad_invariance_identity():
    for name in ("su2", "su3", "sl3-chevalley"):
        g = named_algebra(name)
        B = killing_form(g)
        d = g.dim
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    lhs = sum(g.c[i][j][t] * B[t][k] for t in range(d))
                    rhs = sum(g.c[i][k][t] * B[j][t] for t in range(d))
                    assert lhs + rhs == 0


def _cmul(a, b):
    """Dense product of two n x n matrices of (re, im) int pairs."""
    n = len(a)
    return [[(sum(a[i][k][0] * b[k][j][0] - a[i][k][1] * b[k][j][1] for k in range(n)),
              sum(a[i][k][0] * b[k][j][1] + a[i][k][1] * b[k][j][0] for k in range(n)))
             for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("name", ["su2", "su3", "su4", "su5", "su6", "sl3-chevalley"])
def test_brackets_match_the_dense_matrix_commutator(name):
    """Each [e_i, e_j] = sum_k c[i][j][k] e_k holds for the dense products
    AB - BA of the basis matrices, which the sparse commutator skips."""
    g = su(int(name[2:])) if name.startswith("su") else sl3_chevalley()
    basis = g.matrix_basis
    n = len(basis[0])
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            ab, ba = _cmul(a, b), _cmul(b, a)
            want = [[(x[0] - y[0], x[1] - y[1]) for x, y in zip(rx, ry)]
                    for rx, ry in zip(ab, ba)]
            got = [[(sum(c * basis[k][r][s][0] for k, c in enumerate(g.c[i][j])),
                     sum(c * basis[k][r][s][1] for k, c in enumerate(g.c[i][j])))
                    for s in range(n)] for r in range(n)]
            assert got == want, (name, i, j)


def _typed(vectors):
    """Each (index, constant) pair with the constant's type, so that 0 and
    Fraction(0) differ."""
    return [[[(k, type(x), x) for k, x in v] for v in row] for row in vectors]


@pytest.mark.parametrize("name,scale", [
    ("su2", 1), ("su3", 1), ("su4", 1), ("su5", 1), ("su6", 1),
    ("sl3-chevalley", 1), ("sl3-chevalley", Fraction(1, 2))])
def test_constants_match_a_full_narrowing(name, scale):
    """Narrowing only the nonzero constants gives the `c` and `nonzero` of
    narrowing every constant, from a structure of Fractions (as a space
    file gives) whose zeros are Fraction(0) too."""
    structure = [[[Fraction(x) * scale for x in v] for v in row]
                 for row in named_algebra(name).c]
    g = LieAlgebra(structure)
    c = [[[linalg._narrow(x) for x in v] for v in row] for row in structure]
    nonzero = [[[(k, x) for k, x in enumerate(v) if x] for v in row] for row in c]
    dense = [[list(enumerate(v)) for v in row] for row in c]
    assert _typed([[list(enumerate(v)) for v in row] for row in g.c]) == _typed(dense)
    assert _typed(g.nonzero) == _typed(nonzero)
    if scale == 1:
        named = named_algebra(name)
        assert _typed([[list(enumerate(v)) for v in row] for row in named.c]) == \
            _typed(dense)
        assert _typed(named.nonzero) == _typed(nonzero)


@pytest.mark.parametrize("vector", [[0, 0, 1, 7], [0, 0]], ids=["long", "short"])
def test_structure_vector_of_wrong_length_rejected(vector):
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1] = vector
    c[1][0] = [-x for x in vector]
    with pytest.raises(LieAlgebraError, match="needs 3 coefficients"):
        LieAlgebra(c)


def test_antisymmetry_violation_rejected():
    bad = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
    with pytest.raises(LieAlgebraError):
        LieAlgebra(bad)


def test_jacobi_violation_rejected():
    # antisymmetric but non-Jacobi structure on R^3
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1] = [0, 0, 1]
    c[1][0] = [0, 0, -1]
    c[1][2] = [1, 0, 0]
    c[2][1] = [-1, 0, 0]
    c[0][2] = [0, 0, 1]
    c[2][0] = [0, 0, -1]
    with pytest.raises(LieAlgebraError):
        LieAlgebra(c)


def _dense_verify(c):
    """The dense antisymmetry and Jacobi loops over every constant, as a
    reference: the first failure's message, or None for a Lie algebra."""
    d = len(c)
    c = [[[Fraction(x) for x in v] for v in row] for row in c]
    for i in range(d):
        for j in range(i, d):
            for k in range(d):
                if c[i][j][k] != -c[j][i][k]:
                    return f"antisymmetry fails at ({i},{j},{k})"
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                acc = [Fraction(0)] * d
                for (a, b, c3) in ((i, j, k), (j, k, i), (k, i, j)):
                    for t in range(d):
                        for s in range(d):
                            acc[s] += c[b][c3][t] * c[a][t][s]
                if any(acc):
                    return f"Jacobi identity fails on basis triple ({i},{j},{k})"
    return None


_small = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(["su2", "sl3-chevalley"]),
       scale=_small.filter(bool),
       changes=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                                  st.integers(0, 7), _small, st.booleans()),
                        max_size=3))
def test_sparse_verifier_matches_dense_reference(name, scale, changes):
    # a nonzero multiple of a Lie bracket is one; any other change to the
    # constants, antisymmetric (both [e_i, e_j] and [e_j, e_i]) or not,
    # usually breaks one identity or the other
    g = named_algebra(name)
    d = g.dim
    c = [[[scale * x for x in v] for v in row] for row in g.c]
    for i, j, k, delta, antisymmetric in changes:
        i, j, k = i % d, j % d, k % d
        c[i][j][k] += delta
        if antisymmetric and i != j:
            c[j][i][k] -= delta
    try:
        LieAlgebra(c)
        verdict = None
    except LieAlgebraError as exc:
        verdict = str(exc)
    assert verdict == _dense_verify(c)


def test_torus_element():
    t = torus_element(1, 1)
    g = named_algebra("su3")
    assert t[g.index_of("t1")] == 1
    assert t[g.index_of("t2")] == 2
    assert torus_element(1, -1, override=True)[g.index_of("t2")] == 0
    with pytest.raises(LieAlgebraError):
        torus_element(2, 4)
    with pytest.raises(LieAlgebraError):
        torus_element(1, -1)
    with pytest.raises(LieAlgebraError):
        torus_element(0, 0, override=True)


def test_subalgebra_closure_check():
    g = named_algebra("su3")
    with pytest.raises(LieAlgebraError):
        # a12 and s13 do not close under the bracket
        Subalgebra(g, [g.basis_vector(g.index_of("a12")),
                       g.basis_vector(g.index_of("s13"))])
    h = Subalgebra(g, [g.basis_vector(g.index_of("t1")),
                       g.basis_vector(g.index_of("t2"))])
    assert h.dim == 2


def test_bracket_closure_grows_a_generating_set():
    """a12, a23 and s12 generate all of su(3), a12 and s13 the su(2) with
    their bracket s23; t1, t2 span a closed torus; a vector in the span of
    the ones before it is dropped."""
    g = named_algebra("su3")
    e = {name: g.basis_vector(g.index_of(name)) for name in g.labels}
    closure = bracket_closure(g, [e["a12"], e["a23"], e["s12"]])
    assert len(closure) == 8 and linalg.rank(closure) == 8
    assert closure[:3] == [e["a12"], e["a23"], e["s12"]]
    assert bracket_closure(g, [e["a12"], e["s13"]]) == [e["a12"], e["s13"], e["s23"]]
    assert bracket_closure(g, [e["t1"], e["t2"]]) == [e["t1"], e["t2"]]
    twice = [x + y for x, y in zip(e["t1"], e["t2"])]
    assert bracket_closure(g, [e["t1"], e["t2"], twice]) == [e["t1"], e["t2"]]
    assert bracket_closure(g, []) == []


def test_reductive_split_dimensions():
    g3 = named_algebra("su3")
    h1 = Subalgebra(g3, [torus_element(1, 1)])
    assert len(reductive_split(g3, h1).m_basis) == 7
    h2 = Subalgebra(g3, [g3.basis_vector(0), g3.basis_vector(1)])
    assert len(reductive_split(g3, h2).m_basis) == 6
    g4 = named_algebra("su4")
    idx = [g4.index_of("t1"), g4.index_of("a12"), g4.index_of("s12")]
    hb = Subalgebra(g4, [g4.basis_vector(i) for i in idx])
    assert len(reductive_split(g4, hb).m_basis) == 12


def test_three_form_case_identities():
    sl3 = named_algebra("sl3-chevalley")
    B = killing_form(sl3)
    eta = biinvariant_three_form(sl3, B).terms_dict()
    E1, F1, H1 = sl3.basis_vector(2), sl3.basis_vector(5), sl3.basis_vector(0)
    E2, F2 = sl3.basis_vector(3), sl3.basis_vector(6)

    def X(a, b, c, d):
        v = [Fraction(0)] * 8
        v[0], v[1], v[2], v[5] = Fraction(a), Fraction(b), Fraction(c), Fraction(d)
        return v

    for (a, b, c, d) in ((1, 0, 0, 1), (2, -1, 3, 5), (0, 0, 1, 0), (1, 2, 0, 0)):
        assert evaluate(eta, [E1, H1, X(a, b, c, d)]) == -2 * d * B[2][5]
        assert evaluate(eta, [F1, H1, X(a, b, c, d)]) == 2 * c * B[5][2]
        assert evaluate(eta, [F1, X(a, b, 0, 0), E1]) == (2 * a - b) * B[5][2]
        assert evaluate(eta, [F2, X(a, b, 0, 0), E2]) == (2 * b - a) * B[3][6]


def test_three_form_is_b_of_bracket_on_every_triple():
    """eta is read off its i < j < k components; total antisymmetry, which
    the symmetric, ad-invariant B implies, makes it B(x, [y, z]) on every
    ordered basis triple."""
    sl3 = named_algebra("sl3-chevalley")
    B = killing_form(sl3)
    eta = biinvariant_three_form(sl3, B).terms_dict()
    e = sl3.basis_vector
    for i in range(sl3.dim):
        for j in range(sl3.dim):
            for k in range(sl3.dim):
                bracket = sl3.bracket(e(j), e(k))
                assert evaluate(eta, [e(i), e(j), e(k)]) == \
                    sum(B[i][t] * x for t, x in enumerate(bracket))


def test_three_form_rejects_a_form_that_is_not_invariant():
    sl3 = named_algebra("sl3-chevalley")
    B = killing_form(sl3)
    skew = [row[:] for row in B]
    skew[0][1] += 1
    identity = [[int(i == j) for j in range(8)] for i in range(8)]
    assert not is_ad_invariant(sl3, identity)
    with pytest.raises(LieAlgebraError, match="not symmetric"):
        biinvariant_three_form(sl3, skew)
    with pytest.raises(LieAlgebraError, match="not ad-invariant"):
        biinvariant_three_form(sl3, identity)


def test_three_form_closed_and_biinvariant():
    sl3 = named_algebra("sl3-chevalley")
    eta = biinvariant_three_form(sl3)
    assert derive(differential_images(sl3.c), eta).is_zero()
    for i in range(sl3.dim):
        assert derive(lie_derivative_images(ad(sl3, sl3.basis_vector(i))),
                          eta).is_zero()


def test_three_form_contraction_rank():
    sl3 = named_algebra("sl3-chevalley")
    eta = biinvariant_three_form(sl3).terms_dict()
    cols = []
    for i in range(sl3.dim):
        iv = interior(sl3.basis_vector(i), eta)
        cols.append([iv.get(m, 0) for m in range(1 << sl3.dim)])
    assert linalg.rank(cols) == sl3.dim  # trivial kernel (semisimplicity)
    L = [0, 1, 2, 5]  # H1, H2, E1, F1
    assert linalg.rank([cols[i] for i in L]) == 4


def test_cartan_formula_on_full_complex():
    # L_X = i_X d + d i_X on Lambda(g*)
    import random
    sl3 = named_algebra("sl3-chevalley")
    rng = random.Random(3)
    d = differential_images(sl3.c)
    for _ in range(20):
        k = rng.randint(1, 3)
        idx = sorted(rng.sample(range(8), k))
        mask = 0
        for i in idx:
            mask |= 1 << i
        form = Multivector(8, {mask: rng.randint(1, 3)})
        x = [Fraction(rng.randint(-2, 2)) for _ in range(8)]
        lhs = derive(lie_derivative_images(ad(sl3, x)), form)
        rhs = contract(x, derive(d, form)) + derive(d, contract(x, form))
        assert lhs == rhs


def test_named_registry():
    assert named_algebra("su2").dim == 3
    assert named_algebra("sl3-chevalley").labels[0] == "H1"
    for bad in ("so5", "su1", "su0", "su02"):
        with pytest.raises(LieAlgebraError, match=r"su<n> for n >= 2"):
            named_algebra(bad)
