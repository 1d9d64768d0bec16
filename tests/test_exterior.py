"""Exterior algebra laws against independent brute-force oracles."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoformal import linalg
from geoformal.errors import (DimensionMismatchError, GradeError, MetricError,
                              ScalarKindError)
from geoformal.exterior import (MAX_DIM, Multivector, evaluate, grade_masks,
                                hodge_star, interior, lefschetz_matrix,
                                two_form_kernel, two_form_rank, wedge_sign)

from conftest import _reference_kernel, blade, contract, euclidean

M = Multivector


def volume(n):
    return M(n, {(1 << n) - 1: 1})


# -- independent oracles ------------------------------------------------------

def perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def eval_oracle(form, vectors):
    """Antisymmetric evaluation by explicit permutation sums (no interior)."""
    total = Fraction(0)
    k = len(vectors)
    for mask, coeff in form.terms_dict().items():
        idx = [i for i in range(form.n) if mask >> i & 1]
        assert len(idx) == k
        for perm in itertools.permutations(range(k)):
            prod = Fraction(coeff) * perm_sign(list(perm))
            for slot, p in enumerate(perm):
                prod *= Fraction(vectors[slot][idx[p]])
            total += prod
    return total


def inversion_sign(a_mask, b_mask):
    """Sign of e_A ^ e_B for disjoint masks, by counting the pairs (i in A,
    j in B) with i > j one by one."""
    inversions = sum(1 for i in range(a_mask.bit_length()) if a_mask >> i & 1
                     for j in range(i) if b_mask >> j & 1)
    return -1 if inversions % 2 else 1


def random_homogeneous(rng, n, grade, terms=3):
    out = {}
    for _ in range(terms):
        idx = tuple(sorted(rng.sample(range(n), grade)))
        mask = 0
        for i in idx:
            mask |= 1 << i
        out[mask] = out.get(mask, 0) + rng.randint(-4, 4)
    return M(n, {m: c for m, c in out.items() if c})


def random_vectors(rng, n, k):
    return [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]


# -- spec examples -------------------------------------------------------------

def test_wedge_disjoint_blades():
    assert blade(6, (0, 1)).wedge(blade(6, (2, 3))) == blade(6, (0, 1, 2, 3))


def test_wedge_square_cross_terms():
    w = blade(6, (0, 1)) + blade(6, (2, 3))
    assert w.wedge(w) == blade(6, (0, 1, 2, 3)).scale(2)


def test_wedge_cube_brute_force():
    # oracle: expand the cube over all ordered blade triples with sorting signs
    x = blade(6, (0, 1)) + blade(6, (2, 3)) + blade(6, (4, 5))
    terms = list(x.terms_dict().items())
    total = {}
    for (m1, c1), (m2, c2), (m3, c3) in itertools.product(terms, repeat=3):
        if m1 & m2 or (m1 | m2) & m3:
            continue
        idx = [i for m in (m1, m2, m3) for i in range(6) if m >> i & 1]
        inv = sum(1 for a in range(6) for b in range(a + 1, 6)
                  if idx[a] > idx[b])
        sign = -1 if inv % 2 else 1
        mask = m1 | m2 | m3
        total[mask] = total.get(mask, 0) + sign * c1 * c2 * c3
    cube = x.wedge(x).wedge(x)
    assert cube.terms_dict() == {m: c for m, c in total.items() if c}
    assert cube == volume(6).scale(6)


def test_interior_examples():
    assert interior([1, 0, 0, 0, 0, 0], {0b11: 1}) == {0b10: 1}
    assert interior([0, 0, 1, 0, 0, 0], {0b11: 1}) == {}
    # second slot contributes a minus sign
    assert interior([0, 1, 0, 0, 0, 0], {0b111: 1}) == {0b101: -1}


def test_interior_grade_zero_rejected():
    with pytest.raises(GradeError):
        interior([1, 0, 0, 0], {0: 1})
    with pytest.raises(GradeError):  # a tagged 0-form
        interior([1, 0, 0, 0], {0b1: 1, 1 << MAX_DIM: 1})
    assert interior([1, 0, 0, 0], {0: 0, 0b11: 1}) == {0b10: 1}


def test_interior_length_mismatch():
    """A blade outside R^n for the vector's n = 2; a tag is not a blade."""
    with pytest.raises(DimensionMismatchError):
        interior([1, 0], {0b1100: 1})
    assert interior([1, 0], {0b11 | 5 << MAX_DIM: 1}) == {0b10 | 5 << MAX_DIM: 1}


def test_evaluate_examples():
    e1 = [1, 0, 0, 0, 0, 0]
    e2 = [0, 1, 0, 0, 0, 0]
    assert evaluate({0b11: 1}, [e1, e2]) == 1
    assert evaluate({0b11: 1}, [e2, e1]) == -1
    basis = [[1 if i == j else 0 for i in range(6)] for j in range(6)]
    assert evaluate({0b111111: 1}, basis) == 1
    assert evaluate({}, [e1]) == 0 and evaluate({0: 3}, []) == 3
    with pytest.raises(GradeError):
        evaluate({0b11: 1}, [e1])


def test_two_form_rank_examples():
    assert two_form_rank({0b11: 1}, 6) == 2
    ker = two_form_kernel({0b11: 1}, 6)
    assert len(ker) == 4
    w = {0b11: 1, 0b1100: 1}
    assert two_form_rank(w, 6) == 4
    ker = two_form_kernel(w, 6)
    assert ker == [{4: 1}, {5: 1}]
    assert two_form_rank({}, 6) == 0
    with pytest.raises(GradeError):
        two_form_rank({0b111: 1}, 6)
    with pytest.raises(DimensionMismatchError):
        two_form_kernel({0b1100: 1}, 3)


def test_hodge_examples():
    g = euclidean(6)
    assert hodge_star(blade(6, (0, 1)), g) == blade(6, (2, 3, 4, 5))
    assert hodge_star(M.unit(6), g) == volume(6)
    assert hodge_star(hodge_star(blade(6, (0, 1)), g), g) == blade(6, (0, 1))


def test_lefschetz_examples():
    std = {0b11: 1, 0b1100: 1, 0b110000: 1}
    assert linalg.rank(lefschetz_matrix(std)) == 15
    assert linalg.rank(lefschetz_matrix({0b11: 1})) != 15
    zero_rows = lefschetz_matrix({})
    assert all(all(x == 0 for x in row) for row in zero_rows)
    with pytest.raises(DimensionMismatchError):
        lefschetz_matrix({0b1000001: 1})
    with pytest.raises(DimensionMismatchError):  # only `interior` takes tags
        lefschetz_matrix({0b11 | 1 << MAX_DIM: 1})
    with pytest.raises(GradeError):
        lefschetz_matrix({0b111: 1})


# -- algebraic laws -------------------------------------------------------------

def test_wedge_associative_and_graded_commutative():
    rng = random.Random(101)
    for _ in range(400):
        n = rng.choice([4, 5, 6, 7, 8])
        p = rng.randint(0, n)
        q = rng.randint(0, n)
        r = rng.randint(0, n)
        a = random_homogeneous(rng, n, p)
        b = random_homogeneous(rng, n, q)
        c = random_homogeneous(rng, n, r)
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))
        sign = -1 if (p * q) % 2 else 1
        assert a.wedge(b) == b.wedge(a).scale(sign)


def test_interior_antiderivation_and_square_zero():
    rng = random.Random(55)
    for _ in range(400):
        n = rng.choice([4, 5, 6, 7])
        p = rng.randint(1, n - 1)
        q = rng.randint(1, n - p)
        a = random_homogeneous(rng, n, p)
        b = random_homogeneous(rng, n, q)
        v = random_vectors(rng, n, 1)[0]
        lhs = contract(v, a.wedge(b))
        sign = -1 if p % 2 else 1
        rhs = contract(v, a).wedge(b) + a.wedge(contract(v, b)).scale(sign)
        assert lhs == rhs
        if p >= 2:
            assert contract(v, contract(v, a)).is_zero()


def test_evaluate_matches_oracle_and_alternates():
    rng = random.Random(77)
    for _ in range(200):
        n = rng.choice([4, 5, 6])
        k = rng.randint(1, n)
        a = random_homogeneous(rng, n, k)
        vs = random_vectors(rng, n, k)
        assert evaluate(a.terms_dict(), vs) == eval_oracle(a, vs)
        if k >= 2:
            i, j = rng.sample(range(k), 2)
            swapped = list(vs)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            assert evaluate(a.terms_dict(), swapped) == -evaluate(a.terms_dict(), vs)


def test_two_form_rank_even_and_matches_kernel():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.choice([4, 6, 8])
        a = random_homogeneous(rng, n, 2, terms=4).terms_dict()
        rank = two_form_rank(a, n)
        assert rank % 2 == 0
        assert rank == n - len(two_form_kernel(a, n))


def test_hodge_involution_all_grades():
    for n in (4, 6, 7, 8, 12):
        g = euclidean(n)
        rng = random.Random(n)
        for k in range(n + 1):
            a = random_homogeneous(rng, n, k, terms=2)
            sign = -1 if (k * (n - k)) % 2 else 1
            assert hodge_star(hodge_star(a, g), g) == a.scale(sign)


def test_hodge_norm_law():
    rng = random.Random(4)
    g = [1, 4, 9, 1, 4, 25]
    for _ in range(50):
        k = rng.randint(0, 6)
        a = random_homogeneous(rng, 6, k, terms=3)
        norm2 = Fraction(0)
        for mask, c in a.terms_dict().items():
            w = Fraction(1)
            for i in range(6):
                if mask >> i & 1:
                    w *= g[i]
            norm2 += Fraction(c) ** 2 * w
        # det(G) = 1*4*9*1*4*25 = 3600, so the unit volume is e123456/60
        vol = volume(6).scale(Fraction(1, 60))
        assert a.wedge(hodge_star(a, g)) == vol.scale(norm2)


def test_hodge_rejects_bad_metrics():
    for g in ([1, -1], [1, 0]):
        with pytest.raises(MetricError):
            hodge_star(blade(2, (0,)), g)
    with pytest.raises(DimensionMismatchError):
        hodge_star(blade(2, (0,)), [1, 1, 1])
    # non-square determinant without an explicit scale
    g2 = [2, 1, 1, 1]
    with pytest.raises(MetricError):
        hodge_star(blade(4, (0, 1)), g2)
    # but fine once the scale is supplied
    out = hodge_star(blade(4, (0, 1)), g2, scale=1)
    assert out == blade(4, (2, 3)).scale(2)


def test_lefschetz_invertible_iff_cube_nonzero():
    rng = random.Random(9)
    for _ in range(150):
        w = random_homogeneous(rng, 6, 2, terms=5)
        cube = w.wedge(w).wedge(w)
        assert (linalg.rank(lefschetz_matrix(w.terms_dict())) == 15) == \
            (not cube.is_zero())


# -- exact scalars only ---------------------------------------------------------

def test_float_scalars_are_refused():
    """A float, numpy float64 or numpy float32 coefficient, scale or vector
    entry raises ScalarKindError, even when it is integral or zero; ints and
    Fractions pass and stay exact, and a bool is stored as an int."""
    a = M(4, {0b0011: 1, 0b0110: Fraction(1, 2)})
    for x in (0.5, np.float64(0.5), 2.0, 0.0, np.float64(0.0), np.float32(0.5),
              np.float32(1.0)):
        for op in (lambda: M(4, {0b0011: 1, 0b1100: x}), lambda: a.scale(x),
                   lambda: interior([x, 0, 0, 0], a.terms_dict())):
            with pytest.raises(ScalarKindError):
                op()
    for s in (3, Fraction(-2, 3)):
        assert M(4, {0b0011: s}).coeff_mask(0b0011) == s
        assert a.scale(s) == M(4, {0b0011: s, 0b0110: Fraction(s) / 2})
        assert interior([s, 0, 0, 0], a.terms_dict()) == {0b0010: s}
        assert all(type(c) in (int, Fraction) for c in a.scale(s).terms_dict().values())
    flag = M(2, {0b01: True, 0b10: False})
    assert type(flag.coeff_mask(0b01)) is int and flag == M(2, {0b01: 1})
    assert repr(flag) == "Multivector(2, 1*e1)"
    assert type(a.scale(True).coeff_mask(0b0011)) is int


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        blade(4, (0,)).wedge(blade(6, (0,)))


# -- exterior laws at random n <= 8 ----------------------------------------------

_INT = st.integers(-4, 4)


@st.composite
def _form(draw, n, grade=None):
    """A form with integer coefficients; `grade` None draws any blades, so
    the form may be inhomogeneous."""
    masks = [m for m in range(1 << n) if grade is None or m.bit_count() == grade]
    return M(n, draw(st.dictionaries(st.sampled_from(masks), _INT, max_size=6)))


@st.composite
def _operands(draw):
    """(a, p, b, q, v): forms of grades p, q >= 1 on R^n and a vector."""
    n = draw(st.integers(1, 8))
    p = draw(st.integers(1, n))
    q = draw(st.integers(1, n))
    return (draw(_form(n, p)), p, draw(_form(n, q)), q,
            draw(st.lists(_INT, min_size=n, max_size=n)))


def _reference_wedge(a, b):
    out = {}
    for ma, ca in a.terms_dict().items():
        for mb, cb in b.terms_dict().items():
            if not ma & mb:
                out[ma | mb] = out.get(ma | mb, 0) + ca * cb * inversion_sign(ma, mb)
    return M(a.n, out)


def _reference_interior(v, a):
    """i_v a slot by slot: removing the j-th index of a blade contributes (-1)^j."""
    out = {}
    for mask, c in a.terms_dict().items():
        for slot, i in enumerate(i for i in range(a.n) if mask >> i & 1):
            if v[i]:
                m = mask ^ (1 << i)
                out[m] = out.get(m, 0) + (-c if slot % 2 else c) * v[i]
    return M(a.n, out)


def test_wedge_sign_matches_inversion_count():
    for a in range(1 << 6):
        for b in range(1 << 6):
            if not a & b:
                assert wedge_sign(a, b) == inversion_sign(a, b), (a, b)


@settings(max_examples=150, deadline=None)
@given(_operands())
def test_interior_matches_slot_reference(ops):
    a, _, b, _, v = ops
    for form in (a, b):
        assert interior(v, form.terms_dict()) == \
            _reference_interior(v, form).terms_dict()


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(_form(n), _form(n), _form(n))))
def test_wedge_matches_reference_and_is_associative(forms):
    a, b, c = forms
    assert a.wedge(b) == _reference_wedge(a, b)
    assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


@settings(max_examples=150, deadline=None)
@given(_operands())
def test_graded_commutativity_and_antiderivation(ops):
    a, p, b, q, v = ops
    assert a.wedge(b) == b.wedge(a).scale(-1 if p * q % 2 else 1)
    rhs = contract(v, a).wedge(b) + a.wedge(contract(v, b)).scale(-1 if p % 2 else 1)
    assert contract(v, a.wedge(b)) == rhs


def _results(a, b, v, s):
    """Multivector results, and the term dict of `interior`."""
    return [a + b, a - b, -a, a.scale(s), a.wedge(b),
            interior(v, a.scale(s).terms_dict())]


def _assert_clean(r, coeff_type):
    terms = r if isinstance(r, dict) else r.terms_dict()
    assert all(c != 0 for c in terms.values())
    assert all(type(c) is coeff_type for c in terms.values())
    assert isinstance(r, dict) or r == M(r.n, terms)


@settings(max_examples=150, deadline=None)
@given(_operands(), _INT)
def test_exact_results_are_clean_and_keep_ints(ops, s):
    a, _, b, _, v = ops
    for r in _results(a, b, v, s):
        _assert_clean(r, int)
    for r in _results(a, b, v, Fraction(1, 3)):
        terms = r if isinstance(r, dict) else r.terms_dict()
        assert isinstance(r, dict) or r == M(r.n, terms)
        assert 0 not in terms.values()



# -- term-dict forms against explicit references, n = 2..8 ----------------------

def _random_terms(rng, n, grade):
    """A random integer form {mask: x} of one grade over R^n, zeros dropped."""
    masks = grade_masks(n, grade)
    picked = rng.sample(masks, rng.randint(0, min(len(masks), 6)))
    return {m: c for m in picked if (c := rng.randint(-3, 3))}


def test_two_form_rank_and_kernel_match_the_skew_matrix():
    """The rank of the explicit skew matrix A (A[i][j] = -A[j][i] = the
    coefficient of e_i ^ e_j, i < j) and its identity-pattern kernel, from a
    Fraction elimination; each kernel vector contracts the form to zero."""
    rng = random.Random(808)
    for n in range(2, 9):
        for _ in range(40):
            a = _random_terms(rng, n, 2)
            skew = [[0] * n for _ in range(n)]
            for mask, c in a.items():
                i, j = (k for k in range(n) if mask >> k & 1)
                skew[i][j], skew[j][i] = c, -c
            basis, _ = _reference_kernel(skew, n)
            assert two_form_rank(a, n) == n - len(basis)
            kernel = two_form_kernel(a, n)
            assert [[x.get(i, 0) for i in range(n)] for x in kernel] == basis
            assert all(interior([x.get(i, 0) for i in range(n)], a) == {}
                       for x in kernel)


def test_interior_follows_the_slot_sign_rule_and_squares_to_zero():
    """i_v of forms of every degree 1..n: slot by slot, removing the j-th
    index of a blade contributes (-1)^j, and i_v i_v = 0 from degree 2.  One
    call on all the forms of an n, each tagged by its index, gives each
    form's image under its tag."""
    rng = random.Random(809)
    for n in range(2, 9):
        forms, v = [], [rng.randint(-3, 3) for _ in range(n)]
        for k in range(1, n + 1):
            for _ in range(8):
                a = _random_terms(rng, n, k)
                forms.append(a)
                image = interior(v, a)
                assert image == _reference_interior(v, M(n, a)).terms_dict()
                if k >= 2:
                    assert interior(v, image) == {}
        tagged = {m | t << MAX_DIM: c for t, a in enumerate(forms)
                  for m, c in a.items()}
        assert interior(v, tagged) == {m | t << MAX_DIM: c
                                       for t, a in enumerate(forms)
                                       for m, c in interior(v, a).items()}


def test_lefschetz_matrix_matches_blade_by_blade_wedges():
    """Column j of the matrix is e_B ^ omega for the j-th 2-blade e_B, read
    in the 4-blades, with the wedge by inversion counting."""
    rng = random.Random(810)
    fours = grade_masks(6, 4)
    for _ in range(60):
        omega = _random_terms(rng, 6, 2)
        mat = lefschetz_matrix(omega)
        for col, m2 in enumerate(grade_masks(6, 2)):
            expected = _reference_wedge(M(6, {m2: 1}), M(6, omega)).terms_dict()
            assert {m: mat[row][col] for row, m in enumerate(fours)
                    if mat[row][col]} == expected
