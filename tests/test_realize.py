"""Realization problems: residuals, gradients, the bounded search."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoformal.errors import ConfigError
from geoformal.exterior import Multivector, grade_masks
from geoformal.realize import (FEASIBLE_FOUND, NO_SOLUTION_FOUND,
                               RealizationProblem, SearchConfig, _Compiled,
                               builtin_problem, relation_values_exact,
                               residual, residual_exact, search)
from geoformal.ring import GradedPoly, Generator

M = Multivector


def witness_c0_float():
    return {"x": M(6, {0b000011: 1.0, 0b001100: 1.0}, "float"),
            "y": M(6, {0b110000: 0.5}, "float")}


def witness_c0_exact():
    return {"x": M(6, {0b000011: 1, 0b001100: 1}),
            "y": M(6, {0b110000: Fraction(1, 2)})}


def totaro00_witness_exact():
    f = lambda *idx: M.blade(6, tuple(i - 1 for i in idx))
    return {
        "x1": f(5, 6).scale(Fraction(-1, 4)),
        "x2": f(3, 4).scale(2) - f(1, 4).scale(2) - f(2, 3),
        "x3": (f(1, 2).scale(2) - f(3, 4).scale(2)
               + f(1, 4).scale(4) + f(2, 3).scale(2)),
    }


def test_residual_at_known_witness():
    p = builtin_problem("sphere-bundle", c=0)
    assert residual(p, witness_c0_float()) == 0.0
    assert residual_exact(p, witness_c0_exact()) == 0


def test_residual_zero_assignment_is_volume_defect():
    p = builtin_problem("sphere-bundle", c=0)
    zero = {"x": M.zero(6, "float"), "y": M.zero(6, "float")}
    assert residual(p, zero) == 1.0


def test_residual_nonnegative_random():
    p = builtin_problem("sphere-bundle", c=1)
    rng = np.random.default_rng(3)
    comp = p.compiled()
    for _ in range(50):
        theta = rng.uniform(-2, 2, comp.dim)
        assert residual(p, theta) >= 0.0


def test_exact_totaro00_witness():
    p = builtin_problem("totaro", a=0, b=0)
    w = totaro00_witness_exact()
    assert residual_exact(p, w) == 0
    values, vol = relation_values_exact(p, w)
    assert all(v.is_zero() for v in values)
    assert vol.coeff_mask((1 << 6) - 1) == 1


def _gradient(p, theta):
    """Gradient of `residual`: 2 J^T r from the compiled Jacobian."""
    r, J = p.compiled().residual_vector_and_jacobian(theta)
    return 2 * J.T @ r


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    for name, params in (("sphere-bundle", {"c": 0}),
                         ("sphere-bundle", {"c": 2}),
                         ("totaro", {"a": 1, "b": 1}),
                         ("wedge", {"p": 2, "q": 4})):
        p = builtin_problem(name, **params)
        comp = p.compiled()
        h = 1e-6
        for _ in range(15):
            theta = rng.uniform(-1, 1, comp.dim)
            g = _gradient(p, theta)
            fd = np.zeros_like(g)
            for i in range(comp.dim):
                tp = theta.copy()
                tp[i] += h
                tm = theta.copy()
                tm[i] -= h
                fd[i] = (residual(p, tp) - residual(p, tm)) / (2 * h)
            rel = np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g))
            assert rel < 1e-6


def test_residual_builds_no_jacobian(monkeypatch):
    p = builtin_problem("totaro", a=1, b=1)
    theta = np.random.default_rng(5).uniform(-1, 1, p.compiled().dim)
    expected = residual(p, theta)
    h = 1e-6
    g = _gradient(p, theta)
    fd = np.array([(residual(p, theta + h * e) - residual(p, theta - h * e)) / (2 * h)
                   for e in np.eye(len(theta))])
    assert np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g)) < 1e-6

    def no_jacobian(self, theta):
        raise AssertionError("residual() built a Jacobian")

    monkeypatch.setattr(_Compiled, "residual_vector_and_jacobian", no_jacobian)
    assert residual(p, theta) == expected
    assert residual(p, p.unpack(theta)) == expected


_BUILTINS = [builtin_problem(name, **params) for name, params in (
    ("sphere-bundle", {"c": 0}), ("sphere-bundle", {"c": 2}),
    ("totaro", {"a": 1, "b": 1}), ("totaro", {"a": 0, "b": 0}),
    ("wedge", {"p": 2, "q": 4}), ("eschenburg-ex2", {}))]


_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _exps_of_degree(grades, d):
    """Exponent vectors (entries 0..3) of total grade d."""
    if not grades:
        return [()] if d == 0 else []
    g = grades[0]
    return [(k,) + rest for k in range(min(3, d // g) + 1)
            for rest in _exps_of_degree(grades[1:], d - k * g)]


@st.composite
def _random_problem(draw):
    """n in 2..6, variable grades 1..3 (odd ones included), a volume monomial
    of grade n and up to three homogeneous relations of grade <= n."""
    n = draw(st.integers(2, 6))
    grades, volume = [], []
    left = n
    while left:  # the volume monomial, one factor at a time
        g = draw(st.integers(1, min(3, left)))
        if g in grades and draw(st.booleans()):
            volume[grades.index(g)] += 1
        else:
            grades.append(g)
            volume.append(1)
        left -= g
    extra = draw(st.lists(st.integers(1, min(3, n)), max_size=2))
    grades += extra
    volume += [0] * len(extra)
    names = [f"x{i}" for i in range(len(grades))]
    gens = [Generator(v, g) for v, g in zip(names, grades)]
    relations = []
    for _ in range(draw(st.integers(0, 3))):
        monos = _exps_of_degree(grades, draw(st.integers(1, n)))
        if monos:
            chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3))
            relations.append(GradedPoly(gens, {e: draw(_SMALL) for e in chosen}))
    return RealizationProblem(n, list(zip(names, grades)), relations,
                              tuple(volume), require_injective_degree2=False)


@st.composite
def _problem_and_assignment(draw):
    p = draw(st.one_of(st.sampled_from(_BUILTINS), _random_problem()))
    assignment = {}
    for v in p.variables:
        masks = grade_masks(p.n, v.grade)
        coeffs = draw(st.lists(_SMALL, min_size=len(masks), max_size=len(masks)))
        assignment[v.name] = Multivector(p.n, dict(zip(masks, coeffs)))
    return p, assignment


@settings(max_examples=80, deadline=None)
@given(_problem_and_assignment())
def test_compiled_tables_match_exact_arithmetic(case):
    """The compiled signs and offsets against exact wedges, blade by blade."""
    p, assignment = case
    r = p.compiled().residual_vector(p.pack(assignment))
    values, vol = relation_values_exact(p, assignment)
    expected = []
    for rel, mv in zip(p.relations, values):
        expected += [mv.coeff_mask(m) for m in grade_masks(p.n, rel.degree())]
    expected.append(vol.coeff_mask((1 << p.n) - 1) - 1)
    assert len(r) == len(expected)
    for got, want in zip(r, expected):
        assert abs(got - float(want)) <= 1e-9 * max(1.0, abs(float(want)))
    exact = float(residual_exact(p, assignment))
    assert abs(residual(p, assignment) - exact) <= 1e-9 * max(1.0, exact)


def test_grade_mismatch_rejected():
    p = builtin_problem("sphere-bundle", c=0)
    with pytest.raises(Exception):
        p.pack({"x": M.blade(6, (0,)), "y": M.blade(6, (1, 2))})


def test_search_feasible_trivial_bundle():
    p = builtin_problem("sphere-bundle", c=0)
    out = search(p, SearchConfig(restarts=16, seed=7))
    assert out.status == FEASIBLE_FOUND
    assert out.best_residual < 1e-10
    # the reported assignment replays to the same residual
    assert abs(residual(p, out.best_assignment) - out.best_residual) < 1e-18


def test_search_deterministic():
    p = builtin_problem("sphere-bundle", c=1)
    cfg = SearchConfig(restarts=6, seed=42)
    o1 = search(p, cfg)
    o2 = search(p, SearchConfig(restarts=6, seed=42))
    assert o1.status == o2.status
    assert o1.best_residual == o2.best_residual
    assert o1.restart_residuals == o2.restart_residuals
    o3 = search(p, SearchConfig(restarts=6, seed=43))
    assert o3.restart_residuals != o1.restart_residuals


def test_search_infeasible_stays_high():
    p = builtin_problem("sphere-bundle", c=1)
    out = search(p, SearchConfig(restarts=12, seed=5))
    assert out.status == NO_SOLUTION_FOUND
    assert out.best_residual > 1e-3


def test_search_totaro00_finds_witness():
    p = builtin_problem("totaro", a=0, b=0)
    out = search(p, SearchConfig(restarts=16, seed=5))
    assert out.status == FEASIBLE_FOUND
    assert out.best_residual < 1e-10


def test_search_ex2_rejected_by_injectivity():
    """The two-relation biquotient ring admits degenerate x = y assignments;
    the independence gate keeps them from counting as witnesses."""
    p = builtin_problem("eschenburg-ex2")
    out = search(p, SearchConfig(restarts=16, seed=3))
    assert out.status == NO_SOLUTION_FOUND
    assert any("nearly dependent" in n for n in out.notes)


def test_scaling_invariance_of_witnesses():
    """u -> t*u with the relation constant c -> c/t^2 maps witnesses to
    witnesses (after re-pinning the volume by scaling the other variable)."""
    t = Fraction(3)
    w = witness_c0_exact()
    scaled = {"x": w["x"].scale(t), "y": w["y"].scale(Fraction(1, t * t))}
    p = builtin_problem("sphere-bundle", c=0)  # c = 0 is fixed by c/t^2
    assert residual_exact(p, scaled) == 0


def test_config_validation():
    with pytest.raises(ConfigError):
        SearchConfig(restarts=0)
    with pytest.raises(ConfigError):
        SearchConfig(max_iterations=0)


def test_problem_validation():
    with pytest.raises(ConfigError):
        RealizationProblem(6, [("x", 2)], ["x^2"], "x^2")  # volume grade 4 != 6
    with pytest.raises(ConfigError):
        RealizationProblem(6, [("x", 7)], [], "x")  # grade beyond n


def test_search_outcome_reports_iterations_and_seed():
    p = builtin_problem("wedge", p=2, q=4)
    out = search(p, SearchConfig(restarts=4, seed=9))
    assert out.seed == 9
    assert out.iterations_used > 0
    assert len(out.restart_residuals) == 4
