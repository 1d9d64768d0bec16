"""Realization problems: residuals, gradients, the bounded search."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoformal import realize
from geoformal.errors import ConfigError
from geoformal.exterior import Multivector, grade_masks
from geoformal.realize import (FEASIBLE_FOUND, NO_SOLUTION_FOUND,
                               RealizationProblem, SearchConfig, _Compiled,
                               _restarts, builtin_problem,
                               relation_values_exact, residual, residual_exact,
                               search)
from geoformal.ring import GradedPoly, Generator

from conftest import blade

M = Multivector


def witness_c0_exact():
    return {"x": M(6, {0b000011: 1, 0b001100: 1}),
            "y": M(6, {0b110000: Fraction(1, 2)})}


def totaro00_witness_exact():
    f = lambda *idx: blade(6, tuple(i - 1 for i in idx))
    return {
        "x1": f(5, 6).scale(Fraction(-1, 4)),
        "x2": f(3, 4).scale(2) - f(1, 4).scale(2) - f(2, 3),
        "x3": (f(1, 2).scale(2) - f(3, 4).scale(2)
               + f(1, 4).scale(4) + f(2, 3).scale(2)),
    }


def test_residual_at_known_witness():
    p = builtin_problem("sphere-bundle", c=0)
    assert residual(p, witness_c0_exact()) == 0.0  # `pack` floats the forms
    assert residual_exact(p, witness_c0_exact()) == 0


def test_residual_zero_assignment_is_volume_defect():
    p = builtin_problem("sphere-bundle", c=0)
    zero = {"x": M.zero(6), "y": M.zero(6)}
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
    comp = p.compiled()
    return 2 * comp.jacobian(theta[None])[0].T @ comp.residual_vector(theta[None])[0]


def _exact_assignment(p, theta):
    """The exact forms whose coefficients are the floats of `theta`, each
    read as the Fraction it equals, so `pack` gives `theta` back."""
    out = {}
    for v in p.variables:
        a, b = p.compiled().offsets[v.name]
        out[v.name] = M(p.n, {m: Fraction(float(c)) for m, c in
                              zip(grade_masks(p.n, v.degree), theta[a:b])})
    return out


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

    monkeypatch.setattr(_Compiled, "jacobian", no_jacobian)
    assert residual(p, theta) == expected
    assert residual(p, _exact_assignment(p, theta)) == expected


def test_unpack_writes_each_form_as_report_text():
    """`unpack` gives each variable's report text: its nonzero coefficients
    as floats on blades in mask order, or 0 for the zero form."""
    p = builtin_problem("sphere-bundle", c=0)
    theta = np.zeros(p.compiled().dim)
    a = p.compiled().offsets["y"][0]
    masks = grade_masks(6, 2)
    theta[a + masks.index(0b001100)] = -0.5
    theta[a + masks.index(0b000011)] = 1
    theta[a + masks.index(0b110000)] = 0.25
    assert p.unpack(theta) == {
        "x": "Multivector(6, 0)",
        "y": "Multivector(6, 1.0*e12 + -0.5*e34 + 0.25*e56)"}


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
        masks = grade_masks(p.n, v.degree)
        coeffs = draw(st.lists(_SMALL, min_size=len(masks), max_size=len(masks)))
        assignment[v.name] = Multivector(p.n, dict(zip(masks, coeffs)))
    return p, assignment


@settings(max_examples=80, deadline=None)
@given(_problem_and_assignment())
def test_compiled_tables_match_exact_arithmetic(case):
    """The compiled signs and offsets against exact wedges, blade by blade."""
    p, assignment = case
    r = p.compiled().residual_vector(p.pack(assignment)[None])[0]
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
        p.pack({"x": blade(6, (0,)), "y": blade(6, (1, 2))})


def test_search_feasible_trivial_bundle():
    p = builtin_problem("sphere-bundle", c=0)
    cfg = SearchConfig(restarts=16, seed=7)
    out = search(p, cfg)
    assert out.status == FEASIBLE_FOUND
    assert out.best_residual < 1e-10
    # the reported point replays: the first restart of least cost gives the
    # same residual and the reported text
    runs = list(_restarts(p, cfg))
    theta = min(runs, key=lambda run: run[1])[0]
    assert residual(p, theta) == out.best_residual
    assert p.unpack(theta) == out.best_assignment


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
    with pytest.raises(ConfigError, match="7,484,400 wedge terms"):
        RealizationProblem(12, [("x", 2)], [], "x^6")  # too large to compile
    RealizationProblem(10, [("x", 2)], [], "x^5")  # 113,400 terms compile


@pytest.mark.parametrize("name,params", [
    ("sphere-bundle", {"c": 1}), ("totaro", {"a": 1, "b": 1}),
    ("wedge", {"p": 5, "q": 7}), ("wedge", {"p": 3, "q": 3})])
def test_term_count_is_the_compiled_terms(name, params):
    """The count a problem is refused on is the number of terms it compiles
    to: every group's terms, less the volume row's constant -1."""
    problem = builtin_problem(name, **params)
    monomials = [problem.volume_monomial,
                 *(e for r in problem.relations for e in r.terms)]
    compiled = sum(len(coef) for _, coef in problem.compiled()._groups) - 1
    assert sum(realize._term_count(problem, e) for e in monomials) == compiled


def test_search_outcome_reports_iterations_and_seed():
    p = builtin_problem("wedge", p=2, q=4)
    out = search(p, SearchConfig(restarts=4, seed=9))
    assert out.seed == 9
    assert out.iterations_used > 0
    assert len(out.restart_residuals) == 4


def test_stacked_residuals_match_one_point_at_a_time():
    """A point's residual and Jacobian do not depend on the stack it is
    evaluated in: bit for bit the same alone and among others."""
    rng = np.random.default_rng(2)
    for p in _BUILTINS:
        comp = p.compiled()
        thetas = rng.uniform(-1, 1, (5, comp.dim))
        r, J = comp.residual_vector(thetas), comp.jacobian(thetas)
        assert r.shape == (5, comp.residual_len)
        assert J.shape == (5, comp.residual_len, comp.dim)
        assert comp.residual_vector(thetas[::-1]).tobytes() == r[::-1].tobytes()
        assert comp.jacobian(thetas[::-1]).tobytes() == J[::-1].tobytes()
        for i in range(5):
            ri, Ji = comp.residual_vector(thetas[i:i + 1]), comp.jacobian(thetas[i:i + 1])
            assert ri.tobytes() == r[i:i + 1].tobytes()
            assert Ji.tobytes() == J[i:i + 1].tobytes()


# -- the lockstep search against the one-restart-at-a-time loop ---------------


def _lm_sequential(comp, theta, max_iterations):
    """The damped least-squares loop of one restart on its own: the
    reference that every restart of the lockstep search must follow bit for
    bit.  Returns the final point, cost and iteration count, the number of
    accepted steps and the number of candidates scored."""
    r, J = comp.residual_vector(theta[None])[0], comp.jacobian(theta[None])[0]
    cost = float(r @ r)
    lam = realize.LAMBDA0
    iters = accepted = scored = 0
    eye = np.eye(comp.dim)
    for _ in range(max_iterations):
        iters += 1
        if cost <= realize.CONVERGENCE_TOLERANCE:
            break
        g = J.T @ r
        if np.max(np.abs(g)) < 1e-17:
            break
        JtJ = J.T @ J
        improved = False
        for _ in range(40):
            try:
                delta = np.linalg.solve(JtJ + lam * eye, -g)
            except np.linalg.LinAlgError:
                lam *= realize.LAMBDA_GROW
                continue
            cand = theta + delta
            if np.max(np.abs(cand)) > realize.COEFFICIENT_BOUND:
                lam *= realize.LAMBDA_GROW
                continue
            rc = comp.residual_vector(cand[None])[0]
            scored += 1
            ccost = float(rc @ rc)
            if ccost < cost:
                theta, cost = cand, ccost
                r, J = rc, comp.jacobian(theta[None])[0]
                lam = max(lam / realize.LAMBDA_SHRINK, 1e-14)
                improved = True
                accepted += 1
                break
            lam *= realize.LAMBDA_GROW
            if lam > 1e14:
                break
        if not improved:
            break
    return theta, cost, iters, accepted, scored


def _sequential_restarts(p, cfg):
    comp = p.compiled()
    return [_lm_sequential(comp, np.random.default_rng([cfg.seed, i]).uniform(
                -1.0, 1.0, comp.dim), cfg.max_iterations)
            for i in range(cfg.restarts)]


def _assert_bitwise_equal(got, want):
    assert len(got) == len(want)
    for (theta, cost, iters), (ref_theta, ref_cost, ref_iters, *_) in zip(got, want):
        assert theta.tobytes() == ref_theta.tobytes()
        assert np.float64(cost).tobytes() == np.float64(ref_cost).tobytes()
        assert iters == ref_iters


_ORACLE = [("sphere-bundle", {"c": 0}), ("sphere-bundle", {"c": 1}),
           ("sphere-bundle", {"c": 2}), ("totaro", {"a": 0, "b": 0}),
           ("wedge", {"p": 2, "q": 4}), ("eschenburg-ex2", {})]


@pytest.mark.parametrize("name, params", _ORACLE,
                         ids=["sphere-c0", "sphere-c1", "sphere-c2", "totaro00",
                              "wedge24", "ex2"])
def test_lockstep_restarts_follow_the_sequential_loop_bitwise(monkeypatch, name, params):
    """Every restart ends at the theta, cost and iteration count of the
    one-restart loop, bit for bit; 7 restarts in blocks of 3 cross two block
    boundaries and end with a partial block.  The last run stops restarts
    at the iteration cap."""
    monkeypatch.setattr(realize, "SEARCH_BLOCK", 3)
    p = builtin_problem(name, **params)
    for seed, cap in ((0, 250), (41, 250), (5, 3)):
        cfg = SearchConfig(restarts=7, seed=seed, max_iterations=cap)
        _assert_bitwise_equal(list(_restarts(p, cfg)), _sequential_restarts(p, cfg))


def test_search_across_a_full_block_matches_the_sequential_loop():
    """At the module's own block size: the search's per-restart costs, total
    iterations and best assignment are the sequential loop's."""
    p = builtin_problem("sphere-bundle", c=0)
    cfg = SearchConfig(restarts=realize.SEARCH_BLOCK + 2, seed=5)
    want = _sequential_restarts(p, cfg)
    _assert_bitwise_equal(list(_restarts(p, cfg)), want)
    out = search(p, cfg)
    assert out.restart_residuals == [w[1] for w in want]
    assert out.iterations_used == sum(w[2] for w in want)
    best = min(range(cfg.restarts), key=lambda i: want[i][1])
    assert out.best_assignment == p.unpack(want[best][0])


def test_search_builds_one_jacobian_per_restart_and_accepted_step(monkeypatch):
    """Rejected candidates are scored on the residual alone: the search
    builds one Jacobian per starting point and one per accepted step, and
    evaluates one residual per starting point and one per scored candidate,
    so an accepted candidate's residual is not computed again."""
    p = builtin_problem("sphere-bundle", c=1)
    cfg = SearchConfig(restarts=5, seed=3)
    refs = _sequential_restarts(p, cfg)
    accepted = sum(ref[3] for ref in refs)
    scored = sum(ref[4] for ref in refs)
    built = {"jacobian": [], "residual_vector": []}

    for name in built:
        def counting(self, thetas, kernel=getattr(_Compiled, name), name=name):
            built[name].append(len(thetas))
            return kernel(self, thetas)
        monkeypatch.setattr(_Compiled, name, counting)
    search(p, cfg)
    assert accepted > 0
    assert sum(built["jacobian"]) == cfg.restarts + accepted
    assert sum(built["residual_vector"]) == cfg.restarts + scored


def _outcome(out):
    return (out.status, out.best_residual, out.best_assignment,
            out.iterations_used, out.restart_residuals, out.notes)


def test_failed_stacked_solve_falls_back_to_one_solve_per_restart(monkeypatch):
    """numpy raises LinAlgError for a whole stack; then every restart is
    solved alone, and the outcome is the one the stacked solve gives."""
    p = builtin_problem("totaro", a=1, b=1)
    cfg = SearchConfig(restarts=6, seed=5)
    expected = _outcome(search(p, cfg))
    solve = np.linalg.solve
    refused = []

    def no_stacks(A, b):
        if A.ndim == 3 and len(A) > 1:
            refused.append(len(A))
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(A, b)

    monkeypatch.setattr(np.linalg, "solve", no_stacks)
    assert _outcome(search(p, cfg)) == expected
    assert refused


def test_singular_system_grows_only_its_own_damping(monkeypatch):
    """A solve that fails for some systems, chosen by their content: the
    sequential loop and the lockstep search see the same systems, so they
    agree bit for bit, and only the restart whose system failed grows its
    damping."""
    solve = np.linalg.solve
    failed = []

    def singular(A):
        return int(abs(A[0, 0]) * 1e6) % 5 == 0

    def sometimes_singular(A, b):
        if any(singular(a) for a in (A if A.ndim == 3 else [A])):
            failed.append(A.ndim)
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(A, b)

    monkeypatch.setattr(realize, "SEARCH_BLOCK", 4)
    monkeypatch.setattr(np.linalg, "solve", sometimes_singular)
    p = builtin_problem("sphere-bundle", c=2)
    cfg = SearchConfig(restarts=6, seed=41)
    want = _sequential_restarts(p, cfg)
    assert 2 in failed
    failed.clear()
    _assert_bitwise_equal(list(_restarts(p, cfg)), want)
    assert 3 in failed


def test_forty_failed_tries_end_a_restart(monkeypatch):
    """When every system is singular, each restart makes 40 tries, each
    solved alone after its stack fails, and then ends at its start."""
    calls = []

    def never(A, b):
        calls.append(len(A) if A.ndim == 3 else 0)  # 0: one 2-D system
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", never)
    p = builtin_problem("sphere-bundle", c=1)
    cfg = SearchConfig(restarts=3, seed=0)
    want = _sequential_restarts(p, cfg)
    assert calls == [0] * 40 * cfg.restarts
    calls.clear()
    got = list(_restarts(p, cfg))
    _assert_bitwise_equal(got, want)
    assert calls == [3, 1, 1, 1] * 40
    assert [iters for _, _, iters in got] == [1] * cfg.restarts


@pytest.mark.parametrize("attr", ["restart_residuals", "notes"])
def test_search_outcomes_do_not_share_a_default(attr):
    """Two outcomes built without the list get one each."""
    first, second = (realize.SearchOutcome(NO_SOLUTION_FOUND, 1.0, {}, 0, 0)
                     for _ in range(2))
    assert getattr(first, attr) == getattr(second, attr) == []
    assert getattr(first, attr) is not getattr(second, attr)
