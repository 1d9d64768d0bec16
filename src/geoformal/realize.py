"""Pointwise realization of cohomology rings by constant-coefficient forms.

A realization problem asks for an assignment of constant-coefficient forms
on R^n satisfying every ring relation identically, with a designated top
monomial equal to the volume form.  That is a necessary condition for
geometric formality whenever harmonic forms have constant coefficients in
some frame, so a certified infeasibility refutes formality; a found witness
refutes nothing but documents realizability.

The numerical side minimizes the squared blade-coefficient residual with a
damped least-squares descent (first-derivative information only, adaptive
damping as the step-size schedule).  All search work is float; exact
replays of candidate witnesses go through the exact exterior kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

import numpy as np

from .errors import ConfigError, GradeError, RingError
from .exterior import Multivector, grade_masks, wedge_sign
from .ring import Generator, builtin_presentation, build_table, parse_poly

FEASIBLE_FOUND = "FEASIBLE_FOUND"
NO_SOLUTION_FOUND = "NO_SOLUTION_FOUND"


@dataclass(frozen=True)
class FormVariable:
    name: str
    grade: int


class RealizationProblem:
    """Form variables, vanishing relations, and a pinned volume monomial.

    `require_injective_degree2` demands that the degree-2 variables stay
    linearly independent as forms; harmonic representatives of independent
    classes are independent, so this is part of the necessary condition.
    """

    def __init__(self, n, variables, relations, volume_monomial,
                 require_injective_degree2=True, label=""):
        self.n = int(n)
        self.variables = tuple(FormVariable(v[0], int(v[1])) if not isinstance(v, FormVariable)
                               else v for v in variables)
        if any(not 0 < v.grade <= self.n for v in self.variables):
            raise ConfigError("variable grades must lie in 1..n")
        self.gens = tuple(Generator(v.name, v.grade) for v in self.variables)
        rels = []
        for r in relations:
            poly = parse_poly(r, self.gens) if isinstance(r, str) else r
            if poly.is_zero():
                continue
            d = poly.degree()
            if d > self.n:
                raise ConfigError(f"relation grade {d} exceeds n = {self.n}")
            rels.append(poly)
        self.relations = tuple(rels)
        if isinstance(volume_monomial, str):
            poly = parse_poly(volume_monomial, self.gens)
            if len(poly.terms) != 1 or list(poly.terms.values()) != [Fraction(1)]:
                raise ConfigError("volume monomial must be a single monic monomial")
            (volume_monomial,) = poly.terms.keys()
        self.volume_monomial = tuple(volume_monomial)
        vol_degree = sum(e * g.degree for e, g in zip(self.volume_monomial, self.gens))
        if vol_degree != self.n:
            raise ConfigError(f"volume monomial grade {vol_degree} != n = {self.n}")
        self.require_injective_degree2 = bool(require_injective_degree2)
        self.label = label
        self._compiled = None

    # -- assignment packing --------------------------------------------------

    def dims(self):
        return {v.name: comb(self.n, v.grade) for v in self.variables}

    def total_dim(self):
        return sum(self.dims().values())

    def pack(self, assignment):
        """Flatten {name: Multivector} into one float vector."""
        out = []
        for v in self.variables:
            mv = assignment[v.name]
            if mv.n != self.n:
                raise GradeError("assignment dimension mismatch")
            if not mv.is_zero() and mv.homogeneous_grade() != v.grade:
                raise GradeError(f"variable {v.name} expects grade {v.grade}")
            out.extend(float(mv.coeff_mask(m)) for m in grade_masks(self.n, v.grade))
        return np.array(out, dtype=float)

    def unpack(self, vec):
        out = {}
        pos = 0
        for v in self.variables:
            masks = grade_masks(self.n, v.grade)
            coeffs = vec[pos: pos + len(masks)]
            pos += len(masks)
            out[v.name] = Multivector(
                self.n, {m: float(c) for m, c in zip(masks, coeffs) if c != 0.0},
                "float")
        return out

    def compiled(self):
        if self._compiled is None:
            self._compiled = _Compiled(self)
        return self._compiled


# -- exact evaluation ---------------------------------------------------------


def evaluate_monomial_exact(problem, exps, assignment):
    acc = Multivector.unit(problem.n, next(iter(assignment.values())).kind)
    for e, v in zip(exps, problem.variables):
        for _ in range(e):
            acc = acc.wedge(assignment[v.name])
    return acc


def relation_values_exact(problem, assignment):
    """Exact multivector value of every relation plus the volume monomial."""
    values = []
    for rel in problem.relations:
        kind = next(iter(assignment.values())).kind
        acc = Multivector.zero(problem.n, kind)
        for exps, c in rel.terms.items():
            term = evaluate_monomial_exact(problem, exps, assignment)
            acc = acc + term.scale(c if kind == "exact" else float(c))
        values.append(acc)
    vol = evaluate_monomial_exact(problem, problem.volume_monomial, assignment)
    return values, vol


def residual_exact(problem, assignment):
    """Exact rational residual at an exact assignment (witness checking)."""
    values, vol = relation_values_exact(problem, assignment)
    total = Fraction(0)
    for mv in values:
        for c in mv.terms_dict().values():
            total += Fraction(c) ** 2
    top = Fraction(vol.coeff_mask((1 << problem.n) - 1))
    total += (top - 1) ** 2
    return total


# -- compiled float evaluation ------------------------------------------------


_WEDGE_CACHE = {}


def _wedge_tensor(n, ga, gb):
    """Dense structure tensor T[out, a, b] of the wedge Lambda^ga x Lambda^gb."""
    key = (n, ga, gb)
    if key not in _WEDGE_CACHE:
        masks_a, masks_b = grade_masks(n, ga), grade_masks(n, gb)
        index_o = {m: i for i, m in enumerate(grade_masks(n, ga + gb))}
        T = np.zeros((len(index_o), len(masks_a), len(masks_b)))
        for i, ma in enumerate(masks_a):
            for j, mb in enumerate(masks_b):
                if ma & mb:
                    continue
                T[index_o[ma | mb], i, j] = wedge_sign(ma, mb)
        _WEDGE_CACHE[key] = T
    return _WEDGE_CACHE[key]


class _Compiled:
    """Residual vector and analytic Jacobian as numpy folds."""

    def __init__(self, problem):
        self.problem = problem
        n = problem.n
        self.var_names = [v.name for v in problem.variables]
        self.var_grades = {v.name: v.grade for v in problem.variables}
        self.offsets = {}
        pos = 0
        for v in problem.variables:
            self.offsets[v.name] = (pos, pos + comb(n, v.grade))
            pos += comb(n, v.grade)
        self.dim = pos
        self.rows = []
        for rel in problem.relations:
            monos = [(float(c), self._factors(exps)) for exps, c in rel.terms.items()]
            self.rows.append(("relation", rel.degree(), monos))
        self.rows.append(("volume", n,
                          [(1.0, self._factors(problem.volume_monomial))]))
        self.residual_len = sum(comb(n, deg) if kind == "relation" else 1
                                for kind, deg, _ in self.rows)

    def _factors(self, exps):
        names = []
        for e, v in zip(exps, self.problem.variables):
            names.extend([v.name] * e)
        return names

    def _value_and_slots(self, factors, theta):
        """Fold the wedge left to right; return value and per-slot hole matrices."""
        n = self.problem.n
        vecs = []
        for name in factors:
            a, b = self.offsets[name]
            vecs.append(theta[a:b])
        grades = [self.var_grades[name] for name in factors]
        # prefix values and grades
        prefix = [None] * (len(factors) + 1)
        pgrade = [0] * (len(factors) + 1)
        prefix[0] = np.array([1.0])
        for i, v in enumerate(vecs):
            T = _wedge_tensor(n, pgrade[i], grades[i])
            prefix[i + 1] = np.einsum("oab,a,b->o", T, prefix[i], v)
            pgrade[i + 1] = pgrade[i] + grades[i]
        suffix = [None] * (len(factors) + 1)
        sgrade = [0] * (len(factors) + 1)
        suffix[len(factors)] = np.array([1.0])
        for i in range(len(factors) - 1, -1, -1):
            T = _wedge_tensor(n, grades[i], sgrade[i + 1])
            suffix[i] = np.einsum("oab,a,b->o", T, vecs[i], suffix[i + 1])
            sgrade[i] = grades[i] + sgrade[i + 1]
        value = prefix[len(factors)]
        holes = []
        for s in range(len(factors)):
            T1 = _wedge_tensor(n, pgrade[s], grades[s])
            M1 = np.einsum("oab,a->ob", T1, prefix[s])  # out x slot
            T2 = _wedge_tensor(n, pgrade[s] + grades[s], sgrade[s + 1])
            M2 = np.einsum("omb,b->om", T2, suffix[s + 1])  # final x out
            holes.append(M2 @ M1)
        return value, holes

    def residual_vector_and_jacobian(self, theta):
        n = self.problem.n
        parts = []
        jparts = []
        for kind, deg, monos in self.rows:
            out_dim = comb(n, deg)
            val = np.zeros(out_dim)
            jac = np.zeros((out_dim, self.dim))
            for coeff, factors in monos:
                v, holes = self._value_and_slots(factors, theta)
                val += coeff * v
                for s, name in enumerate(factors):
                    a, b = self.offsets[name]
                    jac[:, a:b] += coeff * holes[s]
            if kind == "volume":
                parts.append(val[-1:] - 1.0)
                jparts.append(jac[-1:, :])
            else:
                parts.append(val)
                jparts.append(jac)
        return np.concatenate(parts), np.vstack(jparts)


def residual(problem, assignment):
    """Sum over relations of squared blade-coefficient norms, plus the
    squared volume defect."""
    theta = assignment if isinstance(assignment, np.ndarray) else problem.pack(assignment)
    r, _ = problem.compiled().residual_vector_and_jacobian(theta)
    return float(r @ r)


def residual_gradient(problem, assignment):
    """Analytic gradient of `residual` in the packed coordinates."""
    theta = assignment if isinstance(assignment, np.ndarray) else problem.pack(assignment)
    r, J = problem.compiled().residual_vector_and_jacobian(theta)
    return 2.0 * (J.T @ r)


# -- search -------------------------------------------------------------------


@dataclass
class SearchConfig:
    restarts: int = 64
    max_iterations: int = 250
    lambda0: float = 1e-3       # initial damping of the step-size schedule
    lambda_grow: float = 5.0
    lambda_shrink: float = 3.0
    convergence_tolerance: float = 1e-12
    feasibility_threshold: float = 1e-8
    injectivity_margin: float = 1e-4
    coefficient_bound: float = 6.0
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ConfigError(f"search needs restarts >= 1, got {self.restarts}")
        if self.convergence_tolerance <= 0 or self.feasibility_threshold <= 0:
            raise ConfigError("tolerances must be positive")
        if self.feasibility_threshold <= self.convergence_tolerance:
            raise ConfigError("feasibility threshold must exceed convergence tolerance")
        if self.coefficient_bound <= 1.0:
            raise ConfigError("coefficient bound must exceed the init range [-1, 1]")


@dataclass
class SearchOutcome:
    status: str
    best_residual: float
    best_assignment: dict
    iterations_used: int
    seed: int
    restart_residuals: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def feasible(self):
        return self.status == FEASIBLE_FOUND


def _degree2_min_singular(problem, theta):
    rows = []
    for v in problem.variables:
        if v.grade == 2:
            a, b = problem.compiled().offsets[v.name]
            rows.append(theta[a:b])
    if not rows:
        return None
    sv = np.linalg.svd(np.array(rows), compute_uv=False)
    return float(sv[-1])


def _lm_minimize(problem, theta, cfg):
    comp = problem.compiled()
    r, J = comp.residual_vector_and_jacobian(theta)
    cost = float(r @ r)
    lam = cfg.lambda0
    iters = 0
    eye = np.eye(comp.dim)
    for _ in range(cfg.max_iterations):
        iters += 1
        if cost <= cfg.convergence_tolerance:
            break
        g = J.T @ r
        if np.max(np.abs(g)) < 1e-17:
            break
        improved = False
        for _ in range(40):
            H = J.T @ J + lam * eye
            try:
                delta = np.linalg.solve(H, -g)
            except np.linalg.LinAlgError:
                lam *= cfg.lambda_grow
                continue
            cand = theta + delta
            if np.max(np.abs(cand)) > cfg.coefficient_bound:
                # infeasible instances push minimizing sequences to infinity;
                # the search domain is a compact box so the infimum is attained
                lam *= cfg.lambda_grow
                continue
            rc, Jc = comp.residual_vector_and_jacobian(cand)
            ccost = float(rc @ rc)
            if ccost < cost:
                theta, r, J, cost = cand, rc, Jc, ccost
                lam = max(lam / cfg.lambda_shrink, 1e-14)
                improved = True
                break
            lam *= cfg.lambda_grow
            if lam > 1e14:
                break
        if not improved:
            break
    return theta, cost, iters


def search(problem, cfg=None):
    """Multi-restart damped least-squares descent on the residual.

    Deterministic given (problem, config, seed).  FEASIBLE_FOUND is claimed
    only below the feasibility threshold (and, when the problem demands it,
    with the degree-2 variables bounded away from linear dependence).
    NO_SOLUTION_FOUND is a report, never a proof of infeasibility.
    """
    cfg = cfg or SearchConfig()
    comp = problem.compiled()
    best = None
    total_iters = 0
    restart_residuals = []
    for i in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, i])
        theta0 = rng.uniform(-1.0, 1.0, comp.dim)
        theta, cost, iters = _lm_minimize(problem, theta0, cfg)
        total_iters += iters
        restart_residuals.append(cost)
        if best is None or cost < best[1]:
            best = (theta, cost)
    theta, cost = best
    notes = []
    status = NO_SOLUTION_FOUND
    if cost <= cfg.feasibility_threshold:
        margin = _degree2_min_singular(problem, theta)
        if problem.require_injective_degree2 and margin is not None \
                and margin < cfg.injectivity_margin:
            notes.append(
                f"residual {cost:.3e} is below threshold but the degree-2 "
                f"variables are nearly dependent (sigma_min = {margin:.3e}); "
                "independent classes need independent forms, so this is not "
                "accepted as a witness")
        else:
            status = FEASIBLE_FOUND
    else:
        notes.append("no assignment reached the feasibility threshold; this is "
                     "not a proof of infeasibility")
    return SearchOutcome(
        status=status, best_residual=cost,
        best_assignment={k: mv for k, mv in problem.unpack(theta).items()},
        iterations_used=total_iters, seed=cfg.seed,
        restart_residuals=restart_residuals, notes=notes)


# -- built-in problems --------------------------------------------------------


def problem_from_table(table, label=None, require_injective_degree2=True):
    """Realization problem straight from a normal-form table."""
    pres = table.presentation
    top = pres.top
    if len(table.basis[top]) != 1:
        raise RingError("top graded piece must be one-dimensional")
    (vol,) = table.basis[top]
    return RealizationProblem(
        top, [(g.name, g.degree) for g in pres.gens],
        list(pres.relations), vol,
        require_injective_degree2=require_injective_degree2,
        label=label or pres.name)


def builtin_problem(name, **params):
    pres = builtin_presentation(name, **params)
    table = build_table(pres)
    return problem_from_table(table)

