"""Pointwise realization of cohomology rings by constant-coefficient forms.

A realization problem asks for an assignment of constant-coefficient forms
on R^n satisfying every ring relation identically, with a designated top
monomial equal to the volume form.  That is a necessary condition for
geometric formality whenever harmonic forms have constant coefficients in
some frame, so a certified infeasibility refutes formality; a found witness
refutes nothing but documents realizability.

The numerical side minimizes the squared blade-coefficient residual with a
damped least-squares descent (first-derivative information only, adaptive
damping as the step-size schedule).  Each problem is compiled once into
numpy index arrays, one term per surviving choice of blades, so the residual
is a gather, a row product and a scatter, and needs no Jacobian; the search
scores rejected candidates on the residual alone and builds the Jacobian
only at accepted steps.  All search work is float; exact replays of
candidate witnesses go through the exact exterior kernel.

numpy is imported inside the functions that use it, so importing this
module, and with it the CLI, does not load numpy: only a search, a packing
or a float residual does.  The exact commands never pay for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .errors import ConfigError, GradeError, RingError
from .exterior import MAX_DIM, Multivector, grade_masks, wedge_sign
from .ring import (build_table, builtin_presentation, generators_from_spec,
                   parse_poly)

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
        if self.n > MAX_DIM:
            raise ConfigError(f"n = {self.n} exceeds {MAX_DIM}, the largest exterior "
                              "algebra supported")
        self.variables = tuple(FormVariable(v[0], int(v[1])) if not isinstance(v, FormVariable)
                               else v for v in variables)
        if any(not 0 < v.grade <= self.n for v in self.variables):
            raise ConfigError("variable grades must lie in 1..n")
        self.gens = generators_from_spec((v.name, v.grade) for v in self.variables)
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

    def pack(self, assignment):
        """Flatten {name: Multivector} into one float vector."""
        import numpy as np
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


class _Compiled:
    """Residual vector and Jacobian as numpy gathers over compiled wedge terms.

    A term is one choice of blade per factor of a monomial, with pairwise
    disjoint masks; it adds coef * prod(theta[slots]) to residual row `out`,
    coef being the relation coefficient times the wedge sign.  Terms are
    compiled once, grouped by their number of factors k; the volume row also
    carries the constant term -1.
    """

    def __init__(self, problem):
        import numpy as np
        n = problem.n
        self.offsets = {}
        pos = 0
        for v in problem.variables:
            self.offsets[v.name] = (pos, pos + comb(n, v.grade))
            pos += comb(n, v.grade)
        self.dim = pos
        groups = {0: []}  # k -> [(out, slots, coef)]
        row = 0
        sources = [(rel.terms.items(), rel.degree()) for rel in problem.relations]
        for monos, deg in sources + [([(problem.volume_monomial, 1)], n)]:
            index = {m: row + i for i, m in enumerate(grade_masks(n, deg))}
            for exps, c in monos:
                for mask, sign, slots in self._terms(problem, exps):
                    groups.setdefault(len(slots), []).append(
                        (index[mask], slots, sign * float(c)))
            row += len(index)
        groups[0].append((row - 1, (), -1.0))
        self.residual_len = row
        self._groups, self._holes, outs, jidx = [], [], [], []
        for k, terms in sorted(groups.items()):
            out = np.array([t[0] for t in terms], dtype=np.intp)
            slots = np.array([t[1] for t in terms], dtype=np.intp)  # terms x k
            coef = np.array([t[2] for t in terms])
            outs.append(out)
            self._groups.append((slots, coef))
            if k:  # per slot s, the slots of the other k - 1 factors
                others = np.array([[t for t in range(k) if t != s]
                                   for s in range(k)], dtype=np.intp)
                jidx.append((out[:, None] * pos + slots).ravel())
                self._holes.append((slots[:, others], coef[:, None]))
        self._out = np.concatenate(outs)
        self._jidx = np.concatenate(jidx)

    def _terms(self, problem, exps):
        """(mask, sign, slots) of every surviving term of a monomial, built by
        extending partial terms only with blades disjoint from their mask."""
        partial = [(0, 1, ())]
        for e, v in zip(exps, problem.variables):
            a = self.offsets[v.name][0]
            masks = list(enumerate(grade_masks(problem.n, v.grade)))
            for _ in range(e):
                partial = [(m | mb, s * wedge_sign(m, mb), slots + (a + i,))
                           for m, s, slots in partial
                           for i, mb in masks if not m & mb]
        return partial

    def residual_vector(self, theta):
        import numpy as np
        weights = np.concatenate([coef * theta[slots].prod(axis=1)
                                  for slots, coef in self._groups])
        return np.bincount(self._out, weights, self.residual_len)

    def residual_vector_and_jacobian(self, theta):
        """Residual and Jacobian; entry (out, slot) of a term's Jacobian is
        coef times the product of its other factors."""
        import numpy as np
        weights = np.concatenate([(coef * theta[holes].prod(axis=2)).ravel()
                                  for holes, coef in self._holes])
        J = np.bincount(self._jidx, weights, self.residual_len * self.dim)
        return self.residual_vector(theta), J.reshape(self.residual_len, self.dim)


def residual(problem, assignment):
    """Sum over relations of squared blade-coefficient norms, plus the
    squared volume defect."""
    import numpy as np
    theta = assignment if isinstance(assignment, np.ndarray) else problem.pack(assignment)
    r = problem.compiled().residual_vector(theta)
    return float(r @ r)


# -- search -------------------------------------------------------------------


# Damped least-squares schedule and acceptance thresholds.  They obey what
# the search relies on: both tolerances are positive, the feasibility
# threshold exceeds the convergence tolerance, and the box bound exceeds the
# initial range [-1, 1].
LAMBDA0 = 1e-3          # initial damping of the step-size schedule
LAMBDA_GROW = 5.0
LAMBDA_SHRINK = 3.0
CONVERGENCE_TOLERANCE = 1e-12
FEASIBILITY_THRESHOLD = 1e-8
INJECTIVITY_MARGIN = 1e-4
COEFFICIENT_BOUND = 6.0


@dataclass
class SearchConfig:
    restarts: int = 64
    max_iterations: int = 250
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ConfigError(f"search needs restarts >= 1, got {self.restarts}")
        if self.max_iterations < 1:
            raise ConfigError("search needs max_iterations >= 1, "
                              f"got {self.max_iterations}")


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
    import numpy as np
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
    """Damped least squares; rejected candidates are scored on the residual
    alone, and the Jacobian is rebuilt only at an accepted step."""
    import numpy as np
    comp = problem.compiled()
    r, J = comp.residual_vector_and_jacobian(theta)
    cost = float(r @ r)
    lam = LAMBDA0
    iters = 0
    eye = np.eye(comp.dim)
    for _ in range(cfg.max_iterations):
        iters += 1
        if cost <= CONVERGENCE_TOLERANCE:
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
                lam *= LAMBDA_GROW
                continue
            cand = theta + delta
            if np.max(np.abs(cand)) > COEFFICIENT_BOUND:
                # infeasible instances push minimizing sequences to infinity;
                # the search domain is a compact box so the infimum is attained
                lam *= LAMBDA_GROW
                continue
            rc = comp.residual_vector(cand)
            ccost = float(rc @ rc)
            if ccost < cost:
                theta, cost = cand, ccost
                r, J = comp.residual_vector_and_jacobian(theta)
                lam = max(lam / LAMBDA_SHRINK, 1e-14)
                improved = True
                break
            lam *= LAMBDA_GROW
            if lam > 1e14:
                break
        if not improved:
            break
    return theta, cost, iters


def search(problem, cfg):
    """Multi-restart damped least-squares descent on the residual.

    Deterministic given (problem, config, seed).  FEASIBLE_FOUND is claimed
    only below the feasibility threshold (and, when the problem demands it,
    with the degree-2 variables bounded away from linear dependence).
    NO_SOLUTION_FOUND is a report, never a proof of infeasibility.
    """
    import numpy as np
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
    if cost <= FEASIBILITY_THRESHOLD:
        margin = _degree2_min_singular(problem, theta)
        if problem.require_injective_degree2 and margin is not None \
                and margin < INJECTIVITY_MARGIN:
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


def problem_from_table(table):
    """Realization problem straight from a normal-form table."""
    pres = table.presentation
    vol = table.volume()
    if vol is None:
        raise RingError("top graded piece must be one-dimensional")
    return RealizationProblem(
        pres.top, [(g.name, g.degree) for g in pres.gens],
        list(pres.relations), vol, label=pres.name)


def builtin_problem(name, **params):
    pres = builtin_presentation(name, **params)
    table = build_table(pres)
    return problem_from_table(table)

