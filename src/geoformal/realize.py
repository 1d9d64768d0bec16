"""Pointwise realization of cohomology rings by constant-coefficient forms.

A realization problem asks for an assignment of constant-coefficient forms
on R^n satisfying every ring relation identically, with a designated top
monomial equal to the volume form.  That is a necessary condition for
geometric formality whenever harmonic forms have constant coefficients in
some frame, so a certified infeasibility refutes formality; a found witness
refutes nothing but documents realizability.  A problem reads its variables,
relations and volume through `ring.RingPresentation`, so its text obeys the
grammar of `ring.parse_poly` and its checks, as a ring file's does.

The numerical side minimizes the squared blade-coefficient residual with a
damped least-squares descent (first-derivative information only, adaptive
damping as the step-size schedule).  Each problem is compiled once into
numpy index arrays, one term per surviving choice of blades, so the residual
of a stack of points is a gather, a row product and one scatter with a bin
range per point, and needs no Jacobian; the search scores rejected
candidates on the residual alone and builds the Jacobian only at accepted
steps.  All search work is float and builds no Multivector: the best point
reaches the report as text (`unpack`).  Exact replays of candidate
witnesses go through the exact exterior kernel.

A search's restarts advance in lockstep, SEARCH_BLOCK at a time: one stacked
solve per step serves every live restart, each with its own damping, and a
restart leaves the block when it stops.  Every restart follows, bit for bit,
the trajectory it follows run alone (the tests keep that one-restart loop as
the reference).  LAPACK solves each system of a stack on its own, so that
rests on forming each product the way the one-restart loop does: J^T J as
`matmul` of one array with its own transpose, which numpy sends to BLAS
`syrk` just as it does `J.T @ J` (a transposed copy would go through `gemm`
and move the last bits), and r @ r as a (1, L) @ (L, 1) product per row.

numpy is imported inside the functions that use it, so importing this
module, and with it the CLI, does not load numpy: only a search, a packing
or a float residual does.  The exact commands never pay for it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, perm, prod

from .errors import ConfigError, GradeError, RingError
from .exterior import MAX_DIM, Multivector, form_text, grade_masks, wedge_sign
from .ring import RingPresentation, build_table, builtin_presentation

FEASIBLE_FOUND = "FEASIBLE_FOUND"
NO_SOLUTION_FOUND = "NO_SOLUTION_FOUND"

# The most wedge terms a problem may compile to (see `_Compiled`): the suite's
# problems take under 800, n = 10 with volume x^5 113,400, n = 12 7,484,400.
MAX_COMPILED_TERMS = 1_000_000


class RealizationProblem:
    """Form variables, vanishing relations, and a pinned volume monomial,
    read as the presentation of top degree n whose generators are the
    variables: a variable is a `ring.Generator`, of grade `degree`.

    `require_injective_degree2` demands that the degree-2 variables stay
    linearly independent as forms; harmonic representatives of independent
    classes are independent, so this is part of the necessary condition.
    """

    def __init__(self, n, variables, relations, volume_monomial,
                 require_injective_degree2=True, label=""):
        self.n = int(n)
        if self.n < 1:
            raise ConfigError(f"n = {self.n}: a realization problem needs n >= 1")
        if self.n > MAX_DIM:
            raise ConfigError(f"n = {self.n} exceeds {MAX_DIM}, the largest exterior "
                              "algebra supported")
        if not isinstance(volume_monomial, (str, tuple)):
            raise ConfigError("the volume monomial must be a string such as 'x^2*y', "
                              f"got {volume_monomial!r}")
        pres = RingPresentation(variables, relations, self.n,
                                volume_monomial=volume_monomial, name=label)
        self.variables = pres.gens
        if any(v.degree > self.n for v in self.variables):
            raise ConfigError("variable grades must lie in 1..n")
        self.relations = pres.relations
        self.volume_monomial = tuple(pres.volume_monomial)
        vol_degree = sum(e * v.degree for e, v in zip(self.volume_monomial,
                                                       self.variables))
        if vol_degree != self.n:
            raise ConfigError(f"volume monomial grade {vol_degree} != n = {self.n}")
        monomials = [e for r in self.relations for e in r.terms]
        terms = sum(_term_count(self, e) for e in [self.volume_monomial, *monomials])
        if terms > MAX_COMPILED_TERMS:
            raise ConfigError(f"the problem compiles to {terms:,} wedge terms, more "
                              f"than the {MAX_COMPILED_TERMS:,} a search can hold")
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
            if not mv.is_zero() and mv.homogeneous_grade() != v.degree:
                raise GradeError(f"variable {v.name} expects grade {v.degree}")
            out.extend(float(mv.coeff_mask(m)) for m in grade_masks(self.n, v.degree))
        return np.array(out, dtype=float)

    def unpack(self, vec):
        """{name: report text} of a float vector, each form written as
        `exterior.form_text` writes it: `Multivector(6, 1.0*e12 + -0.5*e34)`,
        or `Multivector(6, 0)` when all its coefficients vanish."""
        out = {}
        pos = 0
        for v in self.variables:
            masks = grade_masks(self.n, v.degree)
            coeffs = vec[pos: pos + len(masks)]
            pos += len(masks)
            out[v.name] = form_text(self.n, ((m, float(c)) for m, c in
                                             zip(masks, coeffs) if c != 0.0))
        return out

    def compiled(self):
        if self._compiled is None:
            self._compiled = _Compiled(self)
        return self._compiled


# -- exact evaluation ---------------------------------------------------------


def evaluate_monomial_exact(problem, exps, assignment):
    acc = Multivector.unit(problem.n)
    for e, v in zip(exps, problem.variables):
        for _ in range(e):
            acc = acc.wedge(assignment[v.name])
    return acc


def relation_values_exact(problem, assignment):
    """Exact multivector value of every relation plus the volume monomial."""
    values = []
    for rel in problem.relations:
        acc = Multivector.zero(problem.n)
        for exps, c in rel.terms.items():
            acc = acc + evaluate_monomial_exact(problem, exps, assignment).scale(c)
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


def _products(thetas, factors):
    """Products of the entries of each point of a (B, dim) stack that the
    index arrays `factors[0], factors[1], ...` pick, shape (B,) +
    factors.shape[1:].  It multiplies one factor at a time, left to right:
    the order in which `prod` reduces a row, bit for bit, without the cost
    `prod` pays per row of a few factors."""
    import numpy as np
    if not len(factors):
        return np.ones((len(thetas),) + factors.shape[1:])
    out = np.take(thetas, factors[0], axis=1)
    for f in factors[1:]:
        out *= np.take(thetas, f, axis=1)
    return out


def _term_count(problem, exps):
    """The number of terms `_Compiled._terms` builds for a monomial, one per
    ordered choice of disjoint blades: n!/((n - D)! prod deg!^e) at degree D."""
    degrees = [v.degree for e, v in zip(exps, problem.variables) for _ in range(e)]
    return perm(problem.n, sum(degrees)) // prod(map(factorial, degrees))


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
            self.offsets[v.name] = (pos, pos + comb(n, v.degree))
            pos += comb(n, v.degree)
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
            # factors first: row j holds the slots of every term's factor j
            self._groups.append((np.ascontiguousarray(slots.T), coef))
            if k:  # per slot s, the slots of the other k - 1 factors
                others = np.array([[t for t in range(k) if t != s]
                                   for s in range(k)], dtype=np.intp)
                jidx.append((out[:, None] * pos + slots).ravel())
                self._holes.append((np.ascontiguousarray(
                    np.moveaxis(slots[:, others], 2, 0)), coef[:, None]))
        self._out = np.concatenate(outs)
        self._jidx = np.concatenate(jidx)
        self._stacked = (self._out[:0], self._jidx[:0])

    def _terms(self, problem, exps):
        """(mask, sign, slots) of every surviving term of a monomial, built by
        extending partial terms only with blades disjoint from their mask."""
        partial = [(0, 1, ())]
        for e, v in zip(exps, problem.variables):
            a = self.offsets[v.name][0]
            masks = list(enumerate(grade_masks(problem.n, v.degree)))
            for _ in range(e):
                partial = [(m | mb, s * wedge_sign(m, mb), slots + (a + i,))
                           for m, s, slots in partial
                           for i, mb in masks if not m & mb]
        return partial

    def _bins(self, count):
        """Residual and Jacobian bin indices of `count` stacked points: point
        b's terms go to bins offset by b times its output size, so points
        never share a bin.  A smaller stack's indices are a prefix of a
        larger one's, so only the largest stack's are kept."""
        if count > len(self._stacked[0]) // len(self._out):
            import numpy as np
            shift = np.arange(count)[:, None]
            size = self.residual_len * self.dim
            self._stacked = ((self._out + shift * self.residual_len).ravel(),
                             (self._jidx + shift * size).ravel())
        out, jidx = self._stacked
        return out[:count * len(self._out)], jidx[:count * len(self._jidx)]

    def residual_vector(self, thetas):
        """Residuals of a (B, dim) stack of points, shape (B, residual_len).
        Each bin sums its terms in the same order at every B, so a point's
        residual does not depend on the stack it is evaluated in."""
        import numpy as np
        count = len(thetas)
        weights = np.concatenate([coef * _products(thetas, factors)
                                  for factors, coef in self._groups], axis=1)
        return np.bincount(self._bins(count)[0], weights.ravel(),
                           count * self.residual_len).reshape(count, self.residual_len)

    def jacobian(self, thetas):
        """Jacobians of a (B, dim) stack of points, shape (B, residual_len,
        dim); entry (out, slot) of a term's Jacobian is coef times the
        product of its other factors."""
        import numpy as np
        count = len(thetas)
        weights = np.concatenate([(coef * _products(thetas, holes)).reshape(count, -1)
                                  for holes, coef in self._holes], axis=1)
        J = np.bincount(self._bins(count)[1], weights.ravel(),
                        count * self.residual_len * self.dim)
        return J.reshape(count, self.residual_len, self.dim)


def residual(problem, assignment):
    """Sum over relations of squared blade-coefficient norms, plus the
    squared volume defect."""
    import numpy as np
    theta = assignment if isinstance(assignment, np.ndarray) else problem.pack(assignment)
    r = problem.compiled().residual_vector(theta[None])[0]
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
# Restarts descend in lockstep blocks of this many, so a search holds at most
# SEARCH_BLOCK Jacobians at a time, whatever its number of restarts.
SEARCH_BLOCK = 32


class SearchConfig:
    def __init__(self, restarts=64, max_iterations=250, seed=0):
        self.restarts = restarts
        self.max_iterations = max_iterations
        self.seed = seed
        if self.restarts < 1:
            raise ConfigError(f"search needs restarts >= 1, got {self.restarts}")
        if self.max_iterations < 1:
            raise ConfigError("search needs max_iterations >= 1, "
                              f"got {self.max_iterations}")


class SearchOutcome:
    def __init__(self, status, best_residual, best_assignment, iterations_used,
                 seed, restart_residuals=None, notes=None):
        self.status = status
        self.best_residual = best_residual
        self.best_assignment = best_assignment  # {name: report text}, see `unpack`
        self.iterations_used = iterations_used
        self.seed = seed
        self.restart_residuals = [] if restart_residuals is None else restart_residuals
        self.notes = [] if notes is None else notes

    @property
    def feasible(self):
        return self.status == FEASIBLE_FOUND


def _degree2_min_singular(problem, theta):
    import numpy as np
    rows = []
    for v in problem.variables:
        if v.degree == 2:
            a, b = problem.compiled().offsets[v.name]
            rows.append(theta[a:b])
    if not rows:
        return None
    sv = np.linalg.svd(np.array(rows), compute_uv=False)
    return float(sv[-1])


def _sum_squares(rs):
    """r @ r of every row, as a (1, L) @ (L, 1) product per row: the
    reduction `r @ r` makes on one vector, so costs match a lone restart's."""
    import numpy as np
    return np.matmul(rs[:, None, :], rs[:, :, None])[:, 0, 0]


def _solve_each(A, rhs):
    """Solve each system on its own; a singular one leaves `solved` False
    and does not stop the others."""
    import numpy as np
    delta = np.zeros(rhs.shape[:2])
    solved = np.ones(len(A), dtype=bool)
    for i in range(len(A)):
        try:
            delta[i] = np.linalg.solve(A[i:i + 1], rhs[i:i + 1])[0, :, 0]
        except np.linalg.LinAlgError:
            solved[i] = False
    return delta, solved


def _lm_block(comp, theta, max_iterations):
    """Damped least squares from every row of `theta`, all rows in lockstep.

    Each row keeps its own damping `lam`, iteration count and count of
    tries since its last accepted step.  A row at the head of an iteration
    stops at `max_iterations`, at a cost below the convergence tolerance or
    at a vanishing gradient; otherwise it forms g = J^T r and J^T J.  Then
    every live row makes one try: one stacked solve of (J^T J + lam I) d =
    -g.  A singular system, a candidate outside the box and a candidate
    that does not lower the cost each grow `lam`; the last ends the row once
    `lam` exceeds 1e14, and 40 tries without an accepted step end it too.
    Candidates are scored on the residual alone; an accepted one keeps the
    residual it was scored with and gets a Jacobian.  Returns the final
    points, costs and iteration counts.
    """
    import numpy as np
    count, dim = theta.shape
    theta = theta.copy()
    r, J = comp.residual_vector(theta), comp.jacobian(theta)
    cost = _sum_squares(r)
    lam = np.full(count, LAMBDA0)
    iters = np.zeros(count, dtype=int)
    tries = np.zeros(count, dtype=int)
    head = np.ones(count, dtype=bool)  # at the top of an iteration
    g = np.empty((count, dim))
    JtJ = np.empty((count, dim, dim))
    ids = np.arange(count)  # the block rows still descending
    final = [theta.copy(), cost.copy(), iters.copy()]
    eye = np.eye(dim)
    while ids.size:
        stop = np.zeros(ids.size, dtype=bool)
        h = np.flatnonzero(head)
        if h.size:
            ended = iters[h] >= max_iterations
            iters[h[~ended]] += 1
            ended |= cost[h] <= CONVERGENCE_TOLERANCE
            stop[h[ended]] = True
            h = h[~ended]
            Jh = J[h]  # one buffer, so J^T J below runs as syrk, as J.T @ J does
            gh = np.matmul(Jh.transpose(0, 2, 1), r[h][:, :, None])[:, :, 0]
            flat = np.max(np.abs(gh), axis=1) < 1e-17
            stop[h[flat]] = True
            h, gh, Jh = h[~flat], gh[~flat], Jh[~flat]
            g[h] = gh
            JtJ[h] = np.matmul(Jh.transpose(0, 2, 1), Jh)
            tries[h] = 0
            head[h] = False
        if not stop.any():  # every live row is inside an iteration: one try each
            A = JtJ + lam[:, None, None] * eye
            rhs = -g[:, :, None]
            try:
                delta = np.linalg.solve(A, rhs)[:, :, 0]
                solved = np.ones(ids.size, dtype=bool)
            except np.linalg.LinAlgError:  # raised for the whole stack
                delta, solved = _solve_each(A, rhs)
            tries += 1
            cand = theta + delta
            e = np.flatnonzero(solved & ~(np.max(np.abs(cand), axis=1) > COEFFICIENT_BOUND))
            accepted = np.zeros(ids.size, dtype=bool)
            worse = e
            if e.size:
                rc = comp.residual_vector(cand[e])
                ccost = _sum_squares(rc)
                better = ccost < cost[e]
                a, worse = e[better], e[~better]
                accepted[a] = True
                if a.size:
                    theta[a] = cand[a]
                    cost[a] = ccost[better]
                    r[a] = rc[better]
                    J[a] = comp.jacobian(theta[a])
                    lam[a] = np.maximum(lam[a] / LAMBDA_SHRINK, 1e-14)
                    head[a] = True
            lam[~accepted] *= LAMBDA_GROW
            stop[worse[lam[worse] > 1e14]] = True
            stop |= ~accepted & (tries >= 40)
        if stop.any():
            done = ids[stop]
            for out, value in zip(final, (theta, cost, iters)):
                out[done] = value[stop]
            keep = ~stop
            ids, theta, r, J, cost, lam, iters, tries, head, g, JtJ = (
                x[keep] for x in (ids, theta, r, J, cost, lam, iters, tries,
                                  head, g, JtJ))
    return final


def _restarts(problem, cfg):
    """(theta, cost, iterations) of every restart, in restart order.  Restart
    i starts from a uniform point drawn by the generator seeded (seed, i);
    blocks of SEARCH_BLOCK restarts descend in lockstep, each restart on the
    trajectory it would follow alone."""
    import numpy as np
    comp = problem.compiled()
    for start in range(0, cfg.restarts, SEARCH_BLOCK):
        theta0 = np.array([np.random.default_rng([cfg.seed, i]).uniform(-1.0, 1.0, comp.dim)
                           for i in range(start, min(start + SEARCH_BLOCK, cfg.restarts))])
        theta, cost, iters = _lm_block(comp, theta0, cfg.max_iterations)
        yield from zip(theta, cost.tolist(), iters.tolist())


def search(problem, cfg):
    """Multi-restart damped least-squares descent on the residual.

    Deterministic given (problem, config, seed).  FEASIBLE_FOUND is claimed
    only below the feasibility threshold (and, when the problem demands it,
    with the degree-2 variables bounded away from linear dependence).
    NO_SOLUTION_FOUND is a report, never a proof of infeasibility.
    """
    best = None
    total_iters = 0
    restart_residuals = []
    for theta, cost, iters in _restarts(problem, cfg):
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
        best_assignment=problem.unpack(theta),
        iterations_used=total_iters, seed=cfg.seed,
        restart_residuals=restart_residuals, notes=notes)


# -- built-in problems --------------------------------------------------------


def problem_from_table(table):
    """Realization problem straight from a normal-form table."""
    pres = table.presentation
    vol = table.volume()
    if vol is None:
        raise RingError("top graded piece must be one-dimensional")
    return RealizationProblem(pres.top, [(g.name, g.degree) for g in pres.gens],
                              pres.relations, vol, label=pres.name)


def builtin_problem(name, **params):
    pres = builtin_presentation(name, **params)
    table = build_table(pres)
    return problem_from_table(table)

