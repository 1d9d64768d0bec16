"""Infeasibility certificates for pointwise realization problems.

A certificate is an ordered list of executable claims, each labelled with
its kind's one mode.  EXACT steps are proved with rational arithmetic and
draw nothing: ring identities, pointwise lemmas on the normal forms of
2-forms, contraction identities on basis tuples.  SAMPLED steps (P5 and P6
of the three-generator family) are replayed on randomized exact instances.
A certificate with any failing or mislabelled step is rejected whole.

Families covered: the rank/kernel contraction argument (u^3 = 0 against
v^2 + c u^2 = 0 with c != 0), the Lefschetz annihilator argument on
six-manifolds, and the three-generator biquotient family with parameters
(a, b).  The (a, b) = (0, 0) member of that family is *not* certifiable:
its relations do not couple the square-zero generator to the others, and
the ring admits an exact pointwise realization, which the emission path
reports with an explicit witness.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement, product

from . import linalg
from .errors import (CertificateUnavailableError, ConfigError,
                     PatternInapplicableError)
from .exterior import (Multivector, _two_form_matrix, evaluate, grade_masks,
                       interior, lefschetz_matrix, two_form_kernel,
                       two_form_rank)
from .ring import (GradedPoly, RingPresentation, _generator_change,
                   build_table, builtin_presentation, generators_from_spec,
                   generators_to_spec, parse_poly, pattern_match,
                   poly_to_string)

EXACT = "EXACT"
SAMPLED = "SAMPLED"

INFEASIBLE = "INFEASIBLE"
ACCEPTED = "ACCEPTED"
REJECTED = "REJECTED"


@dataclass
class CertStep:
    sid: str
    kind: str
    mode: str
    statement: str
    payload: dict = field(default_factory=dict)
    uses: tuple = ()


@dataclass
class Certificate:
    """`ring` is the spec (`RingPresentation.spec()`) of the one ring every
    ring-reduce step is replayed in."""

    pattern: str
    params: dict
    verdict: str
    steps: list
    ring: dict
    problem_label: str = ""
    notes: list = field(default_factory=list)

    def step(self, sid):
        for s in self.steps:
            if s.sid == sid:
                return s
        raise KeyError(sid)


@dataclass
class StepResult:
    sid: str
    kind: str
    mode: str
    passed: bool
    detail: str = ""


@dataclass
class VerificationReport:
    status: str
    trials: int
    seed: int
    results: list = field(default_factory=list)

    @property
    def accepted(self):
        return self.status == ACCEPTED

    def failures(self):
        return [r for r in self.results if not r.passed]


# -- sampling helpers (exact, deterministic) ----------------------------------


def _random_invertible(rng, n):
    while True:
        m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if linalg.int_det(m) != 0:
            return m


def _normal_two_form(n, rank):
    """sum_{t < rank/2} e_{2t} ^ e_{2t+1}."""
    return Multivector(n, {3 << 2 * t: 1 for t in range(rank // 2)})


def _sample_two_form_of_rank(rng, n, rank):
    """Congruence P^T A P of the rank-r normal skew matrix by a random
    invertible integer frame change (the pullback of the normal form).

    A is sum_t e_{2t} ^ e_{2t+1}, so (P^T A P)_ij reads two rows of P per
    term of A."""
    p = _random_invertible(rng, n)
    pairs = [(p[2 * t], p[2 * t + 1]) for t in range(rank // 2)]
    terms = {}
    for i in range(n):
        for j in range(i + 1, n):
            c = sum(x[i] * y[j] - y[i] * x[j] for x, y in pairs)
            if c:
                terms[(1 << i) | (1 << j)] = c
    return Multivector(n, terms)


def _random_vector(rng, n):
    while True:
        v = [rng.randint(-3, 3) for _ in range(n)]
        if any(v):
            return v


def _kernel_vector(form, rng):
    """A random integer vector in ker(form), primitive on its line."""
    basis = two_form_kernel(form)
    if not basis:
        return None
    coeffs = [rng.randint(-2, 2) for _ in basis]
    if not any(coeffs):
        coeffs[rng.randrange(len(basis))] = 1
    n = form.n
    return linalg.primitive_vector(
        [sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(n)])


# -- step verifiers ------------------------------------------------------------


def _verify_ring_reduce(step, table):
    p = step.payload
    got = {table.monomial_name(m): str(c)
           for m, c in sorted(table.reduce(p["poly"]).items())}
    if "expect" in p:
        if got != p["expect"]:
            return False, f"normal form {got} != expected {p['expect']}"
        return True, f"normal form matches {p['expect'] or '0'}"
    if p.get("expect_zero"):
        if got:
            return False, f"expected zero, reduced to {got}"
        return True, "reduces to zero in the quotient"
    if p.get("expect_nonzero"):
        if not got:
            return False, "expected a nonzero class, reduced to zero"
        return True, f"nonzero class {got}"
    return False, "malformed ring-reduce payload"


def _verify_poly_identity(step):
    p = step.payload
    gens = generators_from_spec(p["generators"])
    acc = GradedPoly.zero(gens)
    for coeff, poly_str in p["combination"]:
        acc = acc + parse_poly(poly_str, gens).scale(Fraction(coeff))
    target = parse_poly(p["equals"], gens)
    if acc == target:
        return True, "polynomial combination matches exactly"
    return False, f"combination gives {acc}, expected {target}"


def _verify_substitution_identity(step):
    p = step.payload
    gens_old = generators_from_spec(p["generators_old"])
    gens_new = generators_from_spec(p["generators_new"])
    images = {name: parse_poly(s, gens_new) for name, s in p["images"].items()}
    got = parse_poly(p["poly"], gens_old).map_generators(gens_new, images)
    target = parse_poly(p["equals"], gens_new)
    if got == target:
        return True, "substitution expands exactly as claimed"
    return False, f"substitution gives {got}, expected {target}"


def _verify_quadratic_no_real_roots(step):
    p = step.payload
    a, b, c = (Fraction(p["a"]), Fraction(p["b"]), Fraction(p["c"]))
    disc = b * b - 4 * a * c
    if a == 0 or disc >= 0:
        return False, f"discriminant {disc} is not negative"
    detail = f"discriminant {disc} < 0, so no real zeros"
    if "instance" in p:
        t = Fraction(p["instance"])
        val = a * t * t + b * t + c
        if val == 0:
            return False, "claimed nonzero value vanishes at the instance"
        detail += f"; value at {t} is {val}"
    return True, detail


def _verify_rank_from_cube(step):
    n = step.payload["n"]
    for r in range(0, n + 1, 2):
        w = _normal_two_form(n, r)
        cube = w.wedge(w).wedge(w)
        if (r <= 4) != cube.is_zero():
            return False, f"normal form of rank {r}: cube-zero mismatch"
        if two_form_rank(w) != r or len(two_form_kernel(w)) != n - r:
            return False, f"normal form of rank {r}: rank/kernel mismatch"
    return True, "on every rank normal form: rank <= 4 iff cube vanishes; "\
                 "kernel dimension = n - rank"


def _verify_rank_from_square(step):
    n = step.payload["n"]
    for r in range(0, n + 1, 2):
        w = _normal_two_form(n, r)
        if (r <= 2) != w.wedge(w).is_zero():
            return False, f"normal form of rank {r}: square-zero mismatch"
    return True, "on every rank normal form: rank <= 2 iff square vanishes; "\
                 "square-zero 2-forms have kernel dimension >= n - 2"


def _lattice(blades, d):
    """The 2-forms sum_k c_k b_k with every c_k >= 0 and |c| = d."""
    return ((sum(t[1:], t[0]),) for t in combinations_with_replacement(blades, d))


# identity -> (lhs - rhs at v and the 2-forms, the 2-form arguments checked)
_CONTRACTIONS = {
    "interior-of-square": (
        lambda v, a: interior(v, a.wedge(a)) - interior(v, a).wedge(a).scale(2),
        lambda blades: _lattice(blades, 2)),
    "interior-of-cube": (
        lambda v, a: (interior(v, a.wedge(a).wedge(a))
                      - interior(v, a).wedge(a).wedge(a).scale(3)),
        lambda blades: _lattice(blades, 3)),
    "interior-of-product": (
        lambda v, a, b: (interior(v, a.wedge(b)) - interior(v, a).wedge(b)
                         - a.wedge(interior(v, b))),
        lambda blades: product(blades, repeat=2)),
    "interior-of-triple": (
        lambda v, a, b, c: (interior(v, a.wedge(b).wedge(c))
                            - interior(v, a).wedge(b).wedge(c)
                            - a.wedge(interior(v, b)).wedge(c)
                            - a.wedge(b).wedge(interior(v, c))),
        lambda blades: combinations_with_replacement(blades, 3)),
}


def _verify_contraction_identity(step):
    """A finite exact check that proves the identity for all real arguments.

    Both sides are linear in v (checked at v = e_i).  Product and triple
    are multilinear in the 2-forms (checked on 2-blades); triple is
    symmetric in (a, b, c) once 2-forms commute with 1- and 2-forms, which
    is checked first, so it runs over multisets of blades.  Square and cube
    are homogeneous of degree d in a, so they vanish once they vanish on the
    lattice {sum_k c_k b_k : c_k >= 0, |c| = d} over the 2-blades b_k."""
    name = step.payload["identity"]
    n = step.payload.get("n", 6)
    if name not in _CONTRACTIONS:
        return False, f"unknown identity {name!r}"
    defect, arguments = _CONTRACTIONS[name]
    blades = [Multivector(n, {m: 1}) for m in grade_masks(n, 2)]
    if name == "interior-of-triple":
        vectors = [Multivector(n, {1 << i: 1}) for i in range(n)]
        if any(a.wedge(x) != x.wedge(a) for a in blades for x in vectors + blades):
            return False, "2-forms do not commute with 1- and 2-forms"
    basis = [[int(i == j) for j in range(n)] for i in range(n)]
    checked = 0
    for forms in arguments(blades):
        for v in basis:
            if not defect(v, *forms).is_zero():
                return False, f"identity {name} fails at v = e{v.index(1) + 1}"
            checked += 1
    return True, f"antiderivation identity {name} holds on all {checked} "\
                 "basis cases, hence for all arguments"


def _verify_volume_contraction(step):
    """i_v(vol) = sum_i v_i i_{e_i}(vol) is linear in v, so when the n images
    i_{e_i}(vol) are nonzero single blades on distinct masks it vanishes
    only at v = 0."""
    n = step.payload["n"]
    vol = Multivector.volume(n)
    masks = set()
    for i in range(n):
        image = interior([int(t == i) for t in range(n)], vol).terms_dict()
        if not image:
            return False, f"i_e{i+1}(vol) vanished"
        if len(image) != 1 or image.keys() & masks:
            return False, f"i_e{i+1}(vol) is not a blade apart from the others"
        masks |= image.keys()
    return True, "the volume form is nondegenerate: i_v(vol) != 0 for v != 0"


def _verify_lefschetz_nondegenerate(step):
    n = step.payload["n"]
    for r in range(0, n + 1, 2):
        matrix = lefschetz_matrix(_normal_two_form(n, r))
        if (linalg.int_det(matrix) != 0) != (r == n):
            return False, f"normal form of rank {r}: Lefschetz invertibility "\
                          "does not match nondegeneracy"
    return True, "wedge with a 2-form is injective on 2-forms exactly when "\
                 "its normal form is nondegenerate"


def _verify_kernel_transversality(step, rng, trials):
    """If ker(A) and ker(B) meet only at 0 (A of rank 2, B of rank 4), then
    ker(B) is not inside R*u1 + ker(A) for any u1 outside ker(A)."""
    n = step.payload["n"]
    done = 0
    attempts = 0
    while done < trials and attempts < 60 * trials:
        attempts += 1
        A = _sample_two_form_of_rank(rng, n, 2)
        B = _sample_two_form_of_rank(rng, n, 4)
        kerA = two_form_kernel(A)
        kerB = two_form_kernel(B)
        inter, _ = linalg.kernel(_two_form_matrix(A) + _two_form_matrix(B), n)
        if inter:
            continue  # hypothesis ker A cap ker B = 0 not met; resample
        u1 = _random_vector(rng, n)
        if linalg.solve_in_span(kerA, u1) is not None:
            continue  # u1 must avoid ker(A)
        span = [u1] + kerA
        found = any(linalg.solve_in_span(span, kb) is None for kb in kerB)
        if not found:
            return False, "no admissible u2 despite transversal kernels"
        done += 1
    if done < trials:
        return False, "sampling failed to generate enough admissible instances"
    return True, f"admissible u2 exists in all {done} sampled instances"


def _verify_cascade_contraction(step, rng, trials):
    """Replay the three-stage contraction of T = alpha*x1y1 + beta*y1y2 +
    gamma*y1^2 + delta*y2^2 on random exact instances with constructed
    kernel vectors.

    Every expansion checked is linear in (alpha, beta, gamma, delta), in u1,
    in u2 and in w, so each is replayed on their primitive integer multiples:
    the arithmetic stays in integers and each equality holds exactly when it
    holds for the given values."""
    p = step.payload
    n = p["n"]
    alpha, beta, gamma, delta = linalg.primitive_vector(
        [Fraction(p[name]) for name in ("alpha", "beta", "gamma", "delta")])
    done = 0
    attempts = 0
    while done < trials and attempts < 60 * trials:
        attempts += 1
        x1 = _sample_two_form_of_rank(rng, n, 2)
        y1 = _sample_two_form_of_rank(rng, n, 4)
        y2 = _sample_two_form_of_rank(rng, n, 4)
        u1 = _kernel_vector(y1, rng)
        u2 = _kernel_vector(y2, rng)
        if u1 is None or u2 is None or not any(u1) or not any(u2):
            continue
        T = (x1.wedge(y1).scale(alpha) + y1.wedge(y2).scale(beta)
             + y1.wedge(y1).scale(gamma) + y2.wedge(y2).scale(delta))
        lam = interior(u1, x1)
        mu = interior(u1, y2)
        step1 = interior(u1, T)
        expect1 = lam.wedge(y1).scale(alpha) + y1.wedge(mu).scale(beta) \
            + mu.wedge(y2).scale(2 * delta)
        if step1 != expect1:
            return False, "first contraction expansion fails"
        nu = interior(u2, y1)
        x1u1u2 = evaluate(x1, [u1, u2])
        step2 = interior(u2, step1)
        expect2 = (y1.scale(alpha * x1u1u2) - lam.wedge(nu).scale(alpha)
                   + nu.wedge(mu).scale(beta))
        if step2 != expect2:
            return False, "second contraction expansion fails"
        # w in ker(x1) with nu(w) = mu(w) = 0; dimension count gives >= 2
        rows = _two_form_matrix(x1) + [
            [nu.coeff_mask(1 << i) for i in range(n)],
            [mu.coeff_mask(1 << i) for i in range(n)]]
        wspace, _ = linalg.kernel(rows, n)
        if len(wspace) < 2:
            return False, "kernel dimension count 4 + 4 - 6 >= 2 failed"
        w = linalg.primitive_vector(wspace[0])
        step3 = interior(w, step2)
        expect3 = interior(w, y1).scale(alpha * x1u1u2)
        if step3 != expect3:
            return False, "third contraction expansion fails"
        done += 1
    if done < trials:
        return False, "sampling failed to generate enough instances"
    return True, f"contraction cascade verified on {done} exact instances"


def _verify_symbolic_evaluation(step):
    """Formal expansion of a wedge of three 2-forms on six slot labels.

    Every perfect matching term must contain a factor declared zero, in
    every branch."""
    p = step.payload
    forms = p["forms"]
    slots = p["slots"]
    zeros = {(f, frozenset(pair)) for f, *pair in p["zero_pairs"]}
    branches = p["branches"]
    matchings = _pair_matchings(list(range(6)))
    for branch in branches:
        bzeros = zeros | {(f, frozenset(pair)) for f, *pair in branch}
        for matching in matchings:
            if not any((forms[t], frozenset({slots[i], slots[j]})) in bzeros
                       for t, (i, j) in enumerate(matching)):
                named = [(forms[t], slots[i], slots[j])
                         for t, (i, j) in enumerate(matching)]
                return False, f"matching {named} has no vanishing factor"
    return True, (f"all {len(matchings)} matching terms vanish in each of "
                  f"{len(branches)} branches")


def _pair_matchings(items):
    if not items:
        return [[]]
    out = []
    first = items[0]
    for i in range(1, len(items)):
        rest = items[1:i] + items[i + 1:]
        for sub in _pair_matchings(rest):
            out.append([(first, items[i])] + sub)
    return out


def _verify_chain(step, passed_sids):
    missing = [sid for sid in step.uses if sid not in passed_sids]
    if missing:
        return False, f"premises {missing} missing or failed"
    return True, "all premises verified; contradiction assembled"


# Each verifier takes the step first: an EXACT one proves its claim from the
# step alone (ring-reduce also takes the table), a SAMPLED one takes
# (step, rng, trials).
_VERIFIERS = {
    "ring-reduce": _verify_ring_reduce,
    "poly-identity": _verify_poly_identity,
    "substitution-identity": _verify_substitution_identity,
    "quadratic-no-real-roots": _verify_quadratic_no_real_roots,
    "rank-from-cube": _verify_rank_from_cube,
    "rank-from-square": _verify_rank_from_square,
    "contraction-identity": _verify_contraction_identity,
    "volume-contraction": _verify_volume_contraction,
    "lefschetz-nondegenerate": _verify_lefschetz_nondegenerate,
    "kernel-transversality": _verify_kernel_transversality,
    "cascade-contraction": _verify_cascade_contraction,
    "symbolic-evaluation": _verify_symbolic_evaluation,
}

# The mode of each kind, fixed by how its verifier checks it; a step's own
# `mode` field must agree and is never read for anything else.
_MODES = dict.fromkeys(list(_VERIFIERS) + ["chain"], EXACT)
_MODES.update({"kernel-transversality": SAMPLED, "cascade-contraction": SAMPLED})


# (verifier, kind, canonical payload), plus (trials, rng seed string) for a
# SAMPLED kind -> (ok, detail).  A step's replay is a function of exactly
# these, so a hit returns what a fresh replay would; the verifier object in
# the key keeps a replaced or wrapped verifier from being answered by another
# one's result.  Ring-reduce steps also depend on the ring, so they stay out.
_STEP_MEMO = {}


def _replay(fn, step, trials, seed_str):
    sampled = _MODES[step.kind] == SAMPLED
    try:
        payload = json.dumps(step.payload, sort_keys=True)
        # a payload that does not load back equal (tuples, int keys, NaN)
        # could share its text with a different one: replay it unmemoized
        key = ((fn, step.kind, payload) + ((trials, seed_str) if sampled else ())
               if json.loads(payload) == step.payload else None)
    except (TypeError, ValueError):
        key = None
    if key in _STEP_MEMO:
        return _STEP_MEMO[key]
    try:
        ok, detail = (fn(step, random.Random(seed_str), trials) if sampled
                      else fn(step))
    except Exception as exc:  # replay errors reject the step, never memoized
        return False, f"replay error: {exc}"
    if key is not None:
        _STEP_MEMO[key] = (ok, detail)
    return ok, detail


def verify_certificate(cert, trials=1000, seed=0):
    """Replay every step of a certificate; any failure rejects it whole.

    A step labelled with a mode other than its kind's is rejected.  EXACT
    steps are proved from their payloads, draw nothing and ignore `trials`
    and `seed`; SAMPLED steps run `trials` random exact instances each,
    seeded by `seed`, the step index and its id.  Each claim is replayed
    once per process (see `_STEP_MEMO`), so the emission self-check proves
    every EXACT claim for all later verifications.  Ring-reduce steps are
    replayed against one table, rebuilt from `cert.ring` at the first of
    them; chain steps are always replayed, since they read which premises
    passed.
    """
    if trials < 1:
        raise ConfigError(f"verification needs at least one trial, got {trials}")
    results = []
    passed_sids = set()
    table = None
    for idx, step in enumerate(cert.steps):
        mode = _MODES.get(step.kind)
        if mode is None:
            ok, detail = False, f"unknown step kind {step.kind!r}"
        elif step.mode != mode:
            ok, detail = False, (f"labelled {step.mode}, but {step.kind} "
                                 f"steps are {mode}")
        elif step.kind == "chain":
            ok, detail = _verify_chain(step, passed_sids)
        elif step.kind == "ring-reduce":
            try:
                if table is None:
                    table = build_table(RingPresentation.from_spec(cert.ring))
                ok, detail = _VERIFIERS[step.kind](step, table)
            except Exception as exc:  # replay errors reject the step
                ok, detail = False, f"replay error: {exc}"
        else:
            # string seeds hash stably across processes (unlike tuples)
            ok, detail = _replay(_VERIFIERS[step.kind], step, trials,
                                 f"{seed}:{idx}:{step.sid}")
        results.append(StepResult(step.sid, step.kind, step.mode, ok, detail))
        if ok:
            passed_sids.add(step.sid)
    status = ACCEPTED if all(r.passed for r in results) else REJECTED
    return VerificationReport(status=status, trials=trials, seed=seed,
                              results=results)


def _self_check(cert, trials=8):
    report = verify_certificate(cert, trials=trials, seed=20250810)
    if not report.accepted:
        bad = report.failures()[0]
        raise CertificateUnavailableError(
            f"certificate step {bad.sid} ({bad.kind}) failed during emission: "
            f"{bad.detail}", failed_step=bad.sid)
    return cert


# The lemma that makes the normal-form checks of the rank and Lefschetz steps
# proofs for every 2-form.
_NORMAL_FORM_LEMMA = (
    "exact on the normal forms: every real 2-form is congruent to a normal "
    "form sum_{t<r/2} e_{2t}^e_{2t+1}, and a frame change acts on the exterior "
    "algebra as an automorphism, which preserves rank, kernel dimension, "
    "vanishing of powers and Lefschetz invertibility")


# -- rank/kernel family --------------------------------------------------------


def rank_kernel_certificate(table, u_str, v_str, c, label=""):
    """u^3 = 0 forces a kernel direction; contracting v^2 + c u^2 = 0 along it
    kills i_w v ^ v, hence i_w(v^3) = 0, against v^3 being a volume form."""
    c = Fraction(c)
    if c == 0:
        raise PatternInapplicableError(
            "c = 0 is the trivial-bundle case, which is realizable; "
            "the rank/kernel certificate needs c != 0")
    pres = table.presentation
    gens = pres.gens
    u = parse_poly(u_str, gens)
    v = parse_poly(v_str, gens)
    vol_mono = table.basis[pres.top][0]
    vvv = v * v * v
    mu_map = table.reduce(vvv)
    if set(mu_map.keys()) != {vol_mono}:
        raise CertificateUnavailableError("v^3 is not a multiple of the volume")
    mu = mu_map[vol_mono]
    if mu == 0:
        raise CertificateUnavailableError("v^3 vanishes in the ring")
    relation = v * v + (u * u).scale(c)

    steps = [
        CertStep("R1", "ring-reduce", EXACT,
                 f"in the ring, ({u_str})^3 = 0",
                 {"poly": poly_to_string(u * u * u),
                  "expect_zero": True}),
        CertStep("R2", "ring-reduce", EXACT,
                 f"in the ring, ({v_str})^2 + ({c})*({u_str})^2 = 0, so the "
                 "identity holds pointwise for any realization",
                 {"poly": poly_to_string(relation),
                  "expect_zero": True}),
        CertStep("R3", "ring-reduce", EXACT,
                 f"({v_str})^3 = {mu} * volume, a nonzero multiple; pointwise "
                 f"({v_str})^3 = {mu} * vol since the volume monomial is pinned",
                 {"poly": poly_to_string(vvv),
                  "expect": {table.monomial_name(vol_mono): str(mu)}}),
        CertStep("P1", "rank-from-cube", EXACT,
                 "a 2-form on R^6 with vanishing cube has rank at most 4, "
                 f"hence a kernel vector w != 0 exists; {_NORMAL_FORM_LEMMA}",
                 {"n": 6}),
        CertStep("P2", "contraction-identity", EXACT,
                 "i_w(v^2 + c u^2) = 2 (i_w v)^v + 2c (i_w u)^u; with "
                 "i_w u = 0 and the relation, (i_w v)^v = 0",
                 {"identity": "interior-of-square", "n": 6}),
        CertStep("P3", "contraction-identity", EXACT,
                 "i_w(v^3) = 3 (i_w v)^v^v, which vanishes once (i_w v)^v = 0",
                 {"identity": "interior-of-cube", "n": 6}),
        CertStep("P4", "volume-contraction", EXACT,
                 "i_w(vol) != 0 for every w != 0",
                 {"n": 6}),
        CertStep("C", "chain", EXACT,
                 f"pointwise: u^3 = 0 gives w != 0 with i_w u = 0 (P1); the "
                 f"relation (R2) contracts to (i_w v)^v = 0 (P2); then "
                 f"i_w(v^3) = 0 (P3); but v^3 = {mu} * vol (R3) and "
                 f"i_w(vol) != 0 (P4): contradiction",
                 {}, uses=("R1", "R2", "R3", "P1", "P2", "P3", "P4")),
    ]
    cert = Certificate(
        pattern="RANK_KERNEL", params={"c": str(c), "u": u_str, "v": v_str},
        verdict=INFEASIBLE, steps=steps, ring=pres.spec(),
        problem_label=label or pres.name)
    cert.notes.append(
        "INFEASIBLE means: no constant-coefficient forms on R^6 satisfy these "
        "relations with the pinned volume; geometric formality with invariant "
        "harmonic forms would require such a realization")
    return _self_check(cert)


def certify_rank_kernel(c):
    """Certificate for the projectivized-bundle ring y^2 + c x^2 = 0, x^3 = 0."""
    c = Fraction(c)
    if c == 0:
        raise PatternInapplicableError(
            "PATTERN_INAPPLICABLE: c = 0 is the trivial bundle, which is "
            "realizable (and geometrically formal)")
    table = build_table(builtin_presentation("sphere-bundle", c=c))
    return rank_kernel_certificate(table, "x", "y", c)


# -- Lefschetz family ----------------------------------------------------------


def lefschetz_certificate(table, omega_str, annih_str, label=""):
    pres = table.presentation
    gens = pres.gens
    omega = parse_poly(omega_str, gens)
    s = parse_poly(annih_str, gens)
    vol_mono = table.basis[pres.top][0]
    cube = table.reduce(omega * omega * omega)
    if set(cube.keys()) != {vol_mono} or cube[vol_mono] == 0:
        raise CertificateUnavailableError("omega^3 is not a volume multiple")
    mu = cube[vol_mono]

    steps = [
        CertStep("R1", "ring-reduce", EXACT,
                 f"({omega_str})^3 = {mu} * volume != 0, so any realization "
                 "makes omega nondegenerate at the point",
                 {"poly": poly_to_string(omega * omega * omega),
                  "expect": {table.monomial_name(vol_mono): str(mu)}}),
        CertStep("R2", "ring-reduce", EXACT,
                 f"({annih_str}) * ({omega_str}) = 0 in the ring, hence "
                 "pointwise",
                 {"poly": poly_to_string(s * omega),
                  "expect_zero": True}),
        CertStep("R3", "ring-reduce", EXACT,
                 f"({annih_str}) != 0 in degree-2 cohomology: independent "
                 "classes have independent (hence nonzero) harmonic forms",
                 {"poly": poly_to_string(s),
                  "expect_nonzero": True}),
        CertStep("P1", "rank-from-cube", EXACT,
                 "omega^3 != 0 pointwise forces rank 6: omega is symplectic "
                 f"at the point; {_NORMAL_FORM_LEMMA}",
                 {"n": 6}),
        CertStep("P2", "lefschetz-nondegenerate", EXACT,
                 "for symplectic omega on R^6, a -> a ^ omega is injective "
                 f"from 2-forms to 4-forms; {_NORMAL_FORM_LEMMA}",
                 {"n": 6}),
        CertStep("C", "chain", EXACT,
                 "pointwise: (annihilator) ^ omega = 0 (R2) with omega "
                 "symplectic (R1, P1) forces annihilator = 0 as a form (P2), "
                 "contradicting its nonvanishing as a class (R3)",
                 {}, uses=("R1", "R2", "R3", "P1", "P2")),
    ]
    cert = Certificate(
        pattern="LEFSCHETZ",
        params={"omega": omega_str, "annihilator": annih_str},
        verdict=INFEASIBLE, steps=steps, ring=pres.spec(),
        problem_label=label or pres.name)
    return _self_check(cert)


def certify_lefschetz():
    """Certificate for the biquotient ring x^2 = y^2, x^3 = y^3."""
    table = build_table(builtin_presentation("eschenburg-ex2"))
    tag = pattern_match(table)
    if tag.kind != "LEFSCHETZ":
        raise PatternInapplicableError("ring does not match the LEFSCHETZ shape")
    omega = "x + y"
    annih = "x - y"
    return lefschetz_certificate(table, omega, annih)


# -- three-generator biquotient family ----------------------------------------


_TOTARO_WITNESS = {
    "x1": "-1/4 e5^e6",
    "x2": "2 e3^e4 - 2 e1^e4 - e2^e3",
    "x3": "2 e1^e2 - 2 e3^e4 + 4 e1^e4 + 2 e2^e3",
}


def certify_totaro(a, b):
    """Certificate for the three-generator family with parameters (a, b).

    Dispatches on the vanishing pattern of (a, b); (0, 0) admits an exact
    pointwise realization, so emission fails honestly with the witness.
    """
    a, b = Fraction(a), Fraction(b)
    if a != 0:
        bp = b / a
        case = 1 if b != 0 else 3
    elif b != 0:
        bp = Fraction(1)
        case = 2
    else:
        bp = Fraction(0)
        case = 4

    pres0 = builtin_presentation("totaro", a=a, b=b)
    pres = builtin_presentation("totaro",
                                a=(1 if a != 0 else 0),
                                b=(bp if case in (1, 2) else 0))
    table = build_table(pres)
    gens = pres.gens
    vol_mono = table.basis[6][0]

    if case == 1:
        y1_str, y2_str = f"x1 + {3 / bp}*x2", "x1 + 3/2*x3"
    elif case == 2:
        y1_str, y2_str = "x1 + 3*x2", "x3"
    elif case == 3:
        y1_str, y2_str = "x2", "x1 + 3/2*x3"
    else:
        y1_str, y2_str = "x2 + x3", "x2 + 1/2*x3"

    y1 = parse_poly(y1_str, gens)
    y2 = parse_poly(y2_str, gens)

    steps = []

    # rescaling x1 -> x1/t carries totaro(a, b) to the normalized member:
    # t = a for cases 1 and 3, t = b for case 2
    t_norm = a if a != 0 else b
    if t_norm not in (0, 1):
        images = {"x1": f"{Fraction(1, 1) / t_norm}*x1", "x2": "x2", "x3": "x3"}
        label_new = f"(1,{bp})" if a != 0 else "(0,1)"
        for i, (rel_old, rel_new) in enumerate(zip(pres0.relations,
                                                   pres.relations)):
            factor = _rescale_factor(rel_old, images, gens, rel_new)
            steps.append(CertStep(
                f"N{i+1}", "substitution-identity", EXACT,
                f"x1 -> x1/{t_norm} carries relation {i+1} of the ({a},{b}) "
                f"ring to {factor} times relation {i+1} of the {label_new} ring",
                {"generators_old": generators_to_spec(pres0.gens),
                 "generators_new": generators_to_spec(gens),
                 "images": images,
                 "poly": poly_to_string(rel_old),
                 "equals": poly_to_string(rel_new.scale(factor))}))

    # ring identities for the chosen combinations
    lam1 = _volume_multiple(table, parse_poly("x1", gens) * y1 * y1, vol_mono)
    lam2 = _volume_multiple(table, parse_poly("x1", gens) * y2 * y2, vol_mono)
    if lam1 is None or lam1 == 0 or lam2 is None or lam2 == 0:
        raise CertificateUnavailableError(
            "x1*y1^2 or x1*y2^2 is not a nonzero volume multiple; the "
            "contraction argument cannot start", failed_step="T2",
            witness=_TOTARO_WITNESS if case == 4 else None)

    steps.append(CertStep(
        "T1", "ring-reduce", EXACT,
        f"({y1_str})^3 = 0 in the ring",
        {"poly": poly_to_string(y1 * y1 * y1),
         "expect_zero": True}))
    steps.append(CertStep(
        "T1b", "ring-reduce", EXACT,
        f"({y2_str})^3 = 0 in the ring",
        {"poly": poly_to_string(y2 * y2 * y2),
         "expect_zero": True}))
    steps.append(CertStep(
        "T2", "ring-reduce", EXACT,
        f"x1*({y1_str})^2 = {lam1} * volume != 0",
        {"poly": poly_to_string(parse_poly("x1", gens) * y1 * y1),
         "expect": {table.monomial_name(vol_mono): str(lam1)}}))
    steps.append(CertStep(
        "T2b", "ring-reduce", EXACT,
        f"x1*({y2_str})^2 = {lam2} * volume != 0",
        {"poly": poly_to_string(parse_poly("x1", gens) * y2 * y2),
         "expect": {table.monomial_name(vol_mono): str(lam2)}}))

    # rewrite the two non-square relations in (x1, y1, y2)
    D2, D3, sub_steps = _rewritten_relations(pres, y1_str, y2_str)
    steps.extend(sub_steps)

    # eliminate the x1*y2 monomial with a combination having alpha != 0
    comb = _eliminating_combination(D2, D3)
    if comb is None:
        raise CertificateUnavailableError(
            "the rewritten relations do not couple x1 to y1: no combination "
            "with a nonzero x1*y1 coefficient exists (this happens exactly "
            "when a = b = 0, where the ring is realizable; witness attached)",
            failed_step="T5",
            witness=_TOTARO_WITNESS if case == 4 else None)
    k2, k3, T, alpha, beta, gamma, delta = comb
    new_gens = D2.gens
    steps.append(CertStep(
        "T5", "poly-identity", EXACT,
        f"({k2})*D2 + ({k3})*D3 = T with T = ({alpha})*x1*y1 + ({beta})*y1*y2 "
        f"+ ({gamma})*y1^2 + ({delta})*y2^2 (no x1*y2 term); T vanishes "
        "pointwise along with the relations",
        {"generators": generators_to_spec(new_gens),
         "combination": [[str(k2), poly_to_string(D2)],
                         [str(k3), poly_to_string(D3)]],
         "equals": poly_to_string(T)}))
    if case == 1:
        steps.append(CertStep(
            "T6", "quadratic-no-real-roots", EXACT,
            "alpha = 5b - 2b^2 - 4 = -(2b^2 - 5b + 4) and 2b^2 - 5b + 4 has "
            "discriminant 25 - 32 = -7 < 0, so alpha != 0 for every real b; "
            f"at b = {bp} it equals {alpha}",
            {"a": "2", "b": "-5", "c": "4", "instance": str(bp)}))
    steps.append(CertStep(
        "P1", "rank-from-square", EXACT,
        "x1^2 = 0 with x1*y1^2 a volume form gives rank(x1) = 2 and "
        f"dim Ker(x1) = 4; {_NORMAL_FORM_LEMMA}",
        {"n": 6}))
    steps.append(CertStep(
        "P2", "rank-from-cube", EXACT,
        "y1^3 = y2^3 = 0 with x1*y1^2, x1*y2^2 volume forms give "
        "rank(y1) = rank(y2) = 4 and 2-dimensional kernels; "
        f"{_NORMAL_FORM_LEMMA}",
        {"n": 6}))
    steps.append(CertStep(
        "P3", "contraction-identity", EXACT,
        "for u1 in Ker(y1): i_u1(x1 y1^2) = (i_u1 x1) ^ y1^2, which must be "
        f"{lam1} * i_u1(vol) != 0, so u1 is outside Ker(x1)",
        {"identity": "interior-of-triple", "n": 6}))
    steps.append(CertStep(
        "P4", "volume-contraction", EXACT,
        "i_v(vol) != 0 for v != 0 (used throughout the cascade)",
        {"n": 6}))
    steps.append(CertStep(
        "P5", "kernel-transversality", SAMPLED,
        "Ker(x1) and Ker(y2) meet only at 0 (else contracting x1 y2^2 a "
        "volume form fails), so some u2 in Ker(y2) avoids R*u1 + Ker(x1)",
        {"n": 6}))
    steps.append(CertStep(
        "P6", "cascade-contraction", SAMPLED,
        "contracting T with u1, u2 and then w in Ker(x1) with "
        "(i_u2 y1)(w) = (i_u1 y2)(w) = 0 leaves alpha * x1(u1,u2) * i_w(y1); "
        "pointwise T = 0 forces x1(u1,u2) * i_w(y1) = 0 since alpha != 0",
        {"n": 6, "alpha": str(alpha), "beta": str(beta),
         "gamma": str(gamma), "delta": str(delta)}))
    steps.append(CertStep(
        "P7", "symbolic-evaluation", EXACT,
        "either way x1 y1^2 evaluates to zero on the basis u1, u2, w, "
        "w1, w2, w3 with w_i completing w in Ker(x1)",
        {"forms": ["x1", "y1", "y1"],
         "slots": ["u1", "u2", "w", "w1", "w2", "w3"],
         "zero_pairs": ([["x1", "u1", "w"], ["x1", "u1", "w1"],
                         ["x1", "u1", "w2"], ["x1", "u1", "w3"],
                         ["x1", "u2", "w"], ["x1", "u2", "w1"],
                         ["x1", "u2", "w2"], ["x1", "u2", "w3"],
                         ["x1", "w", "w1"], ["x1", "w", "w2"],
                         ["x1", "w", "w3"], ["x1", "w1", "w2"],
                         ["x1", "w1", "w3"], ["x1", "w2", "w3"]]
                        + [["y1", "u1", s] for s in
                           ["u2", "w", "w1", "w2", "w3"]]),
         "branches": [[["x1", "u1", "u2"]],
                      [["y1", "w", s] for s in ["u2", "w1", "w2", "w3"]]]}))
    steps.append(CertStep(
        "C", "chain", EXACT,
        f"x1 y1^2 = {lam1} * vol != 0 must be nonzero on the basis "
        "(u1, u2, w, w1, w2, w3), but the cascade and the symbolic expansion "
        "force it to vanish there: contradiction",
        {}, uses=tuple(s.sid for s in steps)))

    cert = Certificate(
        pattern="TOTARO", params={"a": str(a), "b": str(b), "case": case},
        verdict=INFEASIBLE, steps=steps, ring=pres.spec(),
        problem_label=f"totaro({a},{b})")
    if case == 2:
        cert.notes.append(
            "the y2 = x1 + 6*x3 variant of this recipe has "
            "y2^3 = -216 * x1x2x3 != 0; y2 = x3 satisfies every required "
            "identity and the cascade goes through unchanged")
    cert.notes.append(
        "the auxiliary product y1 y2^2 is not needed by the cascade and is "
        "omitted; it can vanish (e.g. normalized b = 2) even when the "
        "obstruction applies")
    return _self_check(cert)


def _volume_multiple(table, poly, vol_mono):
    red = table.reduce(poly)
    if not red:
        return Fraction(0)
    if set(red.keys()) != {vol_mono}:
        return None
    return red[vol_mono]


def _rescale_factor(rel_old, images, gens_new, rel_new):
    imgs = {k: parse_poly(v, gens_new) for k, v in images.items()}
    mapped = rel_old.map_generators(gens_new, imgs)
    for e, c in mapped.terms.items():
        cn = rel_new.terms.get(e)
        if cn:
            return c / cn
    raise CertificateUnavailableError("rescaling identity failed")


def _rewritten_relations(pres, y1_str, y2_str):
    """Substitute x2, x3 by their expressions in (x1, y1, y2); return the two
    rewritten non-square relations (mod x1^2) plus the substantiating steps."""
    gens = pres.gens
    new_gens, images = _generator_change(
        gens, {"x1": "x1", "y1": y1_str, "y2": y2_str})
    x1sq = tuple(2 if g.name == "x1" else 0 for g in new_gens)
    out = []
    steps = []
    for i, rel in enumerate(pres.relations[1:], start=2):
        mapped = rel.map_generators(new_gens, images)
        lam = mapped.terms.get(x1sq, Fraction(0))
        D = mapped - GradedPoly(new_gens, {x1sq: lam})
        out.append(D)
        steps.append(CertStep(
            f"T{i+1}", "substitution-identity", EXACT,
            f"relation {i} rewritten in (x1, y1, y2) equals D{i} plus "
            f"({lam})*x1^2; both summands vanish pointwise",
            {"generators_old": generators_to_spec(gens),
             "generators_new": generators_to_spec(new_gens),
             "images": {k: poly_to_string(v) for k, v in images.items()},
             "poly": poly_to_string(rel),
             "equals": poly_to_string(D + GradedPoly(new_gens, {x1sq: lam}))}))
    return out[0], out[1], steps


def _eliminating_combination(D2, D3):
    """(k2, k3) with k2 D2 + k3 D3 free of x1*y2 and with x1*y1 coefficient
    alpha != 0; returns (k2, k3, T, alpha, beta, gamma, delta) or None."""
    gens = D2.gens

    def coeff(p, name_a, name_b):
        e = tuple((g.name == name_a) + (g.name == name_b) for g in gens)
        return p.terms.get(e, Fraction(0))

    c2, c3 = coeff(D2, "x1", "y2"), coeff(D3, "x1", "y2")
    candidates = []
    if c2 == 0:
        candidates.append((Fraction(1), Fraction(0)))
    if c3 == 0:
        candidates.append((Fraction(0), Fraction(1)))
    if c2 != 0 and c3 != 0:
        candidates.append((c3, -c2))
    for k2, k3 in candidates:
        T = D2.scale(k2) + D3.scale(k3)
        alpha = coeff(T, "x1", "y1")
        if alpha == 0:
            continue
        return (k2, k3, T, alpha, coeff(T, "y1", "y2"),
                coeff(T, "y1", "y1"), coeff(T, "y2", "y2"))
    return None


# -- dispatch ------------------------------------------------------------------


def certify_table(table, label=""):
    """Pattern-match a ring and emit the matching certificate family."""
    tag = pattern_match(table)
    if tag.kind == "TOTARO":
        return certify_totaro(tag.params["a"], tag.params["b"])
    if tag.kind == "RANK_KERNEL":
        u = tag.params["u"]
        v = tag.params["v"]
        return rank_kernel_certificate(table, u, v, tag.params["c"], label=label)
    if tag.kind == "LEFSCHETZ":
        return lefschetz_certificate(table, tag.params["omega"],
                                     tag.params["annihilator"], label=label)
    if tag.kind in ("PROD_ODD", "P1"):
        raise PatternInapplicableError(
            f"pattern {tag.kind} indicates every homogeneous metric is formal; "
            "no infeasibility certificate applies")
    raise PatternInapplicableError(
        "NONE: the ring matches no certificate family; try the numerical "
        "`realize` search instead")
