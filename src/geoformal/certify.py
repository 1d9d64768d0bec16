"""Infeasibility certificates for pointwise realization problems.

A certificate is an ordered list of executable claims, each labelled
EXACT: every step is proved with rational arithmetic and draws nothing.
The steps are ring identities, pointwise lemmas on the normal forms of
2-forms, contraction identities on basis tuples, dimension counts, and the
contraction cascade of the three-generator family, computed with
antiderivations of a free graded-commutative algebra.  A certificate with
any failing or mislabelled step is rejected whole.

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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations_with_replacement, product

from . import linalg
from .errors import (CertificateUnavailableError, ConfigError,
                     PatternInapplicableError)
from .exterior import (Multivector, grade_masks, interior, lefschetz_matrix,
                       two_form_kernel, two_form_rank)
from .ring import (GradedPoly, RingPresentation, _generator_change,
                   build_table, builtin_presentation, generators_from_spec,
                   generators_to_spec, parse_poly, pattern_match,
                   poly_to_string)

EXACT = "EXACT"

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


# -- step verifiers ------------------------------------------------------------


def _normal_two_form(n, rank):
    """sum_{t < rank/2} e_{2t} ^ e_{2t+1}."""
    return Multivector(n, {3 << 2 * t: 1 for t in range(rank // 2)})


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


# identity -> (the product P of the 2-forms, the right side for the
# contraction i with v, the 2-form arguments checked); the identity is
# i(P) = rhs(i, *forms)
_CONTRACTIONS = {
    "interior-of-square": (
        lambda a: a.wedge(a),
        lambda i, a: i(a).wedge(a).scale(2),
        lambda blades: _lattice(blades, 2)),
    "interior-of-cube": (
        lambda a: a.wedge(a).wedge(a),
        lambda i, a: i(a).wedge(a).wedge(a).scale(3),
        lambda blades: _lattice(blades, 3)),
    "interior-of-product": (
        lambda a, b: a.wedge(b),
        lambda i, a, b: i(a).wedge(b) + a.wedge(i(b)),
        lambda blades: product(blades, repeat=2)),
    "interior-of-triple": (
        lambda a, b, c: a.wedge(b).wedge(c),
        lambda i, a, b, c: (i(a).wedge(b).wedge(c) + a.wedge(i(b)).wedge(c)
                            + a.wedge(b).wedge(i(c))),
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
    product_of, rhs, arguments = _CONTRACTIONS[name]
    blades = [Multivector(n, {m: 1}) for m in grade_masks(n, 2)]
    if name == "interior-of-triple":
        vectors = [Multivector(n, {1 << i: 1}) for i in range(n)]
        if any(a.wedge(x) != x.wedge(a) for a in blades for x in vectors + blades):
            return False, "2-forms do not commute with 1- and 2-forms"
    # interior is pure, so the contraction with each basis vector is memoized:
    # the blade cases share few distinct arguments, and the lattice cases,
    # which share almost none, stay within the bound
    contractions = [lru_cache(maxsize=64)(
        partial(interior, [int(i == j) for j in range(n)])) for i in range(n)]
    checked = 0
    for forms in arguments(blades):
        p = product_of(*forms)  # free of v: formed once per argument tuple
        for i, contract in enumerate(contractions):
            if contract(p) != rhs(contract, *forms):
                return False, f"identity {name} fails at v = e{i + 1}"
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


def _verify_kernel_transversality(step):
    """A dimension count.  Were ker B inside R*u1 + ker A, with u1 outside
    ker A, Grassmann's formula would give dim(ker A cap ker B) >=
    (n - rank_a) + (n - rank_b) - (n - rank_a + 1) = dim ker B - 1, against
    ker A cap ker B = 0 once that bound is at least 1."""
    p = step.payload
    n, rank_a, rank_b = p["n"], p["rank_a"], p["rank_b"]
    if not 0 < rank_a <= n or not 0 <= rank_b <= n:
        return False, f"ranks {rank_a}, {rank_b} do not fit in dimension {n}"
    bound = (n - rank_a) + (n - rank_b) - (n - rank_a + 1)
    if bound < 1:
        return False, f"dim ker B - 1 = {bound} < 1: no contradiction"
    return True, (f"ker B inside R*u1 + ker A would force dim(ker A cap ker B) "
                  f">= dim ker B - 1 = {bound}, so some u2 in ker B avoids "
                  "R*u1 + ker A")


def _contracted_form(gens, p):
    """T = alpha*x1*y1 + beta*y1*y2 + gamma*y1^2 + delta*y2^2 over `gens`,
    with the coefficients of the payload `p`."""
    x1, y1, y2 = (GradedPoly.generator(gens, name) for name in ("x1", "y1", "y2"))
    return ((x1 * y1).scale(Fraction(p["alpha"]))
            + (y1 * y2).scale(Fraction(p["beta"]))
            + (y1 * y1).scale(Fraction(p["gamma"]))
            + (y2 * y2).scale(Fraction(p["delta"])))


# The symbols of the cascade: the 2-forms x1, y1, y2; the 1-forms
# lam = i_u1 x1, mu = i_u1 y2, nu = i_u2 y1 and iwy1 = i_w y1; the number
# s = x1(u1, u2).
_CASCADE_SYMBOLS = [["x1", 2], ["y1", 2], ["y2", 2], ["lam", 1], ["mu", 1],
                    ["nu", 1], ["iwy1", 1], ["s", 0]]

# The contractions of the cascade in the order applied.  Each is the degree -1
# antiderivation with these images of the symbols it meets, each image
# followed by the hypothesis it comes from.
_CASCADE = {
    "u1": {"x1": ("lam", "lam = i_u1 x1"),
           "y1": ("0", "u1 in ker y1"),
           "y2": ("mu", "mu = i_u1 y2")},
    "u2": {"lam": ("s", "lam(u2) = x1(u1, u2) = s"),
           "mu": ("0", "mu(u2) = y2(u1, u2) = 0 as u2 in ker y2"),
           "y1": ("nu", "nu = i_u2 y1"),
           "y2": ("0", "u2 in ker y2")},
    "w": {"s": ("0", "s is a number"),
          "lam": ("0", "lam(w) = -x1(w, u1) = 0 as w in ker x1"),
          "mu": ("0", "mu(w) = 0 by the choice of w"),
          "nu": ("0", "nu(w) = 0 by the choice of w"),
          "y1": ("iwy1", "iwy1 = i_w y1")},
}


def _verify_cascade_contraction(step):
    """Contract T with u1, u2 and then w in the free graded-commutative
    algebra on the symbols.

    Each interior product is a degree -1 antiderivation, and so is its
    image in the free algebra once it agrees on the symbols (which needs
    each image to have one degree less), so the exact result there is the
    pointwise one.  w exists because ker x1 has dimension n - 2 and w obeys
    two more linear conditions."""
    p = step.payload
    n, alpha = p["n"], Fraction(p["alpha"])
    if alpha == 0:
        return False, "alpha = 0: the cascade leaves nothing to contradict"
    if (n - 2) - 2 < 1:
        return False, f"dim ker x1 - 2 = {n - 4} < 1: no vector w"
    gens = generators_from_spec(_CASCADE_SYMBOLS)
    degree = {g.name: g.degree for g in gens}
    t = _contracted_form(gens, p)
    for vector, table in _CASCADE.items():
        images = {name: parse_poly(image, gens)
                  for name, (image, _) in table.items()}
        for name, image in images.items():
            if image.degree() not in (None, degree[name] - 1):
                return False, f"i_{vector} {name} = {image} has the wrong degree"
        missing = {g.name for exps in t.terms for e, g in zip(exps, gens) if e}
        missing -= set(images)
        if missing:
            return False, f"i_{vector} has no image of {', '.join(sorted(missing))}"
        t = t.antiderivation(images)
    if t != parse_poly("s*iwy1", gens).scale(alpha):
        return False, f"i_w i_u2 i_u1 T = {t}, not alpha*s*iwy1"
    return True, (f"i_w i_u2 i_u1 T = ({alpha})*s*iwy1 exactly, and w exists "
                  f"since (n - 2) - 2 = {n - 4} >= 1")


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


# Each verifier proves its claim from the step alone; ring-reduce also takes
# the table.
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

# (verifier, kind, canonical payload) -> (ok, detail).  A step's replay is a
# function of exactly these, so a hit returns what a fresh replay would; the
# verifier object in the key keeps a replaced or wrapped verifier from being
# answered by another one's result.  Ring-reduce steps also depend on the
# ring, so they stay out.
_STEP_MEMO = {}


def _replay(fn, step):
    try:
        payload = json.dumps(step.payload, sort_keys=True)
        # a payload that does not load back equal (tuples, int keys, NaN)
        # could share its text with a different one: replay it unmemoized
        key = ((fn, step.kind, payload)
               if json.loads(payload) == step.payload else None)
    except (TypeError, ValueError):
        key = None
    if key in _STEP_MEMO:
        return _STEP_MEMO[key]
    try:
        ok, detail = fn(step)
    except Exception as exc:  # replay errors reject the step, never memoized
        return False, f"replay error: {exc}"
    if key is not None:
        _STEP_MEMO[key] = (ok, detail)
    return ok, detail


def _verify_cascade_premise(step, cert, passed_sids):
    """The T that P6 contracts must be the one its premise derives: the one
    step it uses passed as a poly-identity whose `equals` is exactly T with
    P6's coefficients."""
    if len(step.uses) != 1:
        return False, "the cascade must use exactly one premise, the step giving T"
    (sid,) = step.uses
    premise = next((s for s in cert.steps if s.sid == sid), None)
    if premise is None or premise.kind != "poly-identity" or sid not in passed_sids:
        return False, f"premise {sid} is not a verified poly-identity"
    gens = generators_from_spec(premise.payload["generators"])
    derived = parse_poly(premise.payload["equals"], gens)
    t = _contracted_form(gens, step.payload)
    if derived != t:
        return False, f"{sid} derives T = {derived}, but the cascade contracts {t}"
    return True, f"T agrees with {sid}"


def verify_certificate(cert, trials=1000, seed=0):
    """Replay every step of a certificate; any failure rejects it whole.

    Every step is EXACT: it is proved from its payload, draws nothing and
    does not depend on `trials` or `seed`, which are validated and echoed in
    the report.  A step labelled otherwise is rejected.  Each claim is
    replayed once per process (see `_STEP_MEMO`), so the emission self-check
    proves every claim for all later verifications.  Ring-reduce steps are
    replayed against one table, rebuilt from `cert.ring` at the first of
    them.  Chain steps, and the check that P6 contracts the T of its premise,
    are always run, since they read which premises passed.
    """
    if trials < 1:
        raise ConfigError(f"verification needs at least one trial, got {trials}")
    results = []
    passed_sids = set()
    table = None
    for step in cert.steps:
        if step.kind != "chain" and step.kind not in _VERIFIERS:
            ok, detail = False, f"unknown step kind {step.kind!r}"
        elif step.mode != EXACT:
            ok, detail = False, (f"labelled {step.mode}, but every step is "
                                 f"{EXACT}")
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
            ok, detail = _replay(_VERIFIERS[step.kind], step)
            if ok and step.kind == "cascade-contraction":
                try:
                    ok, agreement = _verify_cascade_premise(step, cert,
                                                            passed_sids)
                except Exception as exc:  # replay errors reject the step
                    ok, agreement = False, f"replay error: {exc}"
                detail = f"{detail}; {agreement}" if ok else agreement
        results.append(StepResult(step.sid, step.kind, step.mode, ok, detail))
        if ok:
            passed_sids.add(step.sid)
    status = ACCEPTED if all(r.passed for r in results) else REJECTED
    return VerificationReport(status=status, trials=trials, seed=seed,
                              results=results)


def _self_check(cert):
    report = verify_certificate(cert)
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


def rank_kernel_certificate(table, u_str, v_str, c):
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
        problem_label=pres.name)
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


def lefschetz_certificate(table, omega_str, annih_str):
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
        problem_label=pres.name)
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
        "P5", "kernel-transversality", EXACT,
        "Ker(x1) and Ker(y2) meet only at 0 (else contracting x1 y2^2 a "
        "volume form fails), so some u2 in Ker(y2) avoids R*u1 + Ker(x1)",
        {"n": 6, "rank_a": 2, "rank_b": 4}))
    steps.append(CertStep(
        "P6", "cascade-contraction", EXACT,
        "contracting T (from T5) with u1, u2 and then w in Ker(x1) with "
        "(i_u2 y1)(w) = (i_u1 y2)(w) = 0 leaves alpha * x1(u1,u2) * i_w(y1); "
        "pointwise T = 0 forces x1(u1,u2) * i_w(y1) = 0 since alpha != 0",
        {"n": 6, "alpha": str(alpha), "beta": str(beta),
         "gamma": str(gamma), "delta": str(delta)}, uses=("T5",)))
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


def certify_table(table):
    """Pattern-match a ring and emit the matching certificate family."""
    tag = pattern_match(table)
    if tag.kind == "TOTARO":
        return certify_totaro(tag.params["a"], tag.params["b"])
    if tag.kind == "RANK_KERNEL":
        u = tag.params["u"]
        v = tag.params["v"]
        return rank_kernel_certificate(table, u, v, tag.params["c"])
    if tag.kind == "LEFSCHETZ":
        return lefschetz_certificate(table, tag.params["omega"],
                                     tag.params["annihilator"])
    if tag.kind in ("PROD_ODD", "P1"):
        raise PatternInapplicableError(
            f"pattern {tag.kind} indicates every homogeneous metric is formal; "
            "no infeasibility certificate applies")
    raise PatternInapplicableError(
        "NONE: the ring matches no certificate family; try the numerical "
        "`realize` search instead")
