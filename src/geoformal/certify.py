"""Infeasibility certificates for pointwise realization problems.

A certificate is an ordered list of executable claims, each labelled
EXACT: every step is proved with rational arithmetic and draws nothing.
The steps are ring identities, pointwise lemmas on the normal forms of
2-forms and contraction identities on blade pairs, proved on term dicts
{mask: x} with `exterior.wedge_terms`, dimension counts, and the
contraction cascade of the three-generator family, computed with
antiderivations of a free graded-commutative algebra.  Each family's steps
are declared once, in `_FAMILIES`, which the emitters and the verifier both
read.  A certificate with any failing, mislabelled or misplaced step is
rejected whole.

Families covered: the rank/kernel contraction argument (u^3 = 0 against
v^2 + c u^2 = 0 with c != 0), the Lefschetz annihilator argument on
six-manifolds, and the three-generator biquotient family with parameters
(a, b).  The (a, b) = (0, 0) member of that family is *not* certifiable:
its relations do not couple the square-zero generator to the others, and
the ring admits an exact pointwise realization, which the emission path
reports with an explicit witness.
"""

from __future__ import annotations

import copy
import functools
import json
from fractions import Fraction
from itertools import combinations

from . import linalg
from .errors import (CertificateUnavailableError, ConfigError,
                     PatternInapplicableError)
from .exterior import (MAX_DIM, grade_masks, interior, lefschetz_matrix,
                       two_form_kernel, two_form_rank, wedge_terms)
from .ring import (GradedPoly, RingPresentation, _generator_change,
                   build_table, builtin_presentation, generators_from_spec,
                   generators_to_spec, parse_poly, pattern_match,
                   poly_to_string, totaro_relations)

EXACT = "EXACT"

INFEASIBLE = "INFEASIBLE"
ACCEPTED = "ACCEPTED"
REJECTED = "REJECTED"


class CertStep:
    def __init__(self, sid, kind, mode, statement, payload=None, uses=()):
        self.sid = sid
        self.kind = kind
        self.mode = mode
        self.statement = statement
        self.payload = {} if payload is None else payload
        self.uses = uses


class Certificate:
    """`ring` is the spec (`RingPresentation.spec()`) of the ring the
    certificate is about, the one its `_RING_KINDS` steps replay in."""

    def __init__(self, pattern, params, verdict, steps, ring, notes=None):
        self.pattern = pattern
        self.params = params
        self.verdict = verdict
        self.steps = steps
        self.ring = ring
        self.notes = [] if notes is None else notes

    def step(self, sid):
        for s in self.steps:
            if s.sid == sid:
                return s
        raise KeyError(sid)


class StepResult:
    def __init__(self, sid, kind, mode, passed, detail=""):
        self.sid = sid
        self.kind = kind
        self.mode = mode
        self.passed = passed
        self.detail = detail


class VerificationReport:
    def __init__(self, status, trials, seed, results=None):
        self.status = status
        self.trials = trials
        self.seed = seed
        self.results = [] if results is None else results

    @property
    def accepted(self):
        return self.status == ACCEPTED

    def failures(self):
        return [r for r in self.results if not r.passed]


# -- step verifiers ------------------------------------------------------------


def _normal_forms(n):
    """(r, sum_{t < r/2} e_{2t} ^ e_{2t+1} as a term dict) for every even r <= n."""
    return [(r, {3 << 2 * t: 1 for t in range(r // 2)}) for r in range(0, n + 1, 2)]


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


def _verify_substitution_identity(step, table):
    """`poly`, the ring's relations[`relation`], expands to `equals`."""
    p = step.payload
    gens_new = generators_from_spec(p["generators_new"])
    poly = parse_poly(p["poly"], generators_from_spec(p["generators_old"]))
    if poly != table.presentation.relations[p["relation"]]:
        return False, f"{p['poly']} is not the ring's relations[{p['relation']}]"
    images = {name: parse_poly(s, gens_new) for name, s in p["images"].items()}
    got = poly.map_generators(gens_new, images)
    target = parse_poly(p["equals"], gens_new)
    if got == target:
        return True, "substitution expands exactly as claimed"
    return False, f"substitution gives {got}, expected {target}"


def _verify_quadratic_no_real_roots(step):
    """alpha = factor * (a t^2 + b t + c) at t = the instance, with a nonzero
    factor and a negative discriminant, so alpha is not 0."""
    p = step.payload
    a, b, c, t, alpha, factor = (Fraction(p[k]) for k in (
        "a", "b", "c", "instance", "alpha", "factor"))
    disc = b * b - 4 * a * c
    if disc >= 0:
        return False, f"discriminant {disc} is not negative"
    if factor == 0:
        return False, "the factor is 0"
    value = a * t * t + b * t + c
    if alpha != factor * value:
        return False, (f"alpha {alpha} is not ({factor})*({value}), the factor "
                       f"times the quadratic at {t}")
    return True, (f"discriminant {disc} < 0, so no real zeros; alpha = "
                  f"({factor})*({value}) != 0 at {t}")


def _verify_rank_from_cube(step):
    n = step.payload["n"]
    for r, w in _normal_forms(n):
        if (r <= 4) != (not any(wedge_terms(wedge_terms(w, w), w).values())):
            return False, f"normal form of rank {r}: cube-zero mismatch"
        if two_form_rank(w, n) != r or len(two_form_kernel(w, n)) != n - r:
            return False, f"normal form of rank {r}: rank/kernel mismatch"
    return True, "on every rank normal form: rank <= 4 iff cube vanishes; "\
                 "kernel dimension = n - rank"


def _verify_rank_from_square(step):
    n = step.payload["n"]
    for r, w in _normal_forms(n):
        if (r <= 2) != (not any(wedge_terms(w, w).values())):
            return False, f"normal form of rank {r}: square-zero mismatch"
    return True, "on every rank normal form: rank <= 2 iff square vanishes; "\
                 "square-zero 2-forms have kernel dimension >= n - 2"


# The contraction identities the families emit; one check proves them all.
_CONTRACTIONS = ("interior-of-square", "interior-of-cube", "interior-of-triple")


def _verify_contraction_identity(step):
    """A finite exact check that proves the identity for all real arguments.

    Each identity follows from two facts: 2-forms commute with 1-forms, and
    for a 2-form a and a 2- or 4-form b the interior product obeys the
    antiderivation rule i(a^b) = i(a)^b + a^i(b).  Then
      square: i(a^2) = i(a)^a + a^i(a) = 2 i(a)^a;
      cube:   i(a^3) = i(a)^a^2 + a^i(a^2) = 3 i(a)^a^2;
      triple: i(a^b^c) = i(a)^b^c + a^i(b^c), and the rule again on i(b^c).
    Both facts are linear in each argument and in v, so they hold once they
    hold on blades at v = e_i: commutation for every 2-blade against every
    e_i, then the rule for every 2-blade a, every 2- or 4-blade b and every
    e_i.  A blade's contractions with all n vectors are one term dict, e_i
    tagged `i << MAX_DIM`, and the j-th b is tagged `j << 2 * MAX_DIM` (see
    `exterior.wedge_terms`), so each 2-blade a takes three wedges against all
    b: a ^ b, whose images give the left sides, and the two on the right."""
    name = step.payload["identity"]
    n = step.payload["n"]
    if name not in _CONTRACTIONS:
        return False, f"unknown identity {name!r}"
    twos = grade_masks(n, 2)
    bs, pair, blade = twos + grade_masks(n, 4), 2 * MAX_DIM, (1 << MAX_DIM) - 1
    units = {1 << i | i << MAX_DIM: 1 for i in range(n)}
    tagged_twos = {m | j << pair: 1 for j, m in enumerate(twos)}
    if wedge_terms(tagged_twos, units) != wedge_terms(units, tagged_twos):
        return False, "2-forms do not commute with 1-forms"
    blades = bs + grade_masks(n, 6)
    tagged = {m | k << MAX_DIM: 1 for k, m in enumerate(blades)}
    images = {m: {} for m in blades}
    for i in range(n):  # every blade at once, tagged by its index
        for key, c in interior([int(i == j) for j in range(n)], tagged).items():
            images[blades[key >> MAX_DIM]][key & blade | i << MAX_DIM] = c
    tagged_bs = {m | j << pair: 1 for j, m in enumerate(bs)}
    images_bs = {key | j << pair: c for j, m in enumerate(bs)
                 for key, c in images[m].items()}
    for ma in twos:
        left = {key | m & ~blade: s * c
                for m, s in wedge_terms({ma: 1}, tagged_bs).items()
                for key, c in images[m & blade].items()}
        right = {k: c for k, c in wedge_terms({ma: 1}, images_bs, wedge_terms(
            images[ma], tagged_bs)).items() if c}
        if left != right:  # the first pair in table order, then its first vector
            key = min(k >> MAX_DIM for k in left.keys() | right.keys()
                      if left.get(k) != right.get(k))
            return False, f"identity {name} fails at v = e{(key & blade) + 1}"
    return True, f"antiderivation identity {name} holds on all "\
                 f"{n * len(twos) * len(bs)} basis cases, hence for all arguments"


def _verify_volume_contraction(step):
    """i_v(vol) = sum_i v_i i_{e_i}(vol) is linear in v, so when the n images
    i_{e_i}(vol) are nonzero single blades on distinct masks it vanishes
    only at v = 0."""
    n = step.payload["n"]
    masks = set()
    for i in range(n):
        image = interior([int(t == i) for t in range(n)], {(1 << n) - 1: 1})
        if not image:
            return False, f"i_e{i+1}(vol) vanished"
        if len(image) != 1 or image.keys() & masks:
            return False, f"i_e{i+1}(vol) is not a blade apart from the others"
        masks |= image.keys()
    return True, "the volume form is nondegenerate: i_v(vol) != 0 for v != 0"


def _verify_lefschetz_nondegenerate(step):
    n = step.payload["n"]
    for r, w in _normal_forms(n):
        matrix = lefschetz_matrix(w)
        if (linalg.rank(matrix) == len(matrix)) != (r == n):
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


# Each verifier proves its claim from the step alone; the kinds in
# `_RING_KINDS` also take the table of `cert.ring`.
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
_RING_KINDS = ("ring-reduce", "substitution-identity")

# (verifier, kind, canonical payload[, canonical ring]) -> (ok, detail).  A
# step's replay is a function of exactly these, so a hit returns what a fresh
# replay would; the verifier object in the key keeps a replaced or wrapped
# verifier from being answered by another one's result.  The steps of
# `_RING_KINDS` and the pattern check also depend on the ring, so their keys
# name `cert.ring` too.
_STEP_MEMO = {}


def _replay(fn, step, ring=None, table=None):
    """`fn(step)`, or with a `ring` spec `fn(step, table())`, once per key;
    `table` is called only on a miss."""
    try:
        parts = (step.payload,) if ring is None else (step.payload, ring)
        texts = tuple(json.dumps(part, sort_keys=True) for part in parts)
        # a payload or ring that does not load back equal (tuples, int keys,
        # NaN) could share its text with a different one: replay it unmemoized
        key = ((fn, step.kind, *texts)
               if all(json.loads(t) == part for t, part in zip(texts, parts))
               else None)
    except (TypeError, ValueError):
        key = None
    if key in _STEP_MEMO:
        return _STEP_MEMO[key]
    try:
        ok, detail = fn(step) if ring is None else fn(step, table())
    except Exception as exc:  # replay errors reject the step, never memoized
        return False, f"replay error: {exc}"
    if key is not None:
        _STEP_MEMO[key] = (ok, detail)
    return ok, detail


def _verify_pattern(claim, table):
    """The certificate's pattern and params, held in `claim`'s payload, must
    be the ones `pattern_match` finds in the ring (see
    `_certificate_params`), and the polynomials its R steps reduce, held in
    `claim`'s payload too, the ones the params give (see `_row_polys`)."""
    pattern, params = claim.payload["pattern"], claim.payload["params"]
    tag = pattern_match(table)
    if tag.kind != pattern:
        return False, f"pattern {pattern}, but the ring matches {tag.kind}"
    found = _certificate_params(tag.kind, tag.params)
    if found != params:
        return False, f"params {params}, but the ring matches {found}"
    gens = table.presentation.gens
    for sid, want in _row_polys(pattern, params, gens).items():
        got = claim.payload["polys"].get(sid)
        if got is not None and parse_poly(got, gens) != want:
            return False, (f"{sid} reduces {got}, but the params give "
                           f"{poly_to_string(want)}")
    return True, f"the ring matches {pattern}"


def _verify_cascade_premise(step, cert, passed_sids):
    """The T that P6 contracts must be the one its premise derives: the step
    it uses (the shape check admits exactly T5) passed as a poly-identity
    whose `equals` is exactly T with P6's coefficients."""
    for sid in step.uses:
        premise = cert.step(sid) if sid in passed_sids else None
        if premise is None or premise.kind != "poly-identity":
            return False, f"premise {sid} is not a verified poly-identity"
        gens = generators_from_spec(premise.payload["generators"])
        derived = parse_poly(premise.payload["equals"], gens)
        t = _contracted_form(gens, step.payload)
        if derived != t:
            return False, f"{sid} derives T = {derived}, but the cascade contracts {t}"
    return True, f"; T agrees with {', '.join(step.uses)}"


def _verify_combination_premise(step, cert, passed_sids):
    """Each polynomial T5 combines must be its premise's `equals` less the
    x1^2 term, the premises (T3 and T4, by the shape check) having passed."""
    gens = generators_from_spec(step.payload["generators"])
    for sid, (_, text) in zip(step.uses, step.payload["combination"], strict=True):
        premise = cert.step(sid) if sid in passed_sids else None
        if premise is None or premise.kind != "substitution-identity":
            return False, f"premise {sid} is not a verified substitution-identity"
        p = premise.payload
        derived, _ = _split_x1_square(parse_poly(
            p["equals"], generators_from_spec(p["generators_new"])))
        if derived != parse_poly(text, gens):
            return False, f"{sid} derives {derived} less x1^2, but T5 combines {text}"
    return True, ""


# Checks against a step's premises, always run; on success they add to its detail.
_PREMISE_CHECKS = {"cascade-contraction": _verify_cascade_premise,
                   "poly-identity": _verify_combination_premise}


# -- the step tables -----------------------------------------------------------


class _Row:
    """One step of a family's argument, read by the emitter and the verifier.

    `statement` is a template over the certificate's params, the values the
    emitter computes and `lemma`.  `payload` holds what the step's payload
    must carry whatever the ring; the emitter adds the ring-dependent rest.
    A row with a `when` is a step exactly when `when(params)` holds.  A
    ring-reduce row's `poly`, called with the params as polynomials of the
    ring, is the polynomial the step must reduce (see `_row_polys`).  The
    rows are shared by every certificate, so they are read-only."""

    __slots__ = ("sid", "kind", "statement", "payload", "when", "uses", "poly")

    def __init__(self, sid, kind, statement, payload=None, when=None, uses=(),
                 poly=None):
        for name, value in zip(self.__slots__, (
                sid, kind, statement, {} if payload is None else payload, when,
                uses, poly)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"a step-table row is read-only: cannot set {name}")


# The lemma that makes the normal-form checks of the rank and Lefschetz steps
# proofs for every 2-form.
_NORMAL_FORM_LEMMA = (
    "exact on the normal forms: every real 2-form is congruent to a normal "
    "form sum_{t<r/2} e_{2t}^e_{2t+1}, and a frame change acts on the exterior "
    "algebra as an automorphism, which preserves rank, kernel dimension, "
    "vanishing of powers and Lefschetz invertibility")


def _totaro_case(a, b):
    """(case, t, b') of totaro(a, b): the vanishing pattern of (a, b), the t
    of the argument's generator t*x1 (0 for (0, 0), whose x1 is kept) and
    b', the b of the relations over (t*x1, x2, x3)."""
    a, b = Fraction(a), Fraction(b)
    if a != 0:
        return (1 if b != 0 else 3), a, b / a
    if b != 0:
        return 2, b, Fraction(1)
    return 4, Fraction(0), Fraction(0)


# The basis P7 evaluates on: u1, u2, w and w_i completing w in Ker(x1).
_SLOTS = ["u1", "u2", "w", "w1", "w2", "w3"]

# Each family's steps in order; the last row is the chain, which uses every
# other step.
_FAMILIES = {
    "RANK_KERNEL": (
        _Row("R1", "ring-reduce", "in the ring, ({u})^3 = 0",
             poly=lambda u, v, c: u * u * u),
        _Row("R2", "ring-reduce",
             "in the ring, ({v})^2 + ({c})*({u})^2 = 0, so the identity holds "
             "pointwise for any realization",
             poly=lambda u, v, c: v * v + c * u * u),
        _Row("R3", "ring-reduce",
             "({v})^3 = {mu} * volume, a nonzero multiple; pointwise "
             "({v})^3 = {mu} * vol since the volume monomial is pinned",
             poly=lambda u, v, c: v * v * v),
        _Row("P1", "rank-from-cube",
             "a 2-form on R^6 with vanishing cube has rank at most 4, hence a "
             "kernel vector w != 0 exists; {lemma}", {"n": 6}),
        _Row("P2", "contraction-identity",
             "i_w(v^2 + c u^2) = 2 (i_w v)^v + 2c (i_w u)^u; with i_w u = 0 "
             "and the relation, (i_w v)^v = 0",
             {"identity": "interior-of-square", "n": 6}),
        _Row("P3", "contraction-identity",
             "i_w(v^3) = 3 (i_w v)^v^v, which vanishes once (i_w v)^v = 0",
             {"identity": "interior-of-cube", "n": 6}),
        _Row("P4", "volume-contraction", "i_w(vol) != 0 for every w != 0",
             {"n": 6}),
        _Row("C", "chain",
             "pointwise: u^3 = 0 gives w != 0 with i_w u = 0 (P1); the "
             "relation (R2) contracts to (i_w v)^v = 0 (P2); then "
             "i_w(v^3) = 0 (P3); but v^3 = {mu} * vol (R3) and "
             "i_w(vol) != 0 (P4): contradiction"),
    ),
    "LEFSCHETZ": (
        _Row("R1", "ring-reduce",
             "({omega})^3 = {mu} * volume != 0, so any realization makes "
             "omega nondegenerate at the point",
             poly=lambda omega, annihilator: omega * omega * omega),
        _Row("R2", "ring-reduce",
             "({annihilator}) * ({omega}) = 0 in the ring, hence pointwise",
             poly=lambda omega, annihilator: annihilator * omega),
        _Row("R3", "ring-reduce",
             "({annihilator}) != 0 in degree-2 cohomology: independent "
             "classes have independent (hence nonzero) harmonic forms",
             poly=lambda omega, annihilator: annihilator),
        _Row("P1", "rank-from-cube",
             "omega^3 != 0 pointwise forces rank 6: omega is symplectic at "
             "the point; {lemma}", {"n": 6}),
        _Row("P2", "lefschetz-nondegenerate",
             "for symplectic omega on R^6, a -> a ^ omega is injective from "
             "2-forms to 4-forms; {lemma}", {"n": 6}),
        _Row("C", "chain",
             "pointwise: (annihilator) ^ omega = 0 (R2) with omega symplectic "
             "(R1, P1) forces annihilator = 0 as a form (P2), contradicting "
             "its nonvanishing as a class (R3)"),
    ),
    "TOTARO": (
        _Row("T1", "ring-reduce", "({y1})^3 = 0 in the ring"),
        _Row("T1b", "ring-reduce", "({y2})^3 = 0 in the ring"),
        _Row("T2", "ring-reduce", "{x1}*({y1})^2 = {lam1} * volume != 0"),
        _Row("T2b", "ring-reduce", "{x1}*({y2})^2 = {lam2} * volume != 0"),
        *(_Row(f"T{i + 1}", "substitution-identity",
               f"the ring's relations[{{relation{i}}}] rewritten in (x1, y1, "
               f"y2){{change}} equals D{i} plus ({{square{i}}})*x1^2; both "
               f"summands vanish pointwise")
          for i in (2, 3)),
        _Row("T5", "poly-identity",
             "({k2})*D2 + ({k3})*D3 = T with T = ({alpha})*x1*y1 + "
             "({beta})*y1*y2 + ({gamma})*y1^2 + ({delta})*y2^2 (no x1*y2 "
             "term); T vanishes pointwise along with the relations",
             uses=("T3", "T4")),
        _Row("T6", "quadratic-no-real-roots",
             "T5's alpha = f*(5b - 2b^2 - 4), f being 2b/81 times the x2^2 "
             "and x3^2 coefficients of the relations behind D2 and D3; at "
             "{instance}, f = {factor} != 0 and alpha = {alpha}; 2b^2 - 5b + 4 "
             "has discriminant 25 - 32 = -7 < 0, so alpha != 0",
             {"a": "-2", "b": "5", "c": "-4"}, uses=("T5",),
             when=lambda p: _totaro_case(p["a"], p["b"])[0] == 1),
        _Row("P1", "rank-from-square",
             "x1^2 = 0 with x1*y1^2 a volume form gives rank(x1) = 2 and "
             "dim Ker(x1) = 4; {lemma}", {"n": 6}),
        _Row("P2", "rank-from-cube",
             "y1^3 = y2^3 = 0 with x1*y1^2, x1*y2^2 volume forms give "
             "rank(y1) = rank(y2) = 4 and 2-dimensional kernels; {lemma}",
             {"n": 6}),
        _Row("P3", "contraction-identity",
             "for u1 in Ker(y1): i_u1(x1 y1^2) = (i_u1 x1) ^ y1^2, which must "
             "be {lam1} * i_u1(vol) != 0, so u1 is outside Ker(x1)",
             {"identity": "interior-of-triple", "n": 6}),
        _Row("P4", "volume-contraction",
             "i_v(vol) != 0 for v != 0 (used throughout the cascade)",
             {"n": 6}),
        _Row("P5", "kernel-transversality",
             "Ker(x1) and Ker(y2) meet only at 0 (else contracting x1 y2^2 a "
             "volume form fails), so some u2 in Ker(y2) avoids "
             "R*u1 + Ker(x1)", {"n": 6, "rank_a": 2, "rank_b": 4}),
        _Row("P6", "cascade-contraction",
             "contracting T (from T5) with u1, u2 and then w in Ker(x1) with "
             "(i_u2 y1)(w) = (i_u1 y2)(w) = 0 leaves alpha * x1(u1,u2) * "
             "i_w(y1); pointwise T = 0 forces x1(u1,u2) * i_w(y1) = 0 since "
             "alpha != 0", {"n": 6}, uses=("T5",)),
        _Row("P7", "symbolic-evaluation",
             "either way x1 y1^2 evaluates to zero on the basis u1, u2, w, "
             "w1, w2, w3 with w_i completing w in Ker(x1)",
             {"forms": ["x1", "y1", "y1"],
              "slots": _SLOTS,
              "zero_pairs": [["x1", p, q] for p, q in combinations(_SLOTS, 2)
                             if (p, q) != ("u1", "u2")]
                            + [["y1", "u1", s] for s in _SLOTS[1:]],
              "branches": [[["x1", "u1", "u2"]],
                           [["y1", "w", s] for s in ("u2", "w1", "w2", "w3")]]}),
        _Row("C", "chain",
             "x1 y1^2 = {lam1} * vol != 0 must be nonzero on the basis "
             "(u1, u2, w, w1, w2, w3), but the cascade and the symbolic "
             "expansion force it to vanish there: contradiction"),
    ),
}


def _rows(pattern, params):
    """The rows of `pattern`'s table that `params` call for, by sid."""
    return {row.sid: row for row in _FAMILIES[pattern]
            if row.when is None or row.when(params)}


def _row_polys(pattern, params, gens):
    """{sid: the polynomial the row's ring-reduce step reduces}, for the rows
    of `pattern` with a `poly`, from `params` parsed over `gens`."""
    return {row.sid: row.poly(**{k: parse_poly(v, gens) for k, v in params.items()})
            for row in _FAMILIES[pattern] if row.poly}


def _certificate_params(pattern, tag_params):
    """The params a certificate of `pattern` carries for the `pattern_match`
    params `tag_params`: (a, b) and the case for TOTARO, else every param as
    a string."""
    if pattern == "TOTARO":
        a, b = Fraction(tag_params["a"]), Fraction(tag_params["b"])
        return {"a": str(a), "b": str(b), "case": _totaro_case(a, b)[0]}
    return {k: str(v) for k, v in tag_params.items()}


def _shape_problems(cert):
    """What keeps a certificate from following its family's table, by sid: a
    step's kind, fixed payload values or `uses` differing from its row, and,
    at the chain, steps that are not the rows the params call for, in order."""
    if cert.pattern not in _FAMILIES:
        return {"C": f"no step table for pattern {cert.pattern!r}"}
    rows = _rows(cert.pattern, cert.params)
    sids = list(rows)
    problems = {}
    for step in (step for step in cert.steps if step.sid in rows):
        sid, row = step.sid, rows[step.sid]
        uses = (tuple(s for s in sids if s != sid) if row.kind == "chain"
                else row.uses)
        if step.kind != row.kind:
            problems[sid] = f"kind {step.kind!r}, not the table's {row.kind!r}"
        elif {k: step.payload.get(k) for k in row.payload} != row.payload:
            problems[sid] = f"payload differs from the table's {row.payload}"
        elif tuple(step.uses) != uses:
            problems[sid] = f"uses {list(step.uses)}, not the table's {list(uses)}"
    got = [step.sid for step in cert.steps]
    if got != sids:
        wrong = [f"{what} {names}" for what, names in (
            ("missing", [s for s in sids if s not in got]),
            ("unexpected", [s for s in got if s not in sids])) if names]
        problems[sids[-1]] = (f"not the {cert.pattern} table's steps: "
                              f"{', '.join(wrong) or 'out of order'}")
    return problems


def verify_certificate(cert, trials=1000, seed=0):
    """Replay every step of a certificate; any failure rejects it whole.

    Every step is EXACT: it is proved from its payload, draws nothing and
    does not depend on `trials` or `seed`, which are validated and echoed in
    the report.  A step labelled otherwise is rejected.  Each claim is
    replayed once per process (see `_STEP_MEMO`), so the emission self-check
    proves every claim for all later verifications.  `_RING_KINDS` steps
    are memoized under their ring as well, and on a miss replayed against
    one table built from `cert.ring` (`build_table` shares it per process
    by ring content).  The chain also fails unless `pattern_match` on that
    table finds the certificate's pattern and params; that check is
    memoized under the ring too.  Always run: the chain and the premise
    checks of P6 and T5, which read which premises passed; the check that a
    step's dimension `n` is the ring's top degree, since a step proved in
    another dimension, or vacuously on no cases, proves nothing about this
    ring; and the family table's shape.
    """
    if trials < 1:
        raise ConfigError(f"verification needs at least one trial, got {trials}")
    try:
        problems = _shape_problems(cert)
    except Exception as exc:  # malformed params reject the argument
        problems = {"C": f"replay error: {exc}"}
    ring_table = functools.cache(
        lambda: build_table(RingPresentation.from_spec(cert.ring)))
    claim = CertStep("C", "pattern", EXACT, "",
                     {"pattern": cert.pattern, "params": cert.params,
                      "polys": {step.sid: step.payload.get("poly")
                                for step in cert.steps
                                if step.kind == "ring-reduce"}})
    ok, detail = _replay(_verify_pattern, claim, cert.ring, ring_table)
    if not ok:
        problems.setdefault("C", detail)
    results = []
    passed_sids = set()
    top = cert.ring["top"]
    for step in cert.steps:
        if step.kind != "chain" and step.kind not in _VERIFIERS:
            ok, detail = False, f"unknown step kind {step.kind!r}"
        elif step.mode != EXACT:
            ok, detail = False, (f"labelled {step.mode}, but every step is "
                                 f"{EXACT}")
        elif step.kind == "chain":
            ok, detail = _verify_chain(step, passed_sids)
        elif step.kind in _RING_KINDS:
            ok, detail = _replay(_VERIFIERS[step.kind], step, cert.ring,
                                 ring_table)
        else:
            ok, detail = _replay(_VERIFIERS[step.kind], step)
            if ok and step.kind in _PREMISE_CHECKS:
                try:
                    ok, agreement = _PREMISE_CHECKS[step.kind](step, cert, passed_sids)
                except Exception as exc:  # replay errors reject the step
                    ok, agreement = False, f"replay error: {exc}"
                detail = detail + agreement if ok else agreement
        if ok and step.payload.get("n", top) != top:
            ok, detail = False, (f"proved in dimension {step.payload['n']}, "
                                 f"but the ring's top degree is {top}")
        if ok and step.sid in problems:
            ok, detail = False, problems[step.sid]
        results.append(StepResult(step.sid, step.kind, step.mode, ok, detail))
        if ok:
            passed_sids.add(step.sid)
    # a certificate without its chain fails as one
    results += [StepResult(sid, "chain", EXACT, False, detail)
                for sid, detail in problems.items()
                if all(step.sid != sid for step in cert.steps)]
    status = ACCEPTED if all(r.passed for r in results) else REJECTED
    return VerificationReport(status=status, trials=trials, seed=seed,
                              results=results)


def _assemble(pattern, params, table, payloads, values, notes=()):
    """The certificate of `pattern` on `table`'s ring, its steps in table
    order, once it verifies.  `payloads` holds each step's ring-dependent
    payload, and the statements quote `params` and `values`."""
    fill = {**params, **values, "lemma": _NORMAL_FORM_LEMMA}
    steps = []
    for row in _rows(pattern, params).values():
        steps.append(CertStep(
            row.sid, row.kind, EXACT, row.statement.format_map(fill),
            copy.deepcopy(row.payload) | payloads.get(row.sid, {}),
            tuple(s.sid for s in steps) if row.kind == "chain" else row.uses))
    cert = Certificate(pattern, params, INFEASIBLE, steps,
                       ring=table.presentation.spec(), notes=list(notes))
    report = verify_certificate(cert)
    if not report.accepted:
        bad = report.failures()[0]
        raise CertificateUnavailableError(
            f"certificate step {bad.sid} ({bad.kind}) failed during emission: "
            f"{bad.detail}", failed_step=bad.sid)
    return cert


# -- rank/kernel family --------------------------------------------------------


def rank_kernel_certificate(table, u_str, v_str, c):
    """u^3 = 0 forces a kernel direction; contracting v^2 + c u^2 = 0 along it
    kills i_w v ^ v, hence i_w(v^3) = 0, against v^3 being a volume form."""
    c = Fraction(c)
    if c == 0:
        raise PatternInapplicableError(
            "c = 0 is the trivial-bundle case, which is realizable; "
            "the rank/kernel certificate needs c != 0")
    params = _certificate_params("RANK_KERNEL", {"c": c, "u": u_str, "v": v_str})
    polys = _row_polys("RANK_KERNEL", params, table.presentation.gens)
    payloads = {sid: {"poly": poly_to_string(polys[sid]), "expect_zero": True}
                for sid in ("R1", "R2")}
    mu, payloads["R3"] = _volume_claim(table, polys["R3"])
    if mu is None:
        raise CertificateUnavailableError("v^3 is not a multiple of the volume")
    return _assemble(
        "RANK_KERNEL", params, table, payloads, {"mu": mu},
        ["INFEASIBLE means: no constant-coefficient forms on R^6 satisfy these "
         "relations with the pinned volume; geometric formality with "
         "invariant harmonic forms would require such a realization"])


# -- Lefschetz family ----------------------------------------------------------


def lefschetz_certificate(table, omega_str, annih_str):
    params = _certificate_params("LEFSCHETZ", {"omega": omega_str,
                                               "annihilator": annih_str})
    polys = _row_polys("LEFSCHETZ", params, table.presentation.gens)
    payloads = {
        "R2": {"poly": poly_to_string(polys["R2"]), "expect_zero": True},
        "R3": {"poly": poly_to_string(polys["R3"]), "expect_nonzero": True},
    }
    mu, payloads["R1"] = _volume_claim(table, polys["R1"])
    if mu is None:
        raise CertificateUnavailableError("omega^3 is not a volume multiple")
    return _assemble("LEFSCHETZ", params, table, payloads, {"mu": mu})


# -- three-generator biquotient family ----------------------------------------


# The forms of x1, x2 and x3 in the exact realization of the (0, 0) member.
_TOTARO_WITNESS = ("-1/4 e5^e6", "2 e3^e4 - 2 e1^e4 - e2^e3",
                   "2 e1^e2 - 2 e3^e4 + 4 e1^e4 + 2 e2^e3")


def certify_totaro(a, b):
    """Certificate for the built-in ring totaro(a, b), emitted on its table
    as `certify_table` emits on any ring."""
    table = build_table(builtin_presentation("totaro", a=a, b=b))
    return certify_table(table, pattern_match(table))


def totaro_certificate(table, order, a, b):
    """Certificate for a ring of the three-generator family with parameters
    (a, b), whose generators `order` names in the roles x1, x2, x3 (see
    `ring.totaro_relations`).

    Dispatches on the vanishing pattern of (a, b) and argues in the
    generators t*x1, y1 and y2 (see `_totaro_case`); (0, 0) admits an exact
    pointwise realization, so emission fails honestly with the witness.
    """
    case, t, bp = _totaro_case(a, b)
    params = _certificate_params("TOTARO", {"a": a, "b": b})
    witness = dict(zip(order, _TOTARO_WITNESS)) if case == 4 else None
    g1, g2, g3 = order
    x1_str = g1 if t in (0, 1) else f"{t}*{g1}"
    y1_str, y2_str = (
        (f"{x1_str} + {3 / bp}*{g2}", f"{x1_str} + 3/2*{g3}") if case == 1 else
        {2: (f"{x1_str} + 3*{g2}", g3), 3: (g2, f"{x1_str} + 3/2*{g3}"),
         4: (f"{g2} + {g3}", f"{g2} + 1/2*{g3}")}[case])
    x1, y1, y2 = (parse_poly(s, table.presentation.gens)
                  for s in (x1_str, y1_str, y2_str))
    values = {"x1": x1_str, "y1": y1_str, "y2": y2_str,
              "change": "" if x1_str == "x1" else f" for x1 := {x1_str}",
              "instance": f"b = {bp}" if t == 1 else f"b/a = {bp}"}
    payloads = {}

    # ring identities for the chosen combinations
    lam1, payloads["T2"] = _volume_claim(table, x1 * y1 * y1)
    lam2, payloads["T2b"] = _volume_claim(table, x1 * y2 * y2)
    if lam1 is None or lam2 is None:
        raise CertificateUnavailableError(
            "x1*y1^2 or x1*y2^2 is not a nonzero volume multiple; the "
            "contraction argument cannot start", failed_step="T2",
            witness=witness)
    values |= {"lam1": lam1, "lam2": lam2}
    payloads["T1"] = {"poly": poly_to_string(y1 * y1 * y1), "expect_zero": True}
    payloads["T1b"] = {"poly": poly_to_string(y2 * y2 * y2), "expect_zero": True}

    # rewrite the two non-square relations in (x1, y1, y2)
    _, rel2, rel3 = totaro_relations(table.presentation, order)
    D2, D3 = _rewritten_relations(table, (rel2, rel3), payloads, values)

    # eliminate the x1*y2 monomial with a combination having alpha != 0
    comb = _eliminating_combination(D2, D3)
    if comb is None:
        raise CertificateUnavailableError(
            "the rewritten relations do not couple x1 to y1: no combination "
            "with a nonzero x1*y1 coefficient exists (this happens exactly "
            "when a = b = 0, where the ring is realizable; witness attached)",
            failed_step="T5", witness=witness)
    k2, k3, T, alpha, beta, gamma, delta = comb
    coefficients = {"alpha": alpha, "beta": beta, "gamma": gamma,
                    "delta": delta}
    # on relations with unit x2^2 and x3^2 terms, eliminating x1*y2 leaves
    # alpha = (2b/81)*(5b - 2b^2 - 4); T6 checks it at this b
    factor = 2 * bp / 81 * rel2.coefficient(g2, g2) * rel3.coefficient(g3, g3)
    values |= coefficients | {"k2": k2, "k3": k3, "factor": factor}
    payloads |= {
        "T5": {"generators": generators_to_spec(D2.gens),
               "combination": [[str(k2), poly_to_string(D2)],
                               [str(k3), poly_to_string(D3)]],
               "equals": poly_to_string(T)},
        "T6": {"instance": str(bp), "alpha": str(alpha), "factor": str(factor)},
        "P6": {k: str(v) for k, v in coefficients.items()},
    }

    notes = ["the y2 = x1 + 6*x3 variant of this recipe has y2^3 = -216 * "
             "x1x2x3 != 0; y2 = x3 satisfies every required identity and the "
             "cascade goes through unchanged"] if case == 2 else []
    notes.append(
        "the auxiliary product y1 y2^2 is not needed by the cascade and is "
        "omitted; it can vanish (e.g. normalized b = 2) even when the "
        "obstruction applies")
    return _assemble("TOTARO", params, table, payloads, values, notes)


def _volume_claim(table, poly):
    """(mu, payload): poly = mu * vol in the ring with mu != 0, and the
    ring-reduce payload that checks it; mu is None when no such mu exists."""
    mu = table.volume_coefficient(poly) or None
    return mu, {"poly": poly_to_string(poly),
                "expect": {table.monomial_name(table.volume()): str(mu)}}


def _rewritten_relations(table, relations, payloads, values):
    """Rewrite `relations`, relations 2 and 3 of the family, in the
    generators x1, y1, y2 that `values` writes over the ring's; return them
    less their x1^2 terms, and put the payloads of T3 and T4 that
    substantiate them, and the x1^2 coefficients they drop and the
    relations' indices in the ring, into `payloads` and `values`."""
    gens = table.presentation.gens
    new_gens, images = _generator_change(
        gens, {name: values[name] for name in ("x1", "y1", "y2")})
    out = []
    for i, rel in enumerate(relations, start=2):
        mapped = rel.map_generators(new_gens, images)
        D, values[f"square{i}"] = _split_x1_square(mapped)
        out.append(D)
        values[f"relation{i}"] = table.presentation.relations.index(rel)
        payloads[f"T{i+1}"] = {
            "generators_old": generators_to_spec(gens),
            "generators_new": generators_to_spec(new_gens),
            "images": {k: poly_to_string(v) for k, v in images.items()},
            "relation": values[f"relation{i}"], "poly": poly_to_string(rel),
            "equals": poly_to_string(mapped)}
    return out[0], out[1]


def _split_x1_square(poly):
    """(poly less its x1^2 term, that term's coefficient)."""
    x1sq = tuple(2 if g.name == "x1" else 0 for g in poly.gens)
    lam = poly.terms.get(x1sq, 0)
    return poly - GradedPoly(poly.gens, {x1sq: lam}), lam


def _eliminating_combination(D2, D3):
    """(k2, k3) with k2 D2 + k3 D3 free of x1*y2 and with x1*y1 coefficient
    alpha != 0; returns (k2, k3, T, alpha, beta, gamma, delta) or None."""
    c2, c3 = D2.coefficient("x1", "y2"), D3.coefficient("x1", "y2")
    candidates = [(c3, -c2)] if c2 and c3 else []
    if c2 == 0:
        candidates.append((Fraction(1), Fraction(0)))
    if c3 == 0:
        candidates.append((Fraction(0), Fraction(1)))
    for k2, k3 in candidates:
        T = D2.scale(k2) + D3.scale(k3)
        alpha = T.coefficient("x1", "y1")
        if alpha != 0:
            return (k2, k3, T, alpha, T.coefficient("y1", "y2"),
                    T.coefficient("y1", "y1"), T.coefficient("y2", "y2"))
    return None


# -- dispatch ------------------------------------------------------------------


def certify_table(table, tag):
    """Emit the certificate family of `tag`, the `pattern_match` of `table`
    that the caller already holds (the verifier matches the ring anew)."""
    if tag.kind == "TOTARO":
        return totaro_certificate(table, tag.params["order"], tag.params["a"],
                                  tag.params["b"])
    if tag.kind == "RANK_KERNEL":
        return rank_kernel_certificate(table, tag.params["u"], tag.params["v"],
                                       tag.params["c"])
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
