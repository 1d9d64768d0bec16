"""Certificate emission and independent verification."""

import copy
import random
from fractions import Fraction

import pytest

from geoformal import certify
from geoformal.certify import (ACCEPTED, INFEASIBLE, REJECTED, certify_table,
                               certify_totaro, rank_kernel_certificate,
                               verify_certificate)
from geoformal.errors import (CertificateUnavailableError,
                              PatternInapplicableError, RingError)
from geoformal.exterior import MAX_DIM, Multivector, grade_masks, wedge_terms
from geoformal.realize import (builtin_problem, relation_values_exact,
                               residual_exact)
from geoformal.ring import (GradedPoly, RingPresentation, build_table,
                            builtin_presentation, generators_from_spec,
                            parse_poly, pattern_match, poly_to_string)

from conftest import certificate


def test_rank_kernel_family():
    for c in (1, -1, 2, -2, Fraction(-5)):
        cert = certificate("sphere-bundle", c=c)
        assert cert.verdict == INFEASIBLE
        assert cert.pattern == "RANK_KERNEL"
        rep = verify_certificate(cert, trials=40, seed=2)
        assert rep.status == ACCEPTED
        assert not rep.failures()


def test_rank_kernel_c_zero_inapplicable():
    table = build_table(builtin_presentation("sphere-bundle", c=0))
    with pytest.raises(PatternInapplicableError):
        rank_kernel_certificate(table, "x", "y", 0)


def test_rank_kernel_on_ex1(ex1_table):
    cert = certify_table(ex1_table, pattern_match(ex1_table))
    assert cert.verdict == INFEASIBLE
    assert cert.pattern == "RANK_KERNEL"
    assert Fraction(cert.params["c"]) == -5
    assert verify_certificate(cert, trials=40, seed=3).status == ACCEPTED


def test_lefschetz_certificate(ex2_table):
    cert = certify_table(ex2_table, pattern_match(ex2_table))
    assert cert.verdict == INFEASIBLE
    assert cert.pattern == "LEFSCHETZ"
    rep = verify_certificate(cert, trials=40, seed=4)
    assert rep.status == ACCEPTED


def test_certificates_have_only_exact_steps(builtin_certificates):
    for c in builtin_certificates:
        assert {s.mode for s in c.steps} == {"EXACT"}, c.ring["name"]
    cert = certify_totaro(1, 1)
    kinds = {s.kind for s in cert.steps}
    assert "quadratic-no-real-roots" in kinds
    assert "symbolic-evaluation" in kinds
    assert cert.steps[-1].kind == "chain"
    assert set(cert.steps[-1].uses) == {s.sid for s in cert.steps[:-1]}


@pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 1), (0, 1), (1, 0),
                                 (0, -2), (-2, 0), (-1, -1), (2, -2)])
def test_totaro_family_grid(a, b):
    cert = certify_totaro(a, b)
    assert cert.verdict == INFEASIBLE
    rep = verify_certificate(cert, trials=25, seed=6)
    assert rep.status == ACCEPTED, rep.failures()


def test_totaro_case_dispatch():
    assert certify_totaro(1, 1).params["case"] == 1
    assert certify_totaro(0, 1).params["case"] == 2
    assert certify_totaro(1, 0).params["case"] == 3
    assert certify_totaro(3, 6).params["case"] == 1


def test_totaro_case1_keeps_symbolic_b_facts():
    cert = certify_totaro(1, 2)
    quad = [s for s in cert.steps if s.kind == "quadratic-no-real-roots"]
    assert quad, "case 1 must carry the discriminant step"
    payload = quad[0].payload
    disc = (Fraction(payload["b"]) ** 2
            - 4 * Fraction(payload["a"]) * Fraction(payload["c"]))
    assert disc == -7


@pytest.mark.parametrize("a,b", [(1, b) for b in range(-3, 4) if b] + [(2, -1)])
def test_totaro_t6_states_the_alpha_it_checks(a, b):
    """T6 uses T5 and states the alpha its payload carries, T5's and P6's,
    which is (2b/81)*(5b - 2b^2 - 4) at b/a; with a wrong alpha T6 fails."""
    import re
    cert = certify_totaro(a, b)
    t6 = cert.step("T6")
    alpha = Fraction(t6.payload["alpha"])
    bp = Fraction(b, a)
    assert t6.uses == ("T5",)
    assert re.findall(r"alpha = ([-/0-9]+);", t6.statement) == [str(alpha)]
    assert alpha == Fraction(cert.step("P6").payload["alpha"])
    assert Fraction(t6.payload["factor"]) == 2 * bp / 81
    assert alpha == 2 * bp / 81 * (5 * bp - 2 * bp * bp - 4)
    bad = copy.deepcopy(cert)
    bad.step("T6").payload["alpha"] = str(-alpha)
    assert verify_certificate(bad).status == REJECTED
    assert set(_rejected_sids(bad)) == {"T6", "C"}


@pytest.mark.parametrize("change,detail", [
    ({}, "alpha = (2/81)*(-1) != 0 at 1"),
    ({"alpha": "2/81"}, "alpha 2/81 is not (2/81)*(-1)"),
    ({"factor": "0", "alpha": "0"}, "the factor is 0"),
    ({"a": "1", "b": "-2", "c": "1", "alpha": "0"}, "discriminant 0 is not negative"),
    ({"a": "0", "b": "1", "c": "1", "alpha": "4/81"}, "discriminant 1 is not negative"),
], ids=["intact", "wrong-alpha", "zero-factor", "double-root", "linear"])
def test_quadratic_step_checks_factor_value_and_discriminant(change, detail):
    """The quadratic step holds exactly when alpha is the factor times the
    quadratic at the instance, the factor is not 0 and the discriminant is
    negative."""
    payload = {"a": "-2", "b": "5", "c": "-4", "instance": "1",
               "alpha": "-2/81", "factor": "2/81"} | change
    step = certify.CertStep("T6", "quadratic-no-real-roots", "EXACT", "", payload)
    ok, got = certify._verify_quadratic_no_real_roots(step)
    assert (ok, detail in got) == (not change, True)


def test_totaro_00_unavailable_with_witness(parse_form):
    with pytest.raises(CertificateUnavailableError) as err:
        certify_totaro(0, 0)
    assert err.value.witness is not None
    # the attached witness is exact: replay it against the problem
    problem = builtin_problem("totaro", a=0, b=0)
    assignment = {name: parse_form(text, problem.n)
                  for name, text in err.value.witness.items()}
    assert set(assignment) == {"x1", "x2", "x3"}
    assert residual_exact(problem, assignment) == 0
    _, vol = relation_values_exact(problem, assignment)
    assert vol.coeff_mask((1 << problem.n) - 1) == 1


def test_corrupted_certificate_rejected():
    cert = certificate("sphere-bundle", c=1)
    bad = copy.deepcopy(cert)
    expect = bad.step("R3").payload["expect"]
    key = next(iter(expect))
    expect[key] = str(-Fraction(expect[key]))  # sign flip in step R3
    rep = verify_certificate(bad, trials=5, seed=0)
    assert rep.status == REJECTED
    assert any(f.sid == "R3" for f in rep.failures())
    # chain steps depending on a failed premise also fail
    assert any(f.sid == "C" for f in rep.failures())


def test_corrupted_combination_rejected():
    cert = certify_totaro(1, 1)
    bad = copy.deepcopy(cert)
    t5 = bad.step("T5")
    coeff, poly = t5.payload["combination"][0]
    t5.payload["combination"][0] = [str(Fraction(coeff) + 1), poly]
    rep = verify_certificate(bad, trials=5, seed=0)
    assert rep.status == REJECTED


def test_verification_deterministic():
    cert = certificate("sphere-bundle", c=2)
    # two real replays, not one replay and a memo hit
    certify._STEP_MEMO.clear()
    r1 = verify_certificate(cert, trials=20, seed=9)
    certify._STEP_MEMO.clear()
    r2 = verify_certificate(cert, trials=20, seed=9)
    assert [(s.sid, s.passed, s.detail) for s in r1.results] == \
        [(s.sid, s.passed, s.detail) for s in r2.results]


def test_corrupted_copy_rejected_after_original_accepted():
    cert = certificate("sphere-bundle", c=1)
    assert verify_certificate(cert, trials=5, seed=0).status == ACCEPTED
    bad = copy.deepcopy(cert)
    expect = bad.step("R3").payload["expect"]
    key = next(iter(expect))
    expect[key] = str(-Fraction(expect[key]))
    rep = verify_certificate(bad, trials=5, seed=0)
    assert rep.status == REJECTED
    assert {f.sid for f in rep.failures()} == {"R3", "C"}


def _counting(monkeypatch, kind, fail_first=False):
    """Replace the verifier of `kind` by a wrapper that records the arguments
    after the step of each call (none, but the table of a ring-reduce or
    substitution-identity)."""
    inner = certify._VERIFIERS[kind]
    calls = []

    def wrapper(step, *args):
        calls.append(args)
        if fail_first and len(calls) == 1:
            raise RuntimeError("transient failure")
        return inner(step, *args)

    monkeypatch.setitem(certify._VERIFIERS, kind, wrapper)
    return calls


def test_p5_p6_replayed_once_across_trials_and_seeds(monkeypatch):
    cert = certify_totaro(1, 1)
    verify_certificate(cert, trials=3, seed=1)
    # the wrappers are other verifiers: the plain ones' results are no hits
    p5_calls = _counting(monkeypatch, "kernel-transversality")
    p6_calls = _counting(monkeypatch, "cascade-contraction")
    reports = [verify_certificate(cert, trials=trials, seed=seed)
               for trials, seed in ((3, 1), (3, 1), (4, 1), (3, 2), (10**6, 9))]
    assert {r.status for r in reports} == {ACCEPTED}
    assert p5_calls == p6_calls == [()]  # called once, with the step alone


def test_exact_step_replayed_once_across_trials_and_seeds(monkeypatch):
    cert = certificate("sphere-bundle", c=2)
    calls = _counting(monkeypatch, "rank-from-cube")
    reports = [verify_certificate(cert, trials=trials, seed=seed)
               for trials, seed in ((3, 1), (3, 1), (4, 1), (3, 2), (1000, 9))]
    assert {r.status for r in reports} == {ACCEPTED}
    assert calls == [()]  # called once, with the step alone


def test_replay_error_is_not_memoized(monkeypatch):
    cert = certificate("sphere-bundle", c=2)
    calls = _counting(monkeypatch, "volume-contraction", fail_first=True)
    first = verify_certificate(cert, trials=3, seed=1)
    assert first.status == REJECTED
    (bad,) = [r for r in first.failures() if r.sid == "P4"]
    assert bad.detail == "replay error: transient failure"
    second = verify_certificate(cert, trials=3, seed=1)
    assert len(calls) == 2
    assert second.status == ACCEPTED


def test_payload_without_faithful_json_is_replayed(monkeypatch):
    cert = copy.deepcopy(certificate("sphere-bundle", c=2))
    # a tuple reads back from JSON as a list, so its text is no safe key
    cert.step("P1").payload["unused"] = (1, 2)
    calls = _counting(monkeypatch, "rank-from-cube")
    verify_certificate(cert, trials=3, seed=1)
    verify_certificate(cert, trials=3, seed=1)
    assert len(calls) == 2


def test_warm_verification_equals_cold():
    cert = certify_totaro(1, 1)
    certify._STEP_MEMO.clear()
    cold = verify_certificate(cert, trials=5, seed=4)
    warm = verify_certificate(cert, trials=5, seed=4)
    assert cold.status == warm.status == ACCEPTED
    assert [(s.sid, s.passed, s.detail) for s in cold.results] == \
        [(s.sid, s.passed, s.detail) for s in warm.results]


class _NoDraws:
    """An rng whose every method raises: an exact step must draw nothing."""

    def __getattr__(self, name):
        raise AssertionError(f"exact step called rng.{name}")


def test_exact_kinds_are_exact_without_draws(builtin_certificates, monkeypatch):
    """Every step passes with the same result at 1 and 10,000 trials and at
    two seeds, replayed afresh, while every rng raises on use."""
    monkeypatch.setattr(random, "Random", lambda *args, **kwargs: _NoDraws())
    runs = []
    for trials, seed in ((1, 0), (10_000, 7)):
        certify._STEP_MEMO.clear()
        runs.append([(r.sid, r.kind, r.passed, r.detail)
                     for cert in builtin_certificates
                     for r in verify_certificate(cert, trials, seed).results
                     if r.kind != "chain"])
    assert runs[0] == runs[1]
    assert all(passed for _, _, passed, _ in runs[0])
    assert {kind for _, kind, _, _ in runs[0]} == set(certify._VERIFIERS)
    assert ("P4", "volume-contraction", True,
            "the volume form is nondegenerate: i_v(vol) != 0 for v != 0") in runs[0]


@pytest.mark.parametrize("identity", certify._CONTRACTIONS)
def test_contraction_identities_checked_on_every_basis_case(identity):
    """One check for every identity: 15 2-blades a, 15 + 15 2- and 4-blades
    b and 6 basis vectors."""
    assert certify._verify_contraction_identity(_contraction_step(identity)) == (
        True, f"antiderivation identity {identity} holds on all "
              f"{15 * 30 * 6} basis cases, hence for all arguments")


def test_contraction_identities_are_the_ones_the_families_emit():
    """Tooling guard: the check knows exactly the identities that some
    family's row fixes, so an identity no certificate uses cannot linger."""
    fixed = {row.payload["identity"] for rows in certify._FAMILIES.values()
             for row in rows if "identity" in row.payload}
    assert set(certify._CONTRACTIONS) == fixed


def _contraction_step(identity):
    return certify.CertStep("P", "contraction-identity", "EXACT", "",
                            {"identity": identity, "n": 6})


def _flipped_interior(monkeypatch, *flips):
    """Make `certify.interior` flip the sign of i_{e_k}(e_M) for each (k, M)
    in `flips`, extended linearly and whatever the tag of e_M: still linear
    in the form, no longer an antiderivation."""
    real = certify.interior

    def broken(v, a):
        image = real(v, a)
        for k, mask in flips:
            if v != [int(j == k) for j in range(len(v))]:
                continue
            for key in [key for key in a if key & (1 << MAX_DIM) - 1 == mask]:
                for m, c in real(v, {key: a[key]}).items():
                    image[m] = image.get(m, 0) - 2 * c
        return {m: c for m, c in image.items() if c}

    monkeypatch.setattr(certify, "interior", broken)


# (k, M) pairs and the first failing vector, as reported pair by pair with
# each pair's vectors in order; a scan over the vectors first would report
# the smaller k for the first, third and fourth entries.  The 2-blade images
# enter the right sides only, the 6-blade's the left sides only.
_BROKEN_CONTRACTIONS = [
    (((1, 0b000011), (0, 0b100001)), "e2"),  # i_e2(e1^e2), i_e1(e1^e6)
    (((4, 0b010010), (2, 0b100100)), "e3"),  # i_e5(e2^e5), i_e3(e3^e6)
    (((3, 0b001111), (0, 0b111001)), "e4"),  # i_e4(e1^e2^e3^e4), i_e1(e1^e4^e5^e6)
    (((4, 0b111111), (2, 0b011101)), "e5"),  # i_e5(e1^...^e6), i_e3(e1^e3^e4^e5)
]


@pytest.mark.parametrize("flips,vector", _BROKEN_CONTRACTIONS)
@pytest.mark.parametrize("identity", certify._CONTRACTIONS)
def test_contraction_identity_reports_first_failing_vector(
        monkeypatch, identity, flips, vector):
    _flipped_interior(monkeypatch, *flips)
    assert certify._verify_contraction_identity(_contraction_step(identity)) \
        == (False, f"identity {identity} fails at v = {vector}")


def test_unknown_contraction_identity_is_rejected():
    assert certify._verify_contraction_identity(
        _contraction_step("interior-of-quadruple")) == (
        False, "unknown identity 'interior-of-quadruple'")


@pytest.mark.parametrize("identity", certify._CONTRACTIONS)
def test_contraction_identities_need_commuting_two_forms(monkeypatch, identity):
    """`certify.wedge_terms` patched so that a 2-form ^ 1-form picks up a
    sign, tagged or not, while every other product stays intact."""
    real = certify.wedge_terms

    def grades(form):
        return {(m & (1 << MAX_DIM) - 1).bit_count() for m in form}

    def skewed(left, right, out=None):
        sign = -1 if grades(left) == {2} and grades(right) == {1} else 1
        return real(left, {m: sign * c for m, c in right.items()}, out)

    assert skewed({0b011: 1}, {0b100: 1}) == {0b111: -1}
    assert skewed({0b100: 1}, {0b011: 1}) == {0b111: 1}
    monkeypatch.setattr(certify, "wedge_terms", skewed)
    assert certify._verify_contraction_identity(_contraction_step(identity)) \
        == (False, "2-forms do not commute with 1-forms")


def _counting_calls(monkeypatch, owner, name):
    """Count the calls of `owner.name`, which keeps working."""
    real, calls = getattr(owner, name), []

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("identity", certify._CONTRACTIONS)
def test_contraction_check_work_in_dimension_six(monkeypatch, identity):
    """Work guard: no `Multivector` wedge; the commutation pre-check takes 2
    term-dict wedges, all 15 * 6 pairs of a 2-blade and a vector at once;
    each of the 15 2-blades takes 3 term-dict wedges against all 30 2- and
    4-blades and all 6 vectors at once; `interior` runs once per vector, on
    the 15 2-blades, the 15 4-blades and the 6-blade at once, each tagged by
    its index, and their images give every right and left side."""
    forms = _counting_calls(monkeypatch, Multivector, "wedge")
    terms = _counting_calls(monkeypatch, certify, "wedge_terms")
    contractions = _counting_calls(monkeypatch, certify, "interior")
    ok, _ = certify._verify_contraction_identity(_contraction_step(identity))
    assert ok and (len(forms), len(terms), len(contractions)) == (
        0, 2 + 15 * 3, 6)


def _naive_contraction_check(identity, n):
    """`_verify_contraction_identity`'s verdict once 2-forms commute with
    1-forms: the rule i_v(a^b) = i_v a ^ b + a ^ i_v b for each 2-blade a,
    each 2- or 4-blade b and then each vector v = e_i in turn, from one
    untagged `exterior.wedge_terms` per product and `certify.interior`: no
    tags, no images."""
    def wedge(a, b, out=None):
        return {m: c for m, c in wedge_terms(a, b, out).items() if c}

    vectors = [[int(i == j) for j in range(n)] for i in range(n)]
    checked = 0
    for a in ({m: 1} for m in grade_masks(n, 2)):
        for b in ({m: 1} for m in grade_masks(n, 2) + grade_masks(n, 4)):
            for i, v in enumerate(vectors):
                rhs = wedge(certify.interior(v, a), b,
                            wedge(a, certify.interior(v, b)))
                if certify.interior(v, wedge(a, b)) != rhs:
                    return False, f"identity {identity} fails at v = e{i + 1}"
                checked += 1
    return True, (f"antiderivation identity {identity} holds on all {checked} "
                  "basis cases, hence for all arguments")


@pytest.mark.parametrize("flips", [()] + [f for f, _ in _BROKEN_CONTRACTIONS],
                         ids=["intact", "flip-e2", "flip-e3", "flip-4-blade",
                              "flip-6-blade"])
@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("identity", sorted(certify._CONTRACTIONS))
def test_tagged_check_matches_naive_reference(monkeypatch, identity, n, flips):
    """Same verdict, case count and first failing vector as the naive check,
    with `interior` intact or flipped (at n = 4 only the flips inside R^4
    act)."""
    _flipped_interior(monkeypatch, *flips)
    step = certify.CertStep("P", "contraction-identity", "EXACT", "",
                            {"identity": identity, "n": n})
    assert certify._verify_contraction_identity(step) == \
        _naive_contraction_check(identity, n)


@pytest.mark.parametrize("name,params,sid,poly,detail", [
    ("sphere-bundle", {"c": 1}, "R1", "y^2 + x^2",
     "R1 reduces y^2 + x^2, but the params give x^3"),
    ("sphere-bundle", {"c": 2}, "R2", "x^3",
     "R2 reduces x^3, but the params give y^2 + 2*x^2"),
    ("eschenburg-ex2", {}, "R3", "x",
     "R3 reduces x, but the params give y + -1*x"),
], ids=["rank-kernel-R1-is-R2", "rank-kernel-R2-cube", "lefschetz-R3-x"])
def test_ring_reduce_polys_must_follow_from_params(name, params, sid, poly,
                                                   detail):
    """Each edited step still reduces as it claims (R2's poly is zero in the
    ring, x^3 too, and x is a nonzero class), so only the chain fails."""
    bad = copy.deepcopy(certificate(name, **params))
    bad.step(sid).payload["poly"] = poly
    certify._STEP_MEMO.clear()
    rep = verify_certificate(bad, trials=5, seed=5)
    assert rep.status == REJECTED
    (failure,) = rep.failures()
    assert (failure.sid, failure.detail) == ("C", detail)


@pytest.mark.parametrize("mutate,detail", [
    # vacuous: R^1 has no 2-blades, so the identity holds on 0 cases
    (lambda payload: payload.update(n=1),
     "proved in dimension 1, but the ring's top degree is 6"),
    (lambda payload: payload.pop("n"), "replay error: 'n'"),
], ids=["n-1", "n-deleted"])
def test_step_must_work_in_the_rings_dimension(mutate, detail):
    bad = copy.deepcopy(certify_totaro(1, 1))
    mutate(bad.step("P3").payload)
    failed = _rejected_sids(bad)
    assert set(failed) == {"P3", "C"}
    assert failed["P3"] == detail


def test_mislabelled_step_is_rejected():
    bad = copy.deepcopy(certify_totaro(1, 1))
    bad.step("P5").mode = "SAMPLED"
    rep = verify_certificate(bad, trials=5, seed=0)
    assert rep.status == REJECTED
    assert {f.sid for f in rep.failures()} == {"P5", "C"}
    (p5,) = [f for f in rep.failures() if f.sid == "P5"]
    assert "EXACT" in p5.detail and "SAMPLED" in p5.detail


def test_certify_draws_nothing():
    assert not hasattr(certify, "random")


def _rejected_sids(cert):
    rep = verify_certificate(cert, trials=5, seed=0)
    assert rep.status == REJECTED
    return {f.sid: f.detail for f in rep.failures()}


@pytest.mark.parametrize("change", [{"rank_b": 5}, {"n": 5}])
def test_kernel_transversality_needs_a_spare_kernel_dimension(change):
    bad = copy.deepcopy(certify_totaro(1, 1))
    bad.step("P5").payload.update(change)
    failed = _rejected_sids(bad)
    assert set(failed) == {"P5", "C"}
    assert "< 1" in failed["P5"]


def test_cascade_with_alpha_zero_is_rejected():
    bad = copy.deepcopy(certify_totaro(1, 1))
    bad.step("P6").payload["alpha"] = "0"
    failed = _rejected_sids(bad)
    assert set(failed) == {"P6", "C"}
    assert "alpha = 0" in failed["P6"]


def test_cascade_coefficients_must_match_t5():
    """P6 alpha -2/81 -> 79/81: the cascade itself still holds, but it no
    longer contracts the T that T5 derives."""
    bad = copy.deepcopy(certify_totaro(1, 1))
    assert bad.step("P6").payload["alpha"] == "-2/81"
    bad.step("P6").payload["alpha"] = "79/81"
    failed = _rejected_sids(bad)
    assert set(failed) == {"P6", "C"}
    assert failed["P6"].startswith("T5 derives T =")


def test_cascade_without_its_premise_is_rejected():
    bad = copy.deepcopy(certify_totaro(1, 1))
    bad.step("P6").uses = ()
    assert set(_rejected_sids(bad)) == {"P6", "C"}


def _rewrite(cert, sid, poly):
    """Set the `poly` of the rewrite step `sid` and re-expand its `equals`
    under the step's own generator change, so the substitution still holds."""
    p = cert.step(sid).payload
    old, new = (generators_from_spec(p[k]) for k in ("generators_old",
                                                     "generators_new"))
    images = {k: parse_poly(v, new) for k, v in p["images"].items()}
    p["poly"] = poly
    p["equals"] = poly_to_string(parse_poly(poly, old).map_generators(new, images))


@pytest.mark.parametrize("poly,relation", [
    ("2*x1*x2 + 3*x2*x3 + 2*x2^2", 1),  # no relation of the ring
    ("T4", 1),  # T4's relation, relations[2], named as relations[1]
    ("T3", 2),  # T3's own relation, relations[1], named as relations[2]
], ids=["made-up-relation", "another-relation", "another-index"])
def test_rewrite_step_must_rewrite_the_named_relation(poly, relation):
    """totaro(1, 1) with T3's `poly` or `relation` replaced and `equals`
    re-expanded: the substitution holds, but T3 no longer rewrites the
    ring's relations[i] it names, so T3 fails, and with it T5 and P6, which
    rest on it."""
    bad = copy.deepcopy(certify_totaro(1, 1))
    assert bad.step("T3").payload["relation"] == 1
    poly = bad.step(poly).payload["poly"] if poly in ("T3", "T4") else poly
    _rewrite(bad, "T3", poly)
    bad.step("T3").payload["relation"] = relation
    failed = _rejected_sids(bad)
    assert set(failed) == {"T3", "T5", "P6", "C"}
    assert failed["T3"] == f"{poly} is not the ring's relations[{relation}]"
    assert failed["T5"] == "premise T3 is not a verified substitution-identity"


def test_combination_must_use_the_rewritten_relations():
    """T5 with D2 + k3*y1*y2 and D3 - k2*y1*y2 combined: k2 D2 + k3 D3 is the
    same T, so the identity and P6 hold, but D2 is no longer T3's `equals`
    less its x1^2 term."""
    bad = copy.deepcopy(certify_totaro(1, 1))
    p = bad.step("T5").payload
    gens = generators_from_spec(p["generators"])
    (k2, d2), (k3, d3) = p["combination"]
    shift = parse_poly("y1*y2", gens)
    p["combination"] = [
        [k2, poly_to_string(parse_poly(d2, gens) + shift.scale(Fraction(k3)))],
        [k3, poly_to_string(parse_poly(d3, gens) - shift.scale(Fraction(k2)))]]
    assert certify._verify_poly_identity(bad.step("T5"))[0]
    failed = _rejected_sids(bad)
    assert set(failed) == {"T5", "P6", "C"}
    assert failed["T5"] == (f"T3 derives {parse_poly(d2, gens)} less x1^2, but "
                            f"T5 combines {p['combination'][0][1]}")


def test_combination_without_its_premises_is_rejected():
    bad = copy.deepcopy(certify_totaro(1, 1))
    bad.step("T5").uses = ()
    assert set(_rejected_sids(bad)) == {"T5", "P6", "C"}


@pytest.mark.parametrize("dropped", ["P6", "C"])
def test_dropped_step_is_rejected(dropped):
    """A step gone from the steps and from the chain's `uses`: every step
    left still passes, but the argument is not the TOTARO table's.  Without
    its chain a certificate fails as if the chain did."""
    bad = copy.deepcopy(certify_totaro(1, 1))
    bad.steps = [s for s in bad.steps if s.sid != dropped]
    for step in bad.steps:
        step.uses = tuple(sid for sid in step.uses if sid != dropped)
    assert _rejected_sids(bad) == {
        "C": f"not the TOTARO table's steps: missing ['{dropped}']"}


def test_bare_chain_is_rejected():
    bad = copy.deepcopy(certificate("sphere-bundle", c=1))
    bad.steps = [bad.step("C")]
    bad.step("C").uses = ()
    failed = _rejected_sids(bad)
    assert set(failed) == {"C"}
    assert failed["C"].startswith("not the RANK_KERNEL table's steps: missing")


def test_step_of_another_kind_is_rejected():
    """P4 relabelled rank-from-cube: that claim holds on its payload too, but
    the table has volume-contraction at P4."""
    bad = copy.deepcopy(certificate("sphere-bundle", c=1))
    bad.step("P4").kind = "rank-from-cube"
    assert _rejected_sids(bad) == {
        "P4": "kind 'rank-from-cube', not the table's 'volume-contraction'",
        "C": "premises ['P4'] missing or failed"}


@pytest.mark.parametrize("sid,change", [
    ("P3", {"identity": "interior-of-square"}),
    # x^2 + 1 has no real zeros either, and at b = 1 alpha = (2/81)*2
    ("T6", {"a": "1", "b": "0", "c": "1", "alpha": "4/81"}),
], ids=["P3-square", "T6-other-quadratic"])
def test_fixed_payload_of_another_lemma_is_rejected(sid, change):
    """The changed step still proves a true claim, but not the one the
    table's row fixes for that step."""
    bad = copy.deepcopy(certify_totaro(1, 1))
    bad.step(sid).payload.update(change)
    failed = _rejected_sids(bad)
    assert set(failed) == {sid, "C"}
    assert failed[sid].startswith("payload differs from the table's")


def test_emitted_payloads_share_nothing():
    """Changing one certificate's payloads in place leaves the next one's
    intact: no payload, or anything inside it, is shared between emissions."""
    first = certify_totaro(2, 1)
    for step in first.steps:
        for value in step.payload.values():
            if isinstance(value, (list, dict)):
                value.clear()
        step.payload.clear()
    second = certify_totaro(2, 1)
    assert second.step("P7").payload["zero_pairs"]
    assert verify_certificate(second, trials=5, seed=0).status == ACCEPTED


@pytest.mark.parametrize("vector,name,image,detail", [
    ("u1", "y1", "nu", "i_u2 has no image of nu, x1"),  # u1 not in ker y1
    ("u1", "y1", "y2", "i_u1 y1 = 1*y2 has the wrong degree"),
    ("u2", "lam", None, "i_u2 has no image of lam"),
    ("w", "s", None, "i_w has no image of s"),
    ("u2", "mu", "s", "i_w has no image of y2"),
    ("w", "lam", "s", "i_w i_u2 i_u1 T = "),
])
def test_cascade_image_table_is_checked(monkeypatch, vector, name, image, detail):
    cert = certify_totaro(1, 1)  # emitted with the table intact
    monkeypatch.setattr(certify, "_STEP_MEMO", {})
    if image is None:
        monkeypatch.delitem(certify._CASCADE[vector], name)
    else:
        monkeypatch.setitem(certify._CASCADE[vector], name, (image, "patched"))
    ok, got = certify._verify_cascade_contraction(cert.step("P6"))
    assert not ok and got.startswith(detail)
    assert set(_rejected_sids(cert)) == {"P6", "C"}


def test_verification_does_not_depend_on_trials():
    cert = certify_totaro(1, 1)
    runs = []
    for trials in (1, 10**6):
        certify._STEP_MEMO.clear()
        runs.append([(r.sid, r.passed, r.detail)
                     for r in verify_certificate(cert, trials=trials).results])
    assert runs[0] == runs[1]
    assert all(passed for _, passed, _ in runs[0])


@pytest.fixture(scope="module")
def builtin_certificates():
    """One certificate of each built-in family and totaro case, with a
    totaro member whose argument rescales x1."""
    return [certificate("sphere-bundle", c=1), certificate("eschenburg-ex1"),
            certificate("eschenburg-ex2"),
            certify_totaro(1, 1), certify_totaro(2, 1), certify_totaro(0, 1),
            certify_totaro(1, 0)]


def test_ring_swap_is_rejected_after_original_accepted(monkeypatch):
    """No stored result is reused across rings: the same steps, trials and
    seed fail once the certificate names another ring, also through a
    wrapped ring-reduce verifier, which no stored result answers."""
    cert = certificate("sphere-bundle", c=1)
    assert verify_certificate(cert, trials=5, seed=0).status == ACCEPTED
    bad = copy.deepcopy(cert)
    bad.ring = builtin_presentation("sphere-bundle", c=2).spec()
    rep = verify_certificate(bad, trials=5, seed=0)
    assert rep.status == REJECTED
    assert {"R2", "C"} <= {f.sid for f in rep.failures()}
    calls = _counting(monkeypatch, "ring-reduce")
    assert verify_certificate(cert, trials=5, seed=0).status == ACCEPTED
    rep = verify_certificate(bad, trials=5, seed=0)
    assert rep.status == REJECTED
    assert {"R2", "C"} <= {f.sid for f in rep.failures()}
    assert [table.presentation.name for (table,) in calls] == \
        ["sphere-bundle(1)"] * 3 + ["sphere-bundle(2)"] * 3


def test_certificates_carry_their_ring_once(builtin_certificates):
    for cert in builtin_certificates:
        assert cert.ring["generators"] and cert.ring["relations"]
        assert not any("ring" in s.payload for s in cert.steps)


def test_verification_builds_one_table(monkeypatch):
    """A cold verification builds one table for all its ring-reduce and
    substitution-identity steps and the pattern check; a warm one builds
    none and replays no ring-reduce step."""
    cert = certify_totaro(1, 1)
    built = []

    def counting(presentation):
        built.append(presentation)
        return build_table(presentation)

    monkeypatch.setattr(certify, "build_table", counting)
    calls = _counting(monkeypatch, "ring-reduce")
    certify._STEP_MEMO.clear()  # the emission's self-check filled it
    assert verify_certificate(cert, trials=3, seed=1).status == ACCEPTED
    assert (len(built), len(calls)) == (1, 4)  # T1, T1b, T2, T2b
    assert verify_certificate(cert, trials=3, seed=1).status == ACCEPTED
    assert (len(built), len(calls)) == (1, 4)


def test_relabelled_rank_kernel_params_rejected():
    cert = certificate("sphere-bundle", c=1)
    assert verify_certificate(cert, trials=5, seed=0).status == ACCEPTED
    bad = copy.deepcopy(cert)
    bad.params["c"] = "0"
    rep = verify_certificate(bad, trials=5, seed=0)
    assert rep.status == REJECTED
    (failure,) = rep.failures()
    assert failure.sid == "C" and failure.detail.startswith("params ")


def test_edited_lefschetz_params_rejected():
    cert = certificate("eschenburg-ex2")
    assert cert.pattern == "LEFSCHETZ"
    assert verify_certificate(cert, trials=5, seed=0).status == ACCEPTED
    bad = copy.deepcopy(cert)
    bad.params["omega"] = "x"
    rep = verify_certificate(bad, trials=5, seed=0)
    assert rep.status == REJECTED
    (failure,) = rep.failures()
    assert failure.sid == "C" and failure.detail.startswith("params ")


def test_pattern_disagreeing_with_ring_rejected():
    """A redundant relation keeps every normal form, so every step still
    passes, but the ring no longer matches TOTARO (which wants exactly three
    relations): only the chain fails."""
    cert = certify_totaro(1, 1)
    bad = copy.deepcopy(cert)
    bad.ring["relations"].append("x1^3")
    rep = verify_certificate(bad, trials=5, seed=0)
    assert rep.status == REJECTED
    (failure,) = rep.failures()
    assert failure.sid == "C"
    assert failure.detail.startswith("pattern TOTARO, but the ring matches ")


@pytest.mark.parametrize("field,value", [("case", 3), ("a", "2"), ("b", "-1")],
                         ids=["case", "a", "b"])
def test_totaro_params_are_checked(field, value):
    """Every step still passes with one param of certify_totaro(1, 1) edited
    (the case stays 1, so the steps are the table's), so only the chain
    fails, on the params the ring matches."""
    bad = copy.deepcopy(certify_totaro(1, 1))
    bad.params[field] = value
    certify._STEP_MEMO.clear()
    rep = verify_certificate(bad, trials=5, seed=5)
    assert rep.status == REJECTED
    (failure,) = rep.failures()
    assert (failure.sid, failure.detail) == (
        "C", f"params {bad.params}, but the ring matches "
             "{'a': '1', 'b': '1', 'case': 1}")


def test_verifiers_cover_exactly_the_emitted_kinds(builtin_certificates):
    kinds = {s.kind for cert in builtin_certificates for s in cert.steps}
    assert set(certify._VERIFIERS) == kinds - {"chain"}


def test_dispatch_errors():
    formal_ring = build_table(builtin_presentation("wedge", p=5, q=7))
    with pytest.raises(PatternInapplicableError):
        certify_table(formal_ring, pattern_match(formal_ring))
    trivial = build_table(builtin_presentation("sphere-bundle", c=0))
    with pytest.raises(PatternInapplicableError):
        certify_table(trivial, pattern_match(trivial))


def test_general_rank_kernel_needs_volume_cube(ex2_table):
    # v^3 = 0 in the ex2 ring for v = x - y, so the family must refuse
    with pytest.raises(CertificateUnavailableError):
        rank_kernel_certificate(ex2_table, "x - y", "x + y", Fraction(1))


def test_search_never_feasible_on_certified_problems():
    """Soundness separation on a quick subset (full sweep in acceptance)."""
    from geoformal.realize import SearchConfig, search
    for name, params in (("sphere-bundle", {"c": 1}),
                         ("eschenburg-ex1", {}),
                         ("totaro", {"a": 1, "b": 1})):
        problem = builtin_problem(name, **params)
        out = search(problem, SearchConfig(restarts=8, seed=11))
        assert out.status == "NO_SOLUTION_FOUND"


def _corpus_ring(rng):
    """A ring on two degree-2 generators with top 6, with or without a
    volume monomial: random small relations in degrees 4 and 6, or the
    rank/kernel and Lefschetz shapes in random linear forms u, v, w."""
    gens = generators_from_spec([["x", 2], ["y", 2]])
    x, y = (GradedPoly.generator(gens, n) for n in ("x", "y"))
    small = (0, 0, 0, 1, -1, 2, -2, 3)

    def form(monomials):
        return sum((m.scale(rng.choice(small)) for m in monomials),
                   GradedPoly.zero(gens))

    if rng.random() < 0.4:
        u, v, w = (x.scale(rng.choice(small)) + y.scale(rng.choice(small))
                   for _ in range(3))
        c = rng.randint(-3, 3)
        rels = rng.choice([[v * v + u * u.scale(c), u.power(3)],
                           [u * v, w.power(3)],
                           [u * v, v.power(3) + u.power(3).scale(c)]])
    else:
        rels = [form([x * x, x * y, y * y]) for _ in range(rng.randint(1, 2))]
        rels += [form([x.power(3), x * x * y, x * y * y, y.power(3)])
                 for _ in range(rng.randint(0, 2))]
    volume = rng.choice([None] * 4 + ["x^3", "x^2*y", "x*y^2", "y^3"])
    return RingPresentation([["x", 2], ["y", 2]], rels, 6, volume_monomial=volume)


def _floats(value):
    """The floats anywhere inside `value` (dicts, lists and tuples)."""
    if isinstance(value, float):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [f for v in value for f in _floats(v)]
    return []


def test_matchers_on_a_seeded_corpus():
    """pattern_match never raises on two-generator rings (H^4 may have any
    dimension), and every RANK_KERNEL or LEFSCHETZ tag gives a certificate
    the verifier accepts.  No tag param, certificate param or step payload
    holds a float: a division of two int coefficients would put one there
    (and a `c` of `2.0` into the report)."""
    rng = random.Random(2023)
    kinds = {}
    for _ in range(300):
        try:
            table = build_table(_corpus_ring(rng))
        except RingError:  # the designated volume monomial is reducible
            continue
        tag = pattern_match(table)
        kinds[tag.kind] = kinds.get(tag.kind, 0) + 1
        assert not _floats(tag.params), str(tag)
        if tag.kind in ("RANK_KERNEL", "LEFSCHETZ"):
            cert = certify_table(table, tag)
            assert cert.pattern == tag.kind
            assert not _floats([cert.params] + [s.payload for s in cert.steps])
            assert verify_certificate(cert).status == ACCEPTED, str(tag)
    assert kinds.keys() >= {"RANK_KERNEL", "LEFSCHETZ", "NONE"}


@pytest.mark.parametrize("build, attr", [
    (lambda: certify.CertStep("P", "chain", "EXACT", ""), "payload"),
    (lambda: certify.Certificate("P1", {}, INFEASIBLE, [], {}), "notes"),
    (lambda: certify.VerificationReport(ACCEPTED, 1, 0), "results"),
    (lambda: certify._Row("P", "chain", ""), "payload"),
], ids=["CertStep.payload", "Certificate.notes", "VerificationReport.results",
        "_Row.payload"])
def test_records_do_not_share_a_default(build, attr):
    """Two records built without the list or dict get one each."""
    first, second = build(), build()
    assert getattr(first, attr) == getattr(second, attr)
    assert getattr(first, attr) is not getattr(second, attr)


def test_step_table_rows_are_read_only():
    row = certify._FAMILIES["RANK_KERNEL"][0]
    with pytest.raises(AttributeError):
        row.sid = "R9"
    assert row.sid == "R1"
