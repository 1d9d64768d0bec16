"""CLI commands, config ingestion, report formats, exit codes."""

import contextlib
import functools
import io
import itertools
import json
import os
import subprocess
import sys
import time

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import geoformal
from geoformal import ring
from geoformal.cli import (_COMMANDS, _GLOBALS, _read_args, build_parser, main,
                           run_suite)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_homog_aw(capsys):
    code, out, _ = run_cli(capsys, "homog", "aw", "1", "1")
    assert code == 0
    assert "NOT_FORMAL" in out
    assert "contraction_check: OBSTRUCTED" in out


def test_homog_partial_degrees(capsys):
    code, out, _ = run_cli(capsys, "homog", "aw", "1", "1", "--degrees", "0..3")
    assert code == 0
    assert "SKIPPED_PARTIAL_RUN" in out
    assert "invariant_dimensions" in out


@pytest.mark.parametrize("target,n", [(("aw", "1", "1"), 7), (("su3/t2",), 6)])
def test_homog_upper_degrees_cold_mirror_lower_half(capsys, target, n):
    """Degrees above n/2 asked first, with no lower degree built yet, have the
    dimensions of the lower half of a full run, mirrored."""
    def dims(spec):
        code, out, _ = run_cli(capsys, "--format", "json", "homog", *target,
                               "--degrees", spec)
        assert code == 0
        return {int(k): v for k, v in
                json.loads(out)["tables"]["invariant_dimensions"].items()}

    upper = dims(f"{n // 2 + 1}..{n}")
    full = dims(f"0..{n}")
    assert sorted(upper) == list(range(n // 2 + 1, n + 1))
    assert all(upper[k] == full[k] == full[n - k] for k in upper)


def test_homog_flag_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "homog", "su3/t2")
    assert code == 0
    doc = json.loads(out)
    assert doc["tables"]["betti"] == [1, 0, 2, 0, 2, 0, 1]
    assert doc["verdicts"]["formality_probe"] == "NOT_FORMAL"
    assert "timing_ms" not in doc  # volatile fields are opt-in


def test_timing_survives_wall_clock_step_back(capsys, monkeypatch):
    clock = itertools.count(1e9, -1000.0)  # each reading 1000 s before the last
    monkeypatch.setattr(time, "time", lambda: next(clock))
    code, out, _ = run_cli(capsys, "--format", "json", "--timings", "homog", "aw", "1", "1")
    assert code == 0
    assert json.loads(out)["timing_ms"] >= 0


def test_homog_unknown_target(capsys):
    code, _, err = run_cli(capsys, "homog", "sp2/sp1")
    assert code == 2
    assert "error" in err


def test_homog_aw_requires_parameters(capsys):
    code, _, err = run_cli(capsys, "homog", "aw")
    assert code == 2


def test_homog_space_file(capsys, tmp_path):
    cfg = {"algebra": "su3",
           "subalgebra": {"torus": {"k": 1, "l": 1}},
           "label": "from-file"}
    path = tmp_path / "space.yaml"
    path.write_text(yaml.safe_dump(cfg))
    code, out, _ = run_cli(capsys, "--format", "json", "homog", "--file", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["tables"]["betti"] == [1, 0, 1, 0, 0, 1, 0, 1]


def test_builtin_su5_su3_is_the_golden_space_file(monkeypatch):
    """`homog su5/su3` builds the space of tests/golden/su5_su3.yaml, whose
    report the golden pins: same m basis, metric, h action and label."""
    from geoformal.cli import _builtin_space, _space_from_file
    monkeypatch.chdir(ROOT)
    builtin = _builtin_space("su5/su3", None, None, False)
    from_file = _space_from_file(os.path.join("tests", "golden", "su5_su3.yaml"))
    assert (builtin.m_basis, builtin.metric_diag, builtin.h_action,
            builtin.label) == (from_file.m_basis, from_file.metric_diag,
                               from_file.h_action, from_file.label)


def test_certify_sphere_bundle(capsys):
    code, out, _ = run_cli(capsys, "certify", "sphere-bundle", "--c", "2",
                           "--trials", "10")
    assert code == 0
    assert "INFEASIBLE" in out
    assert "ACCEPTED" in out
    assert "RANK_KERNEL" in out


def test_certify_replay_identical_cold_and_warm(capsys):
    from geoformal import certify
    argv = ["certify", "totaro", "--a", "1", "--b", "1", "--trials", "5",
            "--format", "json", "--seed", "3"]
    certify._STEP_MEMO.clear()
    cold = run_cli(capsys, *argv)
    assert certify._STEP_MEMO
    warm = run_cli(capsys, *argv)
    assert cold[0] == 0
    assert cold == warm


def test_certify_zero_trials_is_config_error(capsys):
    code, out, err = run_cli(capsys, "certify", "sphere-bundle", "--c", "2",
                             "--trials", "0")
    assert code == 2
    assert err.startswith("error:") and "trial" in err
    assert "ACCEPTED" not in out


@pytest.mark.parametrize("target", [
    ("wedge", "--p", "2", "--q", "4"),  # no pattern applies
    ("totaro", "--a", "0", "--b", "0"),  # no certificate exists
])
def test_certify_zero_trials_is_rejected_without_a_certificate(capsys, target):
    """`--trials` is checked before the ring is built, so a ring that emits
    no certificate does not skip the check."""
    code, out, err = run_cli(capsys, "certify", *target, "--trials", "0")
    assert code == 2
    assert err.startswith("error:") and "trial" in err
    assert out == ""


@pytest.mark.parametrize("restarts", ["0", "-3"])
def test_realize_nonpositive_restarts_is_config_error(capsys, restarts):
    # the same value given as --max-iterations is rejected the same way
    for option, word in (("--restarts", "restarts"),
                         ("--max-iterations", "max_iterations")):
        code, out, err = run_cli(capsys, "realize", "sphere-bundle", "--c", "1",
                                 option, restarts)
        assert code == 2
        assert err.startswith("error:") and word in err
        assert out == ""


@pytest.mark.parametrize("spec", ["x", "3", "3..1", "20..30"])
def test_homog_malformed_degrees_is_config_error(capsys, spec):
    code, out, err = run_cli(capsys, "homog", "aw", "1", "1", "--degrees", spec)
    assert code == 2
    assert err.startswith("error:") and "--degrees" in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("certify", "sphere-bundle", "--c", "1/0"),
    ("certify", "totaro", "--a", "1", "--b", "one"),
    ("realize", "totaro", "--a", "1/0", "--b", "1"),
    ("certify", "sphere-bundle", "--c", "-1/0"),
])
def test_bad_rational_option_is_config_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "rational" in err
    assert out == ""


@pytest.mark.parametrize("command,options", [
    (("certify", "sphere-bundle"), [("--c", "-3/4")]),
    (("certify", "totaro"), [("--a", "3"), ("--b", "-1/2")]),
    (("realize", "sphere-bundle", "--restarts", "4"), [("--c", "-1/2")]),
    (("homog", "su3/t2"), [("--degrees", "-1..3")]),
])
def test_negative_fraction_is_read_as_the_next_argument(capsys, command, options):
    """A negative rational given as the token after --a, --b or --c, or a
    degree range with a negative lower bound after --degrees, is that
    option's value: the report has the same bytes as with `--c=-3/4`."""
    spaced = [token for option in options for token in option]
    joined = [f"{option}={value}" for option, value in options]
    reports = []
    for tokens in (spaced, joined):
        code, out, err = run_cli(capsys, "--format", "json", *command, *tokens)
        assert code == 0 and err == ""
        reports.append(out)
    assert reports[0] == reports[1]


def test_option_without_a_value_is_still_refused(capsys):
    """`--c -x` joins nothing: -x is no number, so --c has no value."""
    with pytest.raises(SystemExit) as exc:
        main(["certify", "sphere-bundle", "--c", "-x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --c: expected one argument" in err


def test_help_prints_argparse_usage_and_exits_0(capsys):
    """`--help` and `certify -h` are left to argparse: usage on stdout and
    exit status 0."""
    for argv, usage in ((["--help"], "usage: geoformal [-h]"),
                        (["certify", "-h"], "usage: geoformal certify [-h]")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr()
        assert out.out.startswith(usage) and out.err == ""


def test_abbreviated_option_reads_as_the_full_name(capsys):
    """`--form json` is argparse's abbreviation of `--format json`: the
    report has the same bytes."""
    assert _read_args(["--form", "json", "homog", "aw", "1", "1"]) is None
    reports = [run_cli(capsys, option, "json", "homog", "aw", "1", "1")
               for option in ("--form", "--format")]
    assert reports[0] == reports[1] and reports[0][0] == 0


@functools.cache
def _parser():
    return build_parser()


def _parsed(argv):
    """vars() of argparse's namespace for `argv`, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_parser().parse_args(argv))
        except SystemExit:
            return None


_STRAY = [["--nope"], ["--form", "json"], ["-h"], ["--help"], ["-1"],
          ["--timings=x"], ["--override="], ["--"], ["-"], ["--tri", "3"],
          ["--max_iterations", "3"], ["--seed", "-1"], ["--a", "-1"], ["nope"]]

# a draw from one of these is well formed three times in four
_WELL_FORMED = st.sampled_from([True, True, True, False])


@st.composite
def _value(draw, kind):
    """A value of `kind`: mostly one argparse takes, else one it refuses or
    that `_read_args` leaves to it."""
    if isinstance(kind, tuple):
        good, bad = list(kind), ["xml", ""]
    elif kind is int:
        good, bad = [str(draw(st.integers(0, 300)))], ["x", "1.5", " 7", "-2", ""]
    else:
        good, bad = ["1", "2/3", "a b", "x=y", "aw", "homog"], ["-3/4", "", "-x"]
    return draw(st.sampled_from(good if draw(_WELL_FORMED) else bad))


@st.composite
def _option(draw, options):
    """The tokens of one option of `options`, as `--name value`,
    `--name=value` or, rarely for an option that takes a value, bare."""
    name = draw(st.sampled_from(sorted(options)))
    kind = options[name][0]
    if kind is bool:
        return [name]
    value = draw(_value(kind))
    return draw(st.sampled_from([[name, value], [f"{name}={value}"],
                                 [name, value], [f"{name}={value}"], [name]]))


@st.composite
def _argv(draw):
    """A command line built from the table: globals, the command, then its
    options and positionals (one too many at times) in any order;
    one line in two gets a stray token or stray option somewhere, or loses
    its command."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    _, positionals, options = _COMMANDS[command]
    items = draw(st.lists(_option(_GLOBALS), max_size=2))
    items.append([command])
    after = draw(st.lists(_option(_GLOBALS | options), max_size=4))
    count = draw(st.integers(0, len(positionals) + 1))
    kinds = [kind for _, kind, _ in positionals] + [str]
    at = draw(st.integers(0, len(after)))
    # the last positional, at times, after an option that follows the others
    split = draw(st.integers(at, len(after))) if count > 1 else at
    for place, kind in reversed(list(zip([at] * (count - 1) + [split], kinds))):
        after.insert(place, [draw(_value(kind))])
    items += after
    if draw(st.booleans()):
        stray = draw(st.sampled_from(_STRAY + [None]))
        if stray is None:
            items.remove([command])
        else:
            items.insert(draw(st.integers(0, len(items))), stray)
    return [token for item in items for token in item]


@settings(max_examples=600, deadline=None, derandomize=True)
@given(argv=_argv())
def test_read_args_reads_a_line_as_argparse_does(argv):
    """Where `_read_args` reads a line, argparse gives the same namespace;
    where argparse exits, for help or a usage error, `_read_args` leaves the
    line to it."""
    read = _read_args(argv)
    assert read is None or vars(read) == _parsed(argv)


@pytest.mark.parametrize("argv", [
    ["homog", "--file", "perfbench/flag_su4.yaml", "--format", "json", "--seed", "5"],
    ["suite", "--only", "negative", "--trials", "60", "--restarts", "16"],
    ["--seed=5", "certify", "--a", "1", "totaro", "--b", "1", "--trials", "1000"],
    ["--timings", "homog", "aw", "1", "1", "--degrees=0..3", "--format=human"],
    ["realize", "sphere-bundle", "--c=-1/2", "--max-iterations", "9", "--seed", "2"],
    ["--format", "json", "certify", "--file", "ring.yaml", "--format", "human"],
])
def test_read_args_reads_well_formed_lines(argv):
    """The benchmark's lines and the like are read without argparse."""
    read = _read_args(argv)
    assert read is not None and vars(read) == _parsed(argv)


@pytest.mark.parametrize("argv,needs", [
    (("certify", "wedge"), "wedge needs --p and --q"),
    (("certify", "wedge", "--p", "3"), "wedge needs --p and --q"),
    (("certify", "--trials", "2"), "certify needs a target"),
    (("realize", "--restarts", "1"), "realize needs a target"),
], ids=["wedge-no-p-q", "wedge-no-q", "certify-no-target", "realize-no-target"])
def test_missing_target_or_parameter_is_config_error(capsys, argv, needs):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and needs in err
    assert out == ""


# so(3) as a custom algebra
_SO3 = {"dim": 3, "brackets": [[0, 1, [0, 0, 1]], [1, 2, [1, 0, 0]], [2, 0, [0, 1, 0]]]}


@pytest.mark.parametrize("text", [
    yaml.safe_dump({"algebra": {"dim": 3}, "subalgebra": {"vectors": [[1, 0, 0]]}}),
    yaml.safe_dump({"algebra": "su3",
                    "subalgebra": {"vectors": [["x", 0, 0, 0, 0, 0, 0, 0]]}}),
    "- su3\n- t2\n",
    yaml.safe_dump({"algebra": "su3", "subalgebra": {"torus": {"k": "one", "l": 1}}}),
    yaml.safe_dump({"algebra": "su3", "subalgebra": {"torus": {"k": 1, "l": 1}},
                    "metric_diag": ["big"] * 6}),
    yaml.safe_dump({"algebra": "su3", "subalgebra": {"torus": {"k": 1, "l": 1}},
                    "metric_diag": [12, 12, 24, 12, 12, 12, 12]}),
    yaml.safe_dump({"algebra": "su3", "subalgebra": {"torus": {"k": 1, "l": 1}},
                    "isotropy_connected": "false"}),
    yaml.safe_dump({"algebra": "su3",
                    "subalgebra": {"torus": {"k": 1, "l": -1, "override": "false"}}}),
    yaml.safe_dump({"algebra": "su3", "subalgebra": {"torus": {"k": 1.5, "l": 1}}}),
    yaml.safe_dump({"algebra": "su3", "subalgebra": {"torus": {"k": 1, "l": True}}}),
    yaml.safe_dump({"algebra": {"dim": 3.0, "brackets": []},
                    "subalgebra": {"vectors": [[1, 0, 0]]}}),
    yaml.safe_dump({"algebra": {"dim": 3, "brackets": [[0, True, [0, 0, 1]],
                                                       [1, 2, [1, 0, 0]],
                                                       [2, 0, [0, 1, 0]]]},
                    "subalgebra": {"vectors": [[1, 0, 0]]}}),
    yaml.safe_dump({"algebra": {"dim": 3, "brackets": [[0, 1, [0, 0, 1]],
                                                       [1, -1, [1, 0, 0]],
                                                       [2, 0, [0, 1, 0]]]},
                    "subalgebra": {"vectors": [[1, 0, 0]]}}),
    *(yaml.safe_dump({"algebra": {**_SO3, "brackets": [[0, 1, coeffs],
                                                       *_SO3["brackets"][1:]]},
                      "subalgebra": {"vectors": [[1, 0, 0]]}})
      for coeffs in ([0, 0, 1, 7], [0, 0], [0, 1])),
    *(yaml.safe_dump({"algebra": {**_SO3, key: value},
                      "subalgebra": {"vectors": [[1, 0, 0]]}})
      for key, value in (("name", [1]), ("labels", 5), ("labels", "xyz"))),
    yaml.safe_dump({"algebra": "su3", "subalgebra": {"torus": {"k": 1, "l": 1}},
                    "label": [1]}),
], ids=["no-brackets", "non-numeric-vector", "top-level-list", "torus-k-word",
        "non-numeric-metric", "non-invariant-metric", "connected-string",
        "override-string", "torus-k-float", "torus-l-bool", "dim-float",
        "bracket-index-bool", "bracket-index-negative", "bracket-too-long",
        "bracket-too-short", "bracket-short-of-two", "algebra-name-list",
        "algebra-labels-int", "algebra-labels-string", "label-list"])
def test_homog_malformed_space_file_is_config_error(capsys, tmp_path, text):
    path = tmp_path / "space.yaml"
    path.write_text(text)
    code, out, err = run_cli(capsys, "homog", "--file", str(path))
    assert code == 2
    assert err.startswith("error:") and "space file" in err
    assert out == ""


def test_homog_space_above_max_dim_is_config_error(capsys, tmp_path):
    # SU(5)/T^4 has dim m = 20 > 16; degree 0 alone would otherwise succeed
    torus = [[int(i == j) for i in range(24)] for j in range(4)]
    path = tmp_path / "space.yaml"
    path.write_text(yaml.safe_dump({"algebra": "su5", "subalgebra": {"vectors": torus}}))
    code, out, err = run_cli(capsys, "homog", "--file", str(path), "--degrees", "0..0")
    assert code == 2
    assert err.startswith("error:") and "dim m = 20 exceeds 16" in err
    assert out == ""


def test_homog_disconnected_isotropy_is_refused_before_any_build(
        capsys, monkeypatch, tmp_path):
    """`isotropy_connected: false` is refused from the file alone: no
    algebra, subalgebra or split is built."""
    from geoformal import cli

    def unreachable(*args, **kwargs):
        raise AssertionError("built part of a refused space")

    for name in ("named_algebra", "Subalgebra", "reductive_split",
                 "HomogeneousSpace"):
        monkeypatch.setattr(cli, name, unreachable)
    path = tmp_path / "space.yaml"
    path.write_text(yaml.safe_dump({"algebra": "su3",
                                    "subalgebra": {"torus": {"k": 1, "l": 1}},
                                    "isotropy_connected": False}))
    code, out, err = run_cli(capsys, "homog", "--file", str(path))
    assert (code, out) == (2, "")
    assert err == (f"error: space file {path} describes no supported space: "
                   "disconnected isotropy is not supported: invariance is "
                   "computed at the Lie-algebra level\n")


@pytest.mark.parametrize("algebra,vectors,message", [
    ("su30", [[int(i == 0) for i in range(899)]], "dim m = 898 exceeds 16"),
    ("su5", [[int(i == j) for i in range(24 - j // 7)] for j in range(8)],
     "a subalgebra vector has 23 entries, but the algebra has dimension 24"),
], ids=["dim-m", "vector-length"])
def test_homog_oversized_space_file_refused_before_any_algebra(capsys, tmp_path,
                                                               monkeypatch, algebra,
                                                               vectors, message):
    """su(30) has dimension 899, so with one subalgebra vector dim m is far
    above 16, and a vector must have dim g entries: both are refused from
    the file alone, before any su(n) or its structure constants are built."""
    from geoformal import lie

    def refuse(n):
        pytest.fail(f"su({n}) was built")

    monkeypatch.setattr(lie, "_REGISTRY", {})
    monkeypatch.setattr(lie, "su", refuse)
    path = tmp_path / "space.yaml"
    path.write_text(yaml.safe_dump({"algebra": algebra,
                                    "subalgebra": {"vectors": vectors}}))
    code, out, err = run_cli(capsys, "homog", "--file", str(path))
    assert code == 2
    assert err.startswith("error:") and message in err
    assert out == ""


_PROBLEM = {"n": 6, "variables": [["x", 2], ["y", 2]],
            "relations": ["y^2", "x^3"], "volume": "x^2*y"}


@pytest.mark.parametrize("text", [
    yaml.safe_dump({k: v for k, v in _PROBLEM.items() if k != "n"}),
    yaml.safe_dump({**_PROBLEM, "n": "six"}),
    yaml.safe_dump({**_PROBLEM, "variables": [["x", "two"], ["y", 2]]}),
    yaml.safe_dump({k: v for k, v in _PROBLEM.items() if k != "volume"}),
    "- 6\n",
    yaml.safe_dump({**_PROBLEM, "n": 6.7}),
    yaml.safe_dump({**_PROBLEM, "variables": [["x", True], ["y", 2]]}),
    yaml.safe_dump({**_PROBLEM, "require_injective_degree2": "false"}),
    yaml.safe_dump({**_PROBLEM, "relations": "y^2"}),
    yaml.safe_dump({**_PROBLEM, "label": [1]}),
], ids=["no-n", "n-word", "degree-word", "no-volume", "top-level-list", "n-float",
        "degree-bool", "injective-string", "relations-string", "label-list"])
def test_realize_malformed_problem_file_is_config_error(capsys, tmp_path, text):
    path = tmp_path / "problem.yaml"
    path.write_text(text)
    code, out, err = run_cli(capsys, "realize", "--file", str(path), "--restarts", "1")
    assert code == 2
    assert err.startswith("error:") and "problem file" in err
    assert out == ""


@pytest.mark.parametrize("source", ["builtin", "file"])
def test_realize_above_max_dim_is_config_error(capsys, tmp_path, source):
    """A problem on R^n with n > 16 is refused when it is built, before the
    search compiles it: wedge(9, 9) has n = 18, the file n = 17."""
    if source == "builtin":
        argv = ["realize", "wedge", "--p", "9", "--q", "9"]
        message = "n = 18 exceeds 16"
    else:
        path = tmp_path / "problem.yaml"
        path.write_text(yaml.safe_dump({"n": 17, "variables": [["u", 8], ["v", 9]],
                                        "relations": [], "volume": "u*v"}))
        argv = ["realize", "--file", str(path)]
        message = "n = 17 exceeds 16"
    code, out, err = run_cli(capsys, *argv, "--restarts", "1")
    assert code == 2
    assert err.startswith("error:") and message in err
    assert out == ""


_RING = {"generators": [["x", 2], ["y", 2]], "relations": ["y^2 + 3*x^2", "x^3"],
         "top": 6, "volume": "x^2*y"}


@pytest.mark.parametrize("text", [
    yaml.safe_dump({k: v for k, v in _RING.items() if k != "generators"}),
    yaml.safe_dump({**_RING, "top": "six"}),
    "just a string\n",
    yaml.safe_dump({**_RING, "top": 6.9}),
    yaml.safe_dump({**_RING, "generators": [["x", 2.5], ["y", 2]]}),
    yaml.safe_dump({**_RING, "name": [1]}),
    yaml.safe_dump({**_RING, "relations": "x*y"}),
], ids=["no-generators", "top-word", "top-level-string", "top-float", "degree-float",
        "name-list", "relations-string"])
def test_certify_malformed_ring_file_is_config_error(capsys, tmp_path, text):
    path = tmp_path / "ring.yaml"
    path.write_text(text)
    code, out, err = run_cli(capsys, "certify", "--file", str(path), "--trials", "2")
    assert code == 2
    assert err.startswith("error:") and "ring file" in err
    assert out == ""


def test_certify_ring_file_with_negative_top_is_refused(capsys, tmp_path):
    """A negative top degree builds no graded piece, so nothing would check
    the volume monomial's degree."""
    path = tmp_path / "ring.yaml"
    path.write_text(yaml.safe_dump({"generators": [["x", 2], ["y", 2]],
                                    "relations": [], "top": -2, "volume": "x*y"}))
    code, out, err = run_cli(capsys, "certify", "--file", str(path))
    assert code == 2
    assert err.startswith("error:") and "top degree must be >= 0, got -2" in err
    assert out == ""


@pytest.mark.parametrize("argv, entries, message", [
    (["realize", "--restarts", "1"], {**_PROBLEM, "relations": [3]}, "got 3"),
    (["realize", "--restarts", "1"], {**_PROBLEM, "relations": [["x"]]}, "got ['x']"),
    (["realize", "--restarts", "1"], {**_PROBLEM, "volume": 1}, "got 1"),
    (["certify", "--trials", "2"], {**_RING, "relations": [3]}, "got 3"),
    (["certify", "--trials", "2"], {**_RING, "relations": [["x"]]}, "got ['x']"),
    (["certify", "--trials", "2"], {**_RING, "volume": 1}, "got 1"),
], ids=["realize-relation-int", "realize-relation-list", "realize-volume-int",
        "certify-relation-int", "certify-relation-list", "certify-volume-int"])
def test_non_string_relation_or_volume_is_refused(capsys, tmp_path, argv, entries,
                                                  message):
    path = tmp_path / "input.yaml"
    path.write_text(yaml.safe_dump(entries))
    code, out, err = run_cli(capsys, argv[0], "--file", str(path), *argv[1:])
    assert code == 2
    assert err.startswith("error:") and "must be a string" in err and message in err
    assert out == ""


@pytest.mark.parametrize("relations, volume, message", [
    (["x*y", "x^3 - 1/0*y^3"], "x^2*y", "zero denominator"),
    (["x*y -", "x^3 - y^3"], "x^3", "incomplete polynomial 'x*y -'"),
    (["x*", "x^3 - y^3"], "x^3", "incomplete polynomial 'x*'"),
    (["+", "x^3"], "x^2*y", "incomplete polynomial '+'"),
    (["x y", "x^3 - y^3"], "x^3", "got 'y' in 'x y'"),
    (["2^3*x^2*y - y^3", "x^3"], "x^2*y", "got '^' in '2^3*x^2*y - y^3'"),
    (["x^2^3", "x^3"], "x^2*y", "got '^' in 'x^2^3'"),
    (["2 3*x*y", "x^3"], "x^2*y", "got '3' in '2 3*x*y'"),
    (["2x*y", "x^3"], "x^2*y", "got 'x' in '2x*y'"),
    (["x^0*y^2", "x^3"], "x^2*y", "got '0' in 'x^0*y^2'"),
], ids=["zero-denominator", "dangling-minus", "dangling-times", "no-term",
        "juxtaposed-names", "number-power", "power-of-power",
        "juxtaposed-numbers", "number-before-name", "zero-exponent"])
@pytest.mark.parametrize("command", ["certify", "realize"])
def test_malformed_polynomial_in_a_file_is_refused(capsys, tmp_path, command,
                                                   relations, volume, message):
    """A zero denominator exits 2 with an error line, not a traceback, and a
    relation with a dangling operator, no term or text outside the grammar
    (two atoms with no operator between them, a power of a number or of a
    power, an exponent below 1) is refused rather than read as some other
    ring."""
    base = _RING if command == "certify" else _PROBLEM
    path = tmp_path / "input.yaml"
    path.write_text(yaml.safe_dump({**base, "relations": relations,
                                    "volume": volume}))
    code, out, err = run_cli(capsys, command, "--file", str(path),
                             "--trials" if command == "certify" else "--restarts", "1")
    assert code == 2
    assert err.startswith("error:") and message in err
    assert out == ""


@pytest.mark.parametrize("command, entries", [
    (("certify",), {**_RING, "generators": [["x", 2], ["y-1", 2]]}),
    (("certify",), {**_RING, "generators": [["x", 2], [2, 2]]}),
    (("realize", "--restarts", "1"), {**_PROBLEM, "variables": [["x", 2], ["y-1", 2]]}),
    (("realize", "--restarts", "1"), {**_PROBLEM, "variables": [["x", 2], [2, 2]]}),
], ids=["ring-file-minus", "ring-file-number", "problem-file-minus",
        "problem-file-number"])
def test_generator_names_no_polynomial_can_name_are_refused(capsys, tmp_path,
                                                           command, entries):
    """A generator or variable named `y-1` or `2` exits 2: no relation could
    mention it, so the ring would silently gain a free generator."""
    path = tmp_path / "input.yaml"
    path.write_text(yaml.safe_dump(entries))
    code, out, err = run_cli(capsys, command[0], "--file", str(path), *command[1:])
    assert code == 2
    assert err.startswith("error:") and "generator name" in err
    assert out == ""


def test_realize_problem_on_r0_is_config_error(capsys, tmp_path):
    path = tmp_path / "problem.yaml"
    path.write_text(yaml.safe_dump({"n": 0, "variables": [], "relations": [],
                                    "volume": "1"}))
    code, out, err = run_cli(capsys, "realize", "--file", str(path), "--restarts", "1")
    assert code == 2
    assert err.startswith("error:") and "needs n >= 1" in err
    assert out == ""


def test_certify_ring_with_one_dim_h4_matches_no_pattern(capsys, tmp_path):
    # Betti [1,0,2,0,1,0,1]: multiplication H^2 -> H^4 has no 2x2 determinant
    path = tmp_path / "ring.yaml"
    path.write_text(yaml.safe_dump({
        "generators": [["x", 2], ["y", 2]], "top": 6, "volume": "x^3",
        "relations": ["2*x*y + y^2", "3*x*y - y^2"]}))
    code, out, err = run_cli(capsys, "certify", "--file", str(path))
    assert code == 0, err
    assert "pattern: NONE" in out
    assert "certificate: PATTERN_INAPPLICABLE" in out


@pytest.mark.parametrize("command, text", [
    (("certify",), yaml.safe_dump({**_RING, "generators": [["x", 2], ["x", 2]],
                                   "volume": "x^3"})),
    (("realize", "--restarts", "1"),
     yaml.safe_dump({**_PROBLEM, "variables": [["x", 2], ["x", 2]],
                     "volume": "x^3", "relations": []})),
], ids=["ring-file", "problem-file"])
def test_duplicate_generator_names_refused(capsys, tmp_path, command, text):
    path = tmp_path / "input.yaml"
    path.write_text(text)
    code, out, err = run_cli(capsys, command[0], "--file", str(path), *command[1:])
    assert code == 2
    assert err.startswith("error:") and "distinct" in err
    assert out == ""


def test_output_replaces_existing_file_whole(capsys, tmp_path):
    target = tmp_path / "report.json"
    target.write_text("x" * 100_000)
    os.link(target, tmp_path / "old.json")  # the old file, by its inode
    code, out, _ = run_cli(capsys, "--format", "json", "--output", str(target),
                           "certify", "sphere-bundle", "--c", "2", "--trials", "2")
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["verdicts"]["verification"] == "ACCEPTED"
    # renamed over, not truncated in place
    assert (tmp_path / "old.json").read_text() == "x" * 100_000
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.json", "report.json"]


def test_output_failure_leaves_no_temp_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    target.mkdir()  # a report cannot replace a directory
    code, out, err = run_cli(capsys, "--format", "json", "--output", str(target),
                             "certify", "sphere-bundle", "--c", "2", "--trials", "2")
    assert code == 2 and err.startswith("error:")
    assert err.endswith(f": '{target}'\n")  # not the temporary file
    assert target.is_dir()
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_output_error_names_the_requested_file(capsys, tmp_path):
    """A report that cannot be written names the --output path, not the
    temporary file beside it, and leaves no temporary file behind."""
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "--output", str(target), "certify",
                             "eschenburg-ex1")
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"
    assert not any(tmp_path.iterdir())


def test_seed_environment_read_per_call(capsys, monkeypatch):
    monkeypatch.setenv("GEOFORMAL_SEED", "abc")
    code, out, err = run_cli(capsys, "certify", "sphere-bundle", "--c", "2",
                             "--trials", "2")
    assert code == 2
    assert err.startswith("error:") and "GEOFORMAL_SEED" in err
    assert out == ""
    monkeypatch.setenv("GEOFORMAL_SEED", "17")
    code, out, _ = run_cli(capsys, "--format", "json", "certify",
                           "sphere-bundle", "--c", "2", "--trials", "2")
    assert code == 0
    assert json.loads(out)["seed"] == 17


def test_certify_trivial_bundle_advises_realize(capsys):
    code, out, _ = run_cli(capsys, "certify", "sphere-bundle", "--c", "0")
    assert code == 0
    assert "PATTERN_INAPPLICABLE" in out
    assert "realize" in out


def test_certify_echoes_wedge_degrees(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "certify", "wedge",
                           "--p", "5", "--q", "7")
    assert code == 0
    inputs = json.loads(out)["inputs"]
    assert (inputs["p"], inputs["q"], inputs["ring"]) == (5, 7, "wedge(5,7)")


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["--format", "json", "certify", "wedge", "--p", "5", "--q", "7"]
    _, in_process, _ = run_cli(capsys, *argv)
    src = os.path.dirname(os.path.dirname(os.path.abspath(geoformal.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "geoformal", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == in_process


def test_certify_totaro_00_reports_witness(capsys):
    code, out, _ = run_cli(capsys, "certify", "totaro", "--a", "0", "--b", "0")
    assert code == 0
    assert "NO_CERTIFICATE" in out
    assert "known_witness" in out


# totaro(1,1) with its generators renamed and permuted
_PERMUTED = {"name": "permuted", "generators": [["p", 2], ["q", 2], ["r", 2]],
             "relations": ["r^2", "1*r*p + p*q + p^2", "1*r*q + 2*p*q + q^2"],
             "top": 6, "volume": "p*q*r"}

# The ring files the certify tests read: a rank/kernel ring, the permuted
# totaro(1,1), a copy with its relations reordered and scaled by 2, 3 and
# -1/2, and the permuted totaro(0,0).
_RING_FILES = [
    {"generators": [["x", 2], ["y", 2]], "relations": ["y^2 + 3*x^2", "x^3"],
     "top": 6, "volume": "x^2*y", "name": "my-ring"},
    _PERMUTED,
    {**_PERMUTED, "name": "permuted-rescaled",
     "relations": ["-1/2*r*q - p*q - 1/2*q^2", "2*r^2", "3*r*p + 3*p*q + 3*p^2"]},
    {**_PERMUTED, "name": "permuted-00",
     "relations": ["r^2", "p*q + p^2", "2*p*q + q^2"]},
]


def _certify_file(capsys, tmp_path, cfg, *argv):
    """The exit status and JSON report of `certify --file` on the ring `cfg`."""
    path = tmp_path / "ring.yaml"
    path.write_text(yaml.safe_dump(cfg))
    code, out, _ = run_cli(capsys, "--format", "json", "certify", "--file",
                           str(path), *argv)
    return code, json.loads(out)


def test_certify_ring_file(capsys, tmp_path):
    code, doc = _certify_file(capsys, tmp_path, _RING_FILES[0], "--trials", "5")
    assert code == 0
    assert doc["verdicts"]["certificate"] == "INFEASIBLE"


@pytest.mark.parametrize("cfg", _RING_FILES[1:3], ids=["permuted", "rescaled"])
def test_totaro_ring_file_is_certified_as_itself(capsys, tmp_path, cfg):
    code, doc = _certify_file(capsys, tmp_path, cfg)
    assert code == 0
    assert (doc["verdicts"]["certificate"], doc["verdicts"]["verification"],
            doc["tables"]["certificate"]["problem"]) == (
        "INFEASIBLE", "ACCEPTED", cfg["name"])


@pytest.mark.parametrize("cfg,indices", [(_RING_FILES[1], (1, 2)),
                                         (_RING_FILES[2], (2, 0))],
                         ids=["permuted", "rescaled"])
def test_totaro_rewrite_steps_name_the_relation_by_its_index(cfg, indices):
    """T3 and T4 name the relation they rewrite by its index in `cert.ring`,
    the one their payload's `poly` is, whatever order the file lists the
    relations in."""
    import re
    from geoformal.certify import certify_table
    table = ring.build_table(ring.RingPresentation.from_spec(cfg))
    cert = certify_table(table, ring.pattern_match(table))
    for sid, index in zip(("T3", "T4"), indices):
        step = cert.step(sid)
        assert re.findall(r"relations\[(\d+)\]", step.statement) == [str(index)]
        assert table.presentation.poly(step.payload["poly"]) == \
            table.presentation.poly(cert.ring["relations"][index])


def test_totaro_00_ring_file_witness_names_its_generators(capsys, tmp_path,
                                                          parse_form):
    from geoformal.realize import RealizationProblem, residual_exact
    cfg = _RING_FILES[3]
    code, doc = _certify_file(capsys, tmp_path, cfg)
    assert (code, doc["verdicts"]["certificate"]) == (0, "NO_CERTIFICATE")
    witness = doc["tables"]["known_witness"]
    assert set(witness) == {"p", "q", "r"}
    problem = RealizationProblem(6, cfg["generators"], cfg["relations"],
                                 cfg["volume"])
    assert residual_exact(problem, {name: parse_form(text, 6)
                                    for name, text in witness.items()}) == 0


def test_totaro_shape_with_top_8_matches_no_pattern(capsys, tmp_path):
    """TOTARO's relations with top degree 8 leave H^8 = 0, where the
    six-dimensional argument says nothing."""
    code, doc = _certify_file(capsys, tmp_path, {
        "generators": [["x1", 2], ["x2", 2], ["x3", 2]],
        "relations": ["x1^2", "x1*x2 + x2*x3 + x2^2", "x1*x3 + 2*x2*x3 + x3^2"],
        "top": 8})
    assert code == 0
    assert doc["tables"]["ring_betti"] == [1, 0, 3, 0, 3, 0, 1, 0, 0]
    assert (doc["verdicts"]["pattern"], doc["verdicts"]["certificate"]) == (
        "NONE", "PATTERN_INAPPLICABLE")


def test_every_certificate_names_its_commands_ring(capsys, tmp_path, monkeypatch):
    """For every certify row of the suite and every ring file above, the
    certificate's ring is the presentation of the table the command built,
    and the report's problem is the command's ring."""
    from geoformal import cli
    original, emitted = cli.certify_table, []

    def recording(table, tag):
        cert = original(table, tag)
        emitted.append((table, cert))
        return cert

    monkeypatch.setattr(cli, "certify_table", recording)
    commands = [["certify", row["target"],
                 *(f"--{k}={row[k]}" for k in ("c", "a", "b") if k in row)]
                for row in cli._expected_rows() if row["kind"].startswith("certify")]
    for i, cfg in enumerate(_RING_FILES):
        path = tmp_path / f"ring{i}.yaml"
        path.write_text(yaml.safe_dump(cfg))
        commands.append(["certify", "--file", str(path)])
    certified = 0
    for argv in commands:
        emitted.clear()
        code, out, _ = run_cli(capsys, "--format", "json", *argv)
        doc = json.loads(out)
        assert code == 0, argv
        if doc["verdicts"]["certificate"] == "NO_CERTIFICATE":
            continue
        ((table, cert),) = emitted
        assert cert.ring == table.presentation.spec(), argv
        assert doc["tables"]["certificate"]["problem"] == doc["inputs"]["ring"]
        certified += 1
    assert certified == len(commands) - 2  # totaro(0,0) and its permuted copy


def test_realize_known_witness(capsys):
    code, out, _ = run_cli(capsys, "realize", "sphere-bundle", "--c", "0",
                           "--restarts", "8")
    assert code == 0
    assert "FEASIBLE_FOUND" in out


def test_realize_problem_file_deterministic(capsys, tmp_path):
    cfg = {"n": 6,
           "variables": [["x", 2], ["y", 2]],
           "relations": ["y^2", "x^3"],
           "volume": "x^2*y"}
    path = tmp_path / "problem.yaml"
    path.write_text(yaml.safe_dump(cfg))
    code, out1, _ = run_cli(capsys, "--format", "json", "--seed", "7",
                            "realize", "--file", str(path), "--restarts", "4")
    assert code == 0
    code, out2, _ = run_cli(capsys, "--format", "json", "--seed", "7",
                            "realize", "--file", str(path), "--restarts", "4")
    assert out1 == out2  # byte-identical given (config, seed)
    doc = json.loads(out1)
    assert doc["seed"] == 7


def test_realize_refuses_a_problem_too_large_to_compile(capsys, tmp_path):
    """n = 14 with volume x^7 is a valid problem of 681,080,400 wedge terms:
    it exits 2 with an error line before the search compiles any."""
    path = tmp_path / "problem.yaml"
    path.write_text(yaml.safe_dump({"n": 14, "variables": [["x", 2]],
                                    "relations": [], "volume": "x^7"}))
    code, out, err = run_cli(capsys, "realize", "--file", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: the problem compiles to 681,080,400 wedge terms")


def test_realize_seed_recorded(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "--seed", "123",
                           "realize", "wedge", "--p", "2", "--q", "4",
                           "--restarts", "4")
    doc = json.loads(out)
    assert doc["tables"]["outcome"]["seed"] == 123


def test_bad_file_is_operational_error(capsys, tmp_path):
    """A file that is not YAML exits 2 with an error line for each command
    that reads one."""
    path = tmp_path / "broken.yaml"
    path.write_text("relations: [")
    for command in ("certify", "homog", "realize"):
        code, out, err = run_cli(capsys, command, "--file", str(path))
        assert code == 2
        assert err.startswith("error:") and out == ""


@pytest.mark.parametrize("command", ["homog", "certify", "realize"])
def test_file_that_is_not_utf8_is_operational_error(capsys, tmp_path, command):
    """A config file with bytes that are not UTF-8 exits 2 with an error line
    naming the file, not with a UnicodeDecodeError traceback."""
    path = tmp_path / "latin.yaml"
    path.write_bytes(b"name: ring\nal\xff\xfegebra: su3\n")
    code, out, err = run_cli(capsys, command, "--file", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and str(path) in err and "UTF-8" in err


def test_suite_negative_subset(capsys):
    code, out, _ = run_cli(capsys, "suite", "--only", "negative",
                           "--trials", "5", "--restarts", "4")
    assert code == 0
    assert "soundness_separation: OK" in out
    assert "failed: 0" in out


@pytest.mark.parametrize("flag", ["--trials", "--restarts"])
def test_suite_rejects_nonpositive_counts_before_any_row(capsys, monkeypatch, flag):
    import geoformal.cli as cli

    def no_rows():
        raise AssertionError("a suite row ran")

    monkeypatch.setattr(cli, "_expected_rows", no_rows)
    code, out, err = run_cli(capsys, "suite", "--only", "negative", flag, "0")
    assert code == 2
    assert err.startswith("error:") and flag.lstrip("-") in err
    assert out == ""


def test_run_suite_table_is_complete():
    rows, all_ok, certified, feasible = run_suite(only="positive",
                                                  trials=5, restarts=6)
    assert all_ok
    assert not (certified & feasible)
    assert any(r["row"] == "realize totaro(0,0)" for r in rows)


@pytest.fixture(scope="module")
def negative_suite():
    """The verdicts of each row of `run_suite(only="negative")` at seed 3."""
    rows, _, _, _ = run_suite(only="negative", trials=5, restarts=4, seed=3)
    return {r["row"]: r["got"] for r in rows}


@pytest.mark.parametrize("row,argv", [
    ("homog aw 1 1", ["homog", "aw", "1", "1"]),
    ("certify sphere-bundle c=1", ["certify", "sphere-bundle", "--c", "1"]),
    ("certify totaro a=2 b=-1", ["certify", "totaro", "--a", "2", "--b", "-1"]),
    ("realize sphere-bundle c=1", ["realize", "sphere-bundle", "--c", "1"]),
])
def test_suite_rows_agree_with_the_commands(capsys, negative_suite, row, argv):
    """The suite runs each row as its command, without parsing a command
    line; on one row of each kind it records the verdicts the command gives
    on the same command line, at the same trials, restarts and seed."""
    got = negative_suite[row]
    options = {"certify": ["--trials", "5"], "realize": ["--restarts", "4"]}
    code, out, _ = run_cli(capsys, *argv, *options.get(argv[0], []),
                           "--seed", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    command = {k: doc["verdicts"].get(k, doc["tables"].get(k)) for k in got}
    if "pattern" in got:  # the suite keeps the tag's kind, the report its text
        command["pattern"] = command["pattern"].split("(")[0]
    assert got == command


def _fresh_python(code, *argv):
    """`python -c code argv...` in a fresh interpreter that has not loaded
    numpy, so `run_suite` runs its search rows in a forked child; returns
    the completed process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(geoformal.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env, timeout=120)


# Prefix of the fresh-interpreter scripts: `reaped()` is True when this
# process has no child left, running or unreaped.
_REAPED = """
import json, os, sys
from geoformal import cli
def reaped():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
"""


def test_suite_runs_each_row_as_its_command(tmp_path):
    """A negative suite calls `cmd_homog` for its 5 homog rows, `cmd_certify`
    for its 31 certify and totaro rows and `cmd_realize` for its 2 searches,
    counted in a file that the forked search child appends to as well."""
    log = tmp_path / "calls.txt"
    done = _fresh_python(_REAPED + """
for name in ("cmd_homog", "cmd_certify", "cmd_realize"):
    def counting(args, name=name, original=getattr(cli, name)):
        with open(sys.argv[1], "a") as log:
            log.write(name + "\\n")
        return original(args)
    setattr(cli, name, counting)
_, all_ok, _, _ = cli.run_suite(only="negative", trials=5, restarts=4)
print(json.dumps([all_ok, "numpy" in sys.modules, reaped()]))
""", str(log))
    assert (done.returncode, done.stderr) == (0, "")
    # the searches ran, but not in this process: they ran in its child
    assert json.loads(done.stdout) == [True, False, True]
    calls = log.read_text().split()
    assert {name: calls.count(name) for name in set(calls)} == \
        {"cmd_homog": 5, "cmd_certify": 31, "cmd_realize": 2}


def test_forked_suite_reports_equal_in_process_reports():
    """`suite`, `--only negative` and `--only positive` at seeds 5 and 41
    print the same bytes with their searches in a forked child as in
    process (once numpy is loaded); the forking process never loads numpy
    and has no child left after each run."""
    argvs = [["suite", *only, "--format", "json", "--seed", seed]
             for seed in ("5", "41")
             for only in ([], ["--only", "negative"], ["--only", "positive"])]
    done = _fresh_python(_REAPED + """
import contextlib, io
def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return [code, out.getvalue(), "numpy" in sys.modules, reaped()]
argvs = json.loads(sys.argv[1])
forked = [run(argv) for argv in argvs]
import numpy
print(json.dumps([forked, [run(argv) for argv in argvs]]))
""", json.dumps(argvs))
    assert (done.returncode, done.stderr) == (0, "")
    forked, in_process = json.loads(done.stdout)
    for argv, fork_run, plain_run in zip(argvs, forked, in_process):
        assert fork_run == [0, plain_run[1], False, True], argv
        assert plain_run[0] == 0 and plain_run[3], argv
        assert json.loads(fork_run[1])["verdicts"]["suite"] == "ALL_EXPECTED"


@pytest.mark.parametrize("failure,expect", [
    ("raise RuntimeError(f'search broke in {os.getpid()}')",
     "RuntimeError: search broke in {child}"),
    ("raise OSError(f'search broke in {os.getpid()}')",
     "OSError: search broke in {child}"),
    ("os._exit(3)", "ChildProcessError: the suite's search rows ended without "
                    "a result: their process exited with status 3"),
    ("os.kill(os.getpid(), 9)", "ChildProcessError: the suite's search rows "
                                "ended without a result: their process was "
                                "killed by signal 9"),
], ids=["runtime-error", "os-error", "exit", "killed"])
def test_forked_search_failure_reaches_the_parent(failure, expect):
    """An exception the search child does not record as a row error is
    raised again in the parent with its type and message; a child that
    ends without a result raises an error naming how it ended.  No child is
    left, and the CLI exits as it would in process: an OSError, such as
    ChildProcessError, is an operational error (status 2 and an `error:`
    line); anything else leaves with its traceback."""
    done = _fresh_python(_REAPED + f"""
def broken(args):
    {failure}
cli.cmd_realize = broken
try:
    cli.run_suite(only="negative", trials=5, restarts=4)
except BaseException as exc:
    raised = f"{{type(exc).__name__}}: {{exc}}"
print(json.dumps([os.getpid(), raised, reaped()]), flush=True)
sys.exit(cli.main(["suite", "--only", "negative", "--trials", "5"]))
""")
    pid, raised, reaped = json.loads(done.stdout)
    child = raised.rpartition(" ")[2]
    assert raised == expect.format(child=child)
    if "{child}" in expect:  # raised in another process
        assert child.isdigit() and int(child) != pid
    assert reaped
    last = done.stderr.rstrip().splitlines()[-1]
    if expect.startswith("RuntimeError"):
        assert (done.returncode, last) == (1, expect.format(child=last.split()[-1]))
    else:
        assert (done.returncode, done.stderr.count("\n")) == (2, 1)
        assert last == "error: " + expect.partition(": ")[2].format(
            child=last.split()[-1])


def test_parent_failure_kills_and_reaps_the_search_child():
    """When a row in the parent raises while the search child runs, the
    child is killed and reaped before the error leaves `run_suite`."""
    done = _fresh_python(_REAPED + """
def broken(args):
    raise RuntimeError("certify broke")
cli.cmd_certify = broken
try:
    cli.run_suite(only="negative", trials=5, restarts=4)
except RuntimeError as exc:
    print(json.dumps([str(exc), "numpy" in sys.modules, reaped()]))
""")
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout) == ["certify broke", False, True]


def test_suite_leaves_every_shared_table_as_built():
    """Tables are shared per process by ring content; after a suite run each
    one still equals a fresh build, so no caller mutated a shared table."""
    rows, all_ok, _, _ = run_suite(only="negative", trials=5, restarts=4)
    assert all_ok
    assert ring._TABLES
    for table in ring._TABLES.values():
        fresh = ring.NormalFormTable(table.presentation)
        assert (table.monomials, table.basis) == (fresh.monomials, fresh.basis)
        for d, monos in table.monomials.items():
            for m in monos:
                poly = ring.GradedPoly(table.presentation.gens, {m: 1})
                assert table.reduce(poly) == fresh.reduce(poly)


def test_suite_matches_each_certify_row_once_before_emission(monkeypatch):
    """A certify row, the totaro rows included, matches its ring once in
    `cmd_certify` and hands the tag to `certify_table`; only the verifier,
    which never trusts the emitter's tag, matches it again.  With an empty
    step memo a negative suite makes 61 matches: 31 rows before emission and
    30 verifications (92 when `certify_table` matched each row a second
    time)."""
    from geoformal import certify, cli
    original = ring.pattern_match
    calls = []

    def counting(table):
        calls.append(table)
        return original(table)

    for module in (ring, cli, certify):
        monkeypatch.setattr(module, "pattern_match", counting)
    monkeypatch.setattr(certify, "_STEP_MEMO", {})
    _, all_ok, _, _ = run_suite(only="negative", trials=5, restarts=4)
    assert all_ok
    assert len(calls) == 61


def test_suite_detects_stubbed_module(monkeypatch):
    """Fault injection: break one engine entry point and the matching suite
    rows must fail instead of being papered over."""
    from geoformal import certify
    from geoformal.errors import GeoformalError

    def broken(*args, **kwargs):
        raise GeoformalError("stubbed out")

    monkeypatch.setattr(certify, "totaro_certificate", broken)
    rows, all_ok, _, _ = run_suite(only="negative", trials=5, restarts=4)
    assert not all_ok
    bad = [r for r in rows if not r["pass"]]
    assert bad and all("totaro" in r["row"] for r in bad)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("name,argv", [
    ("homog_aw_1_1", ["homog", "aw", "1", "1"]),
    ("homog_su3_t2", ["homog", "su3/t2"]),
    ("homog_su4_su2", ["homog", "su4/su2"]),
    ("homog_flag_su4", ["homog", "--file", "perfbench/flag_su4.yaml"]),
    ("certify_totaro_1_1", ["certify", "totaro", "--a", "1", "--b", "1",
                            "--trials", "1000"]),
    ("homog_su5_su3", ["homog", "--file", "tests/golden/su5_su3.yaml"]),
    ("certify_sphere_bundle_1_2", ["certify", "sphere-bundle", "--c", "1/2"]),
    ("certify_eschenburg_ex2", ["certify", "eschenburg-ex2"]),
    ("certify_flag_su3", ["certify", "flag-su3"]),
    ("certify_totaro_2_-1", ["certify", "totaro", "--a", "2", "--b", "-1",
                             "--trials", "1000"]),
])
def test_json_report_matches_golden(capsys, monkeypatch, name, argv):
    """The `--format json --seed 5` report, byte for byte, as checked in under
    tests/golden/ (space files are read relative to the repository root)."""
    monkeypatch.chdir(ROOT)
    code, out, _ = run_cli(capsys, "--format", "json", "--seed", "5", *argv)
    assert code == 0
    with open(os.path.join(ROOT, "tests", "golden", f"{name}.json"), "rb") as fh:
        assert out.encode() == fh.read()


def test_config_loader_matches_the_pure_python_loader():
    """`_load_mapping` parses with libyaml's safe loader where PyYAML has it;
    on every YAML file of the tests and the benchmark it gives the mapping
    the pure-Python safe loader gives."""
    from geoformal.cli import _YAML_LOADER, _load_mapping
    assert _YAML_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    paths = sorted(os.path.join(d, f)
                   for d, _, files in os.walk(os.path.join(ROOT, "tests"))
                   for f in files if f.endswith((".yaml", ".yml")))
    paths.append(os.path.join(ROOT, "perfbench", "flag_su4.yaml"))
    assert len(paths) >= 2
    for path in paths:
        with open(path) as fh:
            assert _load_mapping(path, "file") == yaml.load(fh, Loader=yaml.SafeLoader)
