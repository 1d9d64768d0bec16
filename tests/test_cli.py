"""CLI commands, config ingestion, report formats, exit codes."""

import itertools
import json
import os
import subprocess
import sys
import time

import pytest
import yaml

import geoformal
from geoformal.cli import main, run_suite


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
])
def test_bad_rational_option_is_config_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "rational" in err
    assert out == ""


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
], ids=["no-brackets", "non-numeric-vector", "top-level-list", "torus-k-word",
        "non-numeric-metric", "non-invariant-metric", "connected-string",
        "override-string", "torus-k-float", "torus-l-bool", "dim-float",
        "bracket-index-bool", "bracket-index-negative"])
def test_homog_malformed_space_file_is_config_error(capsys, tmp_path, text):
    path = tmp_path / "space.yaml"
    path.write_text(text)
    code, out, err = run_cli(capsys, "homog", "--file", str(path))
    assert code == 2
    assert err.startswith("error:") and "space file" in err
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
], ids=["no-n", "n-word", "degree-word", "no-volume", "top-level-list", "n-float",
        "degree-bool", "injective-string"])
def test_realize_malformed_problem_file_is_config_error(capsys, tmp_path, text):
    path = tmp_path / "problem.yaml"
    path.write_text(text)
    code, out, err = run_cli(capsys, "realize", "--file", str(path), "--restarts", "1")
    assert code == 2
    assert err.startswith("error:") and "problem file" in err
    assert out == ""


_RING = {"generators": [["x", 2], ["y", 2]], "relations": ["y^2 + 3*x^2", "x^3"],
         "top": 6, "volume": "x^2*y"}


@pytest.mark.parametrize("text", [
    yaml.safe_dump({k: v for k, v in _RING.items() if k != "generators"}),
    yaml.safe_dump({**_RING, "top": "six"}),
    "just a string\n",
    yaml.safe_dump({**_RING, "top": 6.9}),
    yaml.safe_dump({**_RING, "generators": [["x", 2.5], ["y", 2]]}),
], ids=["no-generators", "top-word", "top-level-string", "top-float", "degree-float"])
def test_certify_malformed_ring_file_is_config_error(capsys, tmp_path, text):
    path = tmp_path / "ring.yaml"
    path.write_text(text)
    code, out, err = run_cli(capsys, "certify", "--file", str(path), "--trials", "2")
    assert code == 2
    assert err.startswith("error:") and "ring file" in err
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
    assert target.is_dir()
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


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


def test_certify_ring_file(capsys, tmp_path):
    cfg = {"generators": [["x", 2], ["y", 2]],
           "relations": ["y^2 + 3*x^2", "x^3"],
           "top": 6, "volume": "x^2*y", "name": "my-ring"}
    path = tmp_path / "ring.yaml"
    path.write_text(yaml.safe_dump(cfg))
    code, out, _ = run_cli(capsys, "certify", "--file", str(path),
                           "--trials", "5")
    assert code == 0
    assert "INFEASIBLE" in out


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


def test_realize_seed_recorded(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "--seed", "123",
                           "realize", "wedge", "--p", "2", "--q", "4",
                           "--restarts", "4")
    doc = json.loads(out)
    assert doc["tables"]["outcome"]["seed"] == 123


def test_bad_file_is_operational_error(capsys, tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("relations: [")
    code, _, err = run_cli(capsys, "certify", "--file", str(path))
    assert code == 2


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


def test_suite_detects_stubbed_module(monkeypatch):
    """Fault injection: break one engine entry point and the matching suite
    rows must fail instead of being papered over."""
    import geoformal.cli as cli
    from geoformal.errors import GeoformalError

    def broken(*args, **kwargs):
        raise GeoformalError("stubbed out")

    monkeypatch.setattr(cli, "certify_totaro", broken)
    rows, all_ok, _, _ = run_suite(only="negative", trials=5, restarts=4)
    assert not all_ok
    bad = [r for r in rows if not r["pass"]]
    assert bad and all("totaro" in r["row"] for r in bad)
