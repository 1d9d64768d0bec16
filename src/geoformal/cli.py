"""Command-line front end.

Commands:
  homog    invariant cohomology and formality probes for a homogeneous space
  certify  emit and verify an infeasibility certificate for a ring
  realize  numerical feasibility search for a realization problem
  suite    run every built-in reproduction against its expected verdict

Exit status 0 means verdicts were computed (NOT_FORMAL and NO_CERTIFICATE
are verdicts); nonzero is reserved for operational errors.  Structured
reports are deterministic given (config, seed); timings are opt-in.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
import threading
import time
from fractions import Fraction

import yaml

from . import reports
from .certify import certify_table, verify_certificate
from .errors import (CertificateUnavailableError, ConfigError, GeoformalError,
                     PatternInapplicableError, SpaceError)
from .exterior import MAX_DIM
from .invariant import (HomogeneousSpace, aloff_wallach, aw_contraction_check,
                        flag_su3, formality_by_top_degree, su4_su2, su5_su3)
from .lie import LieAlgebra, Subalgebra, named_algebra, reductive_split, \
    torus_element
from .realize import SearchConfig, builtin_problem, RealizationProblem, search
from .ring import (RingPresentation, build_table, builtin_presentation,
                   pattern_match)


def _env_seed():
    text = os.environ.get("GEOFORMAL_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"GEOFORMAL_SEED must be an integer, got {text!r}") from None


def _emit(report, args, t0):
    """Write the report a command returned, timed from `t0`, to --output or
    stdout in the chosen format."""
    report["timing_ms"] = int((time.perf_counter() - t0) * 1000)
    if args.format == "json":
        text = reports.to_json(report, timings=args.timings)
    else:
        text = reports.render_human(report, timings=args.timings)
    if args.output:
        _write_atomically(args.output, text)
    else:
        sys.stdout.write(text)


def _write_atomically(path, text):
    """Write `text` to a temporary file beside `path`, then rename it over
    `path`, so the file never holds a partial report.  A failure names
    `path`, not the temporary file."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "x")
        try:
            with fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


# libyaml's parser with the safe constructor and resolver; PyYAML built
# without libyaml has only the pure-Python one
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _load_mapping(path, what):
    with open(path) as fh:
        cfg = yaml.load(fh, Loader=_YAML_LOADER)
    if not isinstance(cfg, dict):
        raise ConfigError(f"{what} {path} must be a YAML mapping, "
                          f"got {type(cfg).__name__}")
    return cfg


def _integer(value):
    """An integer entry of a config file: a YAML integer or an integer string.
    A float or a boolean is refused rather than truncated."""
    if isinstance(value, (bool, float)):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _flag(path, what, entry, key, default):
    """A true/false entry of a config file; anything else is refused."""
    if not isinstance(value := entry.get(key, default), bool):
        raise ConfigError(f"{what} {path}: `{key}` must be true or false, "
                          f"got {value!r}")
    return value


def _text(path, what, entry, key, default):
    """A name or label entry of a config file: a string."""
    if not isinstance(value := entry.get(key, default), str):
        raise ConfigError(f"{what} {path}: `{key}` must be a string, got {value!r}")
    return value


def _relations(path, what, cfg):
    """The `relations` entry of a config file: a list, whose entries the
    ring refuses unless they are polynomial texts.  A bare string is refused,
    not split into characters."""
    relations = cfg["relations"]
    if not isinstance(relations, list):
        raise ConfigError(f"{what} {path}: `relations` must be a list of polynomial "
                          f"strings such as [\"x^3\", \"x*y\"], got {relations!r}")
    return relations


@contextlib.contextmanager
def _reading(path, what):
    """Turn a missing or malformed entry read from a config file into
    ConfigError."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{what} {path} lacks the entry {exc}") from None
    except (IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{what} {path} has a malformed entry: {exc}") from None


def _parse_degrees(spec):
    try:
        lo, hi = (int(x) for x in spec.split(".."))
        if lo <= hi:
            return lo, hi
    except ValueError:
        pass
    raise ConfigError(f"--degrees needs a range lo..hi with lo <= hi such as 0..3, "
                      f"got {spec!r}")


def _builtin_target(args, required):
    """The built-in target named on the command line and its parameters.
    With `required`, each parameter option of the target must be given."""
    name = args.target
    if name is None:
        raise ConfigError(f"{args.cmd} needs a target or --file")
    options = {"sphere-bundle": ("c",), "totaro": ("a", "b"),
               "wedge": ("p", "q")}.get(name, ())
    if required and any(getattr(args, k) is None for k in options):
        raise ConfigError(f"{name} needs "
                          + " and ".join(f"--{k}" for k in options))
    return name, {k: getattr(args, k) if k in ("p", "q") else _rational(args, k)
                  for k in options}


def _rational(args, name):
    """The rational value of option --name, 0 when it is absent."""
    text = getattr(args, name)
    try:
        return Fraction(text if text is not None else 0)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"--{name} must be a rational number such as 2 or "
                          f"-1/3, got {text!r}") from None


# -- homog ---------------------------------------------------------------------


def _space_from_file(path):
    cfg = _load_mapping(path, "space file")
    if not _flag(path, "space file", cfg, "isotropy_connected", True):
        raise ConfigError(f"space file {path} describes no supported space: "
                          "disconnected isotropy is not supported: invariance "
                          "is computed at the Lie-algebra level")
    label = _text(path, "space file", cfg, "label", "custom-space")
    alg = cfg.get("algebra")
    sub = cfg.get("subalgebra")
    if not isinstance(alg, (str, dict)):
        raise ConfigError("space file needs an `algebra` entry")
    if not (isinstance(sub, dict) and ("torus" in sub or "vectors" in sub)):
        raise ConfigError("space file needs `subalgebra.vectors` or `subalgebra.torus`")
    with _reading(path, "space file"):
        dim = _algebra_dim(alg)
        count = 1 if "torus" in sub else len(sub["vectors"])
        if dim - count > MAX_DIM:
            raise ConfigError(f"space file {path} describes no supported space: dim m = "
                              f"{dim - count} exceeds {MAX_DIM}, the largest exterior "
                              "algebra supported")
        if isinstance(alg, dict):
            structure = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
            for i, j, coeffs in alg["brackets"]:
                i, j = _integer(i), _integer(j)
                if not (0 <= i < dim and 0 <= j < dim):
                    raise IndexError(f"bracket index ({i}, {j}) outside 0..{dim - 1}")
                vec = [Fraction(str(c)) for c in coeffs]
                if len(vec) != dim:
                    raise ConfigError(f"space file {path}: the bracket of ({i}, {j}) has "
                                      f"{len(vec)} coefficients, but the algebra has "
                                      f"dimension {dim}")
                structure[i][j] = vec
                structure[j][i] = [-c for c in vec]
        if "torus" in sub:
            t = sub["torus"]
            vectors = [torus_element(_integer(t["k"]), _integer(t["l"]),
                                     override=_flag(path, "space file", t,
                                                    "override", False))]
        else:
            vectors = [[Fraction(str(c)) for c in v] for v in sub["vectors"]]
        for v in vectors:
            if len(v) != dim:
                raise ConfigError(f"space file {path}: a subalgebra vector has {len(v)} "
                                  f"entries, but the algebra has dimension {dim}")
        metric = cfg.get("metric_diag")
        if metric is not None:
            metric = [Fraction(str(x)) for x in metric]
    if isinstance(alg, str):
        g = named_algebra(alg)
    else:
        labels = alg.get("labels")
        if not (labels is None or isinstance(labels, list)
                and all(isinstance(x, str) for x in labels)):
            raise ConfigError(f"space file {path}: `labels` must be a list of strings, "
                              f"got {labels!r}")
        g = LieAlgebra(structure, labels,
                       name=_text(path, "space file", alg, "name", "custom"))
    h = Subalgebra(g, vectors)
    split = reductive_split(g, h)
    try:
        return HomogeneousSpace(split, metric_diag=metric, label=label)
    except SpaceError as exc:
        raise ConfigError(f"space file {path} describes no supported space: "
                          f"{exc}") from None


def _algebra_dim(alg):
    """dim g of a space file's algebra, read before any algebra is built:
    `dim` for a custom algebra and n^2 - 1 for su<n>.  Other named algebras
    are small and are built to read it."""
    if isinstance(alg, dict):
        return _integer(alg["dim"])
    su_n = re.fullmatch(r"su([1-9][0-9]*)", alg.lower())
    if su_n and int(su_n[1]) >= 2:
        return int(su_n[1]) ** 2 - 1
    return named_algebra(alg).dim


def _builtin_space(target, k, l, override):
    """The built-in space `homog` and the suite name by `target`."""
    if target == "su4/su2":
        return su4_su2()
    if target == "su5/su3":
        return su5_su3()
    if target == "su3/t2":
        return flag_su3()
    if target == "aw":
        if k is None or l is None:
            raise ConfigError("aw needs k and l, e.g. `homog aw 1 1`")
        return aloff_wallach(k, l, override=override)
    raise ConfigError(f"unknown space {target!r}; known: su4/su2, su5/su3, "
                      "su3/t2, aw (or --file)")


def cmd_homog(args):
    inputs = {"target": args.target, "k": args.k, "l": args.l,
              "override": args.override, "degrees": args.degrees,
              "file": args.file}
    report = reports.new_report("homog", inputs, seed=args.seed)
    degrees = _parse_degrees(args.degrees) if args.degrees else None
    space = (_space_from_file(args.file) if args.file else
             _builtin_space(args.target, args.k, args.l, args.override))
    report["inputs"]["space"] = space.label

    if degrees:
        lo, hi = max(degrees[0], 0), min(degrees[1], space.dim_m)
        if lo > hi:
            raise ConfigError(f"--degrees {args.degrees} leaves no degree in "
                              f"0..{space.dim_m}")
        dims = {k: len(space.invariant_basis(k)) for k in range(lo, hi + 1)}
        report["tables"]["invariant_dimensions"] = {str(k): v for k, v in dims.items()}
        report["notes"].append(
            f"partial run over degrees {lo}..{hi}: Betti numbers and the "
            "formality probe need the full complex and were skipped")
        report["verdicts"]["formality"] = "SKIPPED_PARTIAL_RUN"
        return report

    b = space.betti()
    report["tables"]["betti"] = b
    report["tables"]["harmonic_dimensions"] = [len(h) for h in space.harmonic_basis()]
    probe = space.formality_probe()
    report["verdicts"]["formality_probe"] = probe.verdict
    report["tables"]["probe"] = reports.formality_to_dict(probe)
    report["verdicts"]["formality_by_top_degree"] = formality_by_top_degree(b)
    if args.target == "aw":
        aw = aw_contraction_check(args.k, args.l, override=args.override)
        report["tables"]["contraction_check"] = reports.aw_report_to_dict(aw)
        report["verdicts"]["contraction_check"] = aw.verdict
    return report


# -- certify -------------------------------------------------------------------


def _ring_from_args(args):
    if args.file:
        cfg = _load_mapping(args.file, "ring file")
        with _reading(args.file, "ring file"):
            gens = [(n, _integer(d)) for n, d in cfg["generators"]]
            relations = _relations(args.file, "ring file", cfg)
            top = _integer(cfg["top"])
        name = _text(args.file, "ring file", cfg, "name", os.path.basename(args.file))
        pres = RingPresentation(gens, relations, top,
                                volume_monomial=cfg.get("volume"), name=name)
        return build_table(pres)
    name, params = _builtin_target(args, required=True)
    return build_table(builtin_presentation(name, **params))


def cmd_certify(args):
    if args.trials < 1:  # checked here too: some rings emit no certificate
        raise ConfigError(f"certify needs trials >= 1, got {args.trials}")
    inputs = {"target": args.target, "c": args.c, "a": args.a, "b": args.b,
              "p": args.p, "q": args.q, "file": args.file, "trials": args.trials}
    report = reports.new_report("certify", inputs, seed=args.seed)
    table = _ring_from_args(args)
    report["inputs"]["ring"] = table.presentation.name
    report["tables"]["ring_betti"] = table.betti()
    tag = pattern_match(table)
    report["verdicts"]["pattern"] = str(tag)
    try:
        cert = certify_table(table, tag)
    except PatternInapplicableError as exc:
        report["verdicts"]["certificate"] = "PATTERN_INAPPLICABLE"
        report["notes"].append(str(exc))
        report["notes"].append("run `geoformal realize` to search for a witness")
        return report
    except CertificateUnavailableError as exc:
        report["verdicts"]["certificate"] = "NO_CERTIFICATE"
        report["notes"].append(str(exc))
        if exc.witness:
            report["tables"]["known_witness"] = dict(exc.witness)
            report["notes"].append(
                "the attached assignment satisfies every relation exactly "
                "(rational arithmetic); the ring is pointwise realizable")
        return report
    verification = verify_certificate(cert, trials=args.trials, seed=args.seed)
    report["verdicts"]["certificate"] = cert.verdict
    report["verdicts"]["verification"] = verification.status
    report["tables"]["certificate"] = reports.certificate_to_dict(cert)
    report["tables"]["verification"] = reports.verification_to_dict(verification)
    report["trace"] = [f"{s.sid} [{s.mode}] {s.statement}" for s in cert.steps]
    return report


# -- realize -------------------------------------------------------------------


def _problem_from_args(args):
    if args.file:
        cfg = _load_mapping(args.file, "problem file")
        with _reading(args.file, "problem file"):
            n = _integer(cfg["n"])
            variables = [(name, _integer(g)) for name, g in cfg["variables"]]
            relations = _relations(args.file, "problem file", cfg)
            volume = cfg["volume"]
        injective = _flag(args.file, "problem file", cfg,
                          "require_injective_degree2", True)
        return RealizationProblem(
            n, variables, relations, volume,
            require_injective_degree2=injective,
            label=_text(args.file, "problem file", cfg, "label",
                        os.path.basename(args.file)))
    name, params = _builtin_target(args, required=False)
    return builtin_problem(name, **params)


def cmd_realize(args):
    inputs = {"target": args.target, "c": args.c, "a": args.a, "b": args.b,
              "p": args.p, "q": args.q, "file": args.file,
              "restarts": args.restarts}
    report = reports.new_report("realize", inputs, seed=args.seed)
    problem = _problem_from_args(args)
    report["inputs"]["problem"] = problem.label
    cfg = SearchConfig(restarts=args.restarts, seed=args.seed,
                       max_iterations=args.max_iterations)
    outcome = search(problem, cfg)
    report["verdicts"]["search"] = outcome.status
    report["tables"]["outcome"] = reports.outcome_to_dict(outcome)
    if outcome.feasible:
        report["notes"].append("a witness was found; the ring is pointwise "
                               "realizable at this tolerance")
    else:
        report["notes"].append("NO_SOLUTION_FOUND is a report, not a proof "
                               "of infeasibility")
    return report


# -- suite ---------------------------------------------------------------------


def _expected_rows():
    """The living acceptance table: every built-in reproduction with its
    expected verdict and the construction it comes from."""
    rows = []
    rows.append({"row": "homog su4/su2", "kind": "homog", "target": "su4/su2",
                 "expect": {"betti_support": [0, 5, 7, 12],
                            "formality_probe": "FORMAL_FOR_THIS_METRIC",
                            "formality_by_top_degree": "APPLIES_PROD"},
                 "source": "sphere-product transitive action of SU(4)"})
    rows.append({"row": "homog su5/su3", "kind": "homog", "target": "su5/su3",
                 "expect": {"betti_support": [0, 7, 9, 16],
                            "formality_probe": "FORMAL_FOR_THIS_METRIC",
                            "formality_by_top_degree": "APPLIES_PROD"},
                 "source": "complex Stiefel manifold V_2(C^5), rationally S^7 x S^9"})
    rows.append({"row": "homog su3/t2", "kind": "homog", "target": "su3/t2",
                 "expect": {"betti": [1, 0, 2, 0, 2, 0, 1],
                            "formality_probe": "NOT_FORMAL"},
                 "source": "full flag manifold, normal metric"})
    for (k, l) in ((1, 1), (1, 2), (2, 1)):
        rows.append({"row": f"homog aw {k} {l}", "kind": "homog",
                     "target": "aw", "k": k, "l": l,
                     "expect": {"betti": [1, 0, 1, 0, 0, 1, 0, 1],
                                "formality_probe": "NOT_FORMAL"},
                     "source": "Aloff-Wallach space, normal metric"})
    rows.append({"row": "homog aw 1 -1 (override)", "kind": "homog",
                 "target": "aw", "k": 1, "l": -1, "override": True,
                 "expect": {"formality_probe": "NOT_FORMAL"},
                 "source": "degenerate circle inside an SU(2) block"})
    for c in (-2, -1, 1, 2):
        rows.append({"row": f"certify sphere-bundle c={c}", "kind": "certify",
                     "target": "sphere-bundle", "c": Fraction(c),
                     "expect": {"certificate": "INFEASIBLE",
                                "verification": "ACCEPTED"},
                     "source": "projectivized bundle over the projective plane"})
    rows.append({"row": "certify eschenburg-ex1", "kind": "certify",
                 "target": "eschenburg-ex1",
                 "expect": {"certificate": "INFEASIBLE",
                            "verification": "ACCEPTED",
                            "pattern": "RANK_KERNEL"},
                 "source": "Eschenburg biquotient, first example"})
    rows.append({"row": "certify eschenburg-ex2", "kind": "certify",
                 "target": "eschenburg-ex2",
                 "expect": {"certificate": "INFEASIBLE",
                            "verification": "ACCEPTED",
                            "pattern": "LEFSCHETZ"},
                 "source": "Eschenburg biquotient, second example"})
    for a in range(-2, 3):
        for b in range(-2, 3):
            if (a, b) == (0, 0):
                continue
            rows.append({"row": f"certify totaro a={a} b={b}",
                         "kind": "certify-totaro", "target": "totaro",
                         "a": Fraction(a), "b": Fraction(b),
                         "expect": {"certificate": "INFEASIBLE",
                                    "verification": "ACCEPTED"},
                         "source": "three-sphere-product biquotient family"})
    rows.append({"row": "certify totaro a=0 b=0", "kind": "certify-totaro",
                 "target": "totaro", "a": Fraction(0), "b": Fraction(0),
                 "expect": {"certificate": "NO_CERTIFICATE"},
                 "source": "decoupled member of the family; exactly realizable "
                           "(its would-be pivot y1*y2^2 reduces to 0)"})
    rows.append({"row": "realize sphere-bundle c=0", "kind": "realize",
                 "target": "sphere-bundle", "c": Fraction(0),
                 "expect": {"search": "FEASIBLE_FOUND"},
                 "source": "trivial bundle: realizable and formal"})
    rows.append({"row": "realize wedge(2,4)", "kind": "realize",
                 "target": "wedge", "p": 2, "q": 4,
                 "expect": {"search": "FEASIBLE_FOUND"},
                 "source": "product of even spheres (volume pairing only)"})
    for c in (1, 2):
        rows.append({"row": f"realize sphere-bundle c={c}", "kind": "realize",
                     "target": "sphere-bundle", "c": Fraction(c),
                     "expect": {"search": "NO_SOLUTION_FOUND"},
                     "source": "consistency with the rank/kernel certificate"})
    rows.append({"row": "realize totaro(0,0)", "kind": "realize",
                 "target": "totaro", "a": Fraction(0), "b": Fraction(0),
                 "expect": {"search": "FEASIBLE_FOUND"},
                 "source": "witness cross-check for the uncertifiable member"})
    return rows


def run_suite(only=None, trials=60, restarts=16, seed=0):
    """Run the expected-verdict table; returns (rows, all_ok, certified, feasible).

    Each row runs as its command: the command's defaults under the row's
    target and parameters and the suite's seed, trials and restarts.
    `certified` names the rings certified INFEASIBLE and `feasible` the
    problems a search realized, each by its presentation's name.  The
    search rows, the only ones that load numpy, run beside the others (see
    `_beside`); rows share nothing they need, so the rows come back in
    table order with the same verdicts either way."""
    if trials < 1:
        raise ConfigError(f"suite needs trials >= 1, got {trials}")
    if restarts < 1:
        raise ConfigError(f"suite needs restarts >= 1, got {restarts}")
    parser = build_parser()
    defaults = {cmd: vars(parser.parse_args([cmd]))
                for cmd in ("homog", "certify", "realize")}
    selected = []
    for row in _expected_rows():
        kind = row["kind"]
        negative = kind.startswith("certify") or \
            row["expect"].get("formality_probe") == "NOT_FORMAL" or \
            row["expect"].get("search") == "NO_SOLUTION_FOUND"
        if only == "negative" and not negative:
            continue
        if only == "positive" and negative:
            continue
        args = argparse.Namespace(**defaults[kind.partition("-")[0]])
        for key in ("target", "k", "l", "override", "c", "a", "b", "p", "q"):
            if key in row:
                setattr(args, key, row[key])
        args.seed, args.trials, args.restarts = seed, trials, restarts
        selected.append((row, args))
    searches = [i for i, (row, _) in enumerate(selected)
                if row["kind"] == "realize"]
    rest = [i for i in range(len(selected)) if i not in searches]
    with _beside(lambda: [_run_row(*selected[i]) for i in searches]) as searched:
        outcomes = dict(zip(rest, (_run_row(*selected[i]) for i in rest)))
        outcomes.update(zip(searches, searched()))
    results = []
    certified_infeasible = set()
    feasible_found = set()
    for i, (row, _) in enumerate(selected):
        got, inputs = outcomes[i]
        if got.get("certificate") == "INFEASIBLE":
            certified_infeasible.add(inputs["ring"])
        if got.get("search") == "FEASIBLE_FOUND":
            feasible_found.add(inputs["problem"])
        ok = all(got.get(k) == v for k, v in row["expect"].items())
        results.append({"row": row["row"], "source": row["source"],
                        "expected": row["expect"], "got": got,
                        "pass": ok})
    all_ok = all(r["pass"] for r in results)
    return results, all_ok, certified_infeasible, feasible_found


def _run_row(row, args):
    """(got, inputs): what the suite records of the row's command, and the
    inputs its report names (None when the command raised an engine error,
    which the row records)."""
    try:
        report = args.fn(args)
    except GeoformalError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}, None
    return _row_verdicts(row["kind"], row["expect"], report), report["inputs"]


@contextlib.contextmanager
def _beside(work):
    """Yield a function that returns what `work()` returns, or raises what it
    raised, having run it in a child made by `os.fork()` while the caller's
    block ran.

    Forks only where that is safe: this process runs one thread, and numpy,
    whose import starts OpenBLAS's thread pool, is not loaded.  Elsewhere
    the function runs `work()` in process.  The child sends its outcome
    through a pipe and leaves by `os._exit`, so no exit handler or output
    buffer of this process runs twice; the parent kills and reaps it on
    every way out of the block, so no child outlives it."""
    if not (hasattr(os, "fork") and threading.active_count() == 1
            and "numpy" not in sys.modules):
        yield work
        return
    import pickle
    import signal
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            try:
                outcome = (True, work())
            except BaseException as exc:  # raised again in the parent
                outcome = (False, exc)
            data = pickle.dumps(outcome)
            with open(write_end, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    pipe = open(read_end, "rb")
    reaped = False

    def result():
        nonlocal reaped
        with pipe:
            data = pipe.read()
        _, status = os.waitpid(pid, 0)
        reaped = True
        if not data:
            code = os.waitstatus_to_exitcode(status)
            raise ChildProcessError(
                "the suite's search rows ended without a result: their "
                "process " + (f"exited with status {code}" if code >= 0 else
                              f"was killed by signal {-code}"))
        done, value = pickle.loads(data)  # written by our own child
        if not done:
            raise value
        return value

    try:
        yield result
    finally:
        pipe.close()
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _row_verdicts(kind, expect, report):
    """What a suite row of `kind` records of its command's report."""
    verdicts, tables = report["verdicts"], report["tables"]
    if kind == "homog":
        b = tables["betti"]
        seen = verdicts | {"betti": b,
                           "betti_support": [k for k, x in enumerate(b) if x]}
        return {k: seen[k] for k in expect} | {"betti": b}
    if kind == "realize":
        return {"search": verdicts["search"]}
    got = {k: verdicts[k] for k in ("certificate", "verification") if k in verdicts}
    if kind == "certify":  # the tag's kind, not its parameters
        got["pattern"] = verdicts["pattern"].split("(")[0]
    return got


def cmd_suite(args):
    inputs = {"only": args.only, "trials": args.trials,
              "restarts": args.restarts}
    report = reports.new_report("suite", inputs, seed=args.seed)
    results, all_ok, certified, feasible = run_suite(
        only=args.only, trials=args.trials, restarts=args.restarts,
        seed=args.seed)
    report["verdicts"]["suite"] = "ALL_EXPECTED" if all_ok else "MISMATCHES"
    clash = certified & feasible
    report["verdicts"]["soundness_separation"] = (
        "OK" if not clash else f"VIOLATED: {sorted(clash)}")
    report["tables"]["rows"] = [
        {"row": r["row"], "pass": r["pass"], "expected": r["expected"],
         "got": r["got"], "source": r["source"]} for r in results]
    report["tables"]["summary"] = {
        "total": len(results),
        "passed": sum(1 for r in results if r["pass"]),
        "failed": sum(1 for r in results if not r["pass"]),
    }
    return report


# -- argument parsing ------------------------------------------------------------


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("human", "json"),
                        default=argparse.SUPPRESS)
    common.add_argument("--output", default=argparse.SUPPRESS,
                        help="write the report to a file")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed (default: GEOFORMAL_SEED or 0)")
    common.add_argument("--timings", action="store_true",
                        default=argparse.SUPPRESS,
                        help="include wall-clock timing in the report")
    parser = argparse.ArgumentParser(
        prog="geoformal",
        description="invariant cohomology, formality probes and pointwise "
                    "realization certificates for homogeneous spaces",
        parents=[common])
    sub = parser.add_subparsers(dest="cmd", required=True)

    ph = sub.add_parser("homog", parents=[common],
                        help="invariant cohomology of a space")
    ph.add_argument("target", nargs="?", help="su4/su2 | su5/su3 | su3/t2 | aw")
    ph.add_argument("k", nargs="?", type=int)
    ph.add_argument("l", nargs="?", type=int)
    ph.add_argument("--override", action="store_true",
                    help="allow degenerate/non-coprime circle parameters")
    ph.add_argument("--degrees", help="restrict to a degree range, e.g. 0..3")
    ph.add_argument("--file", help="space descriptor (YAML)")
    ph.set_defaults(fn=cmd_homog)

    pc = sub.add_parser("certify", parents=[common], help="emit + verify an infeasibility certificate")
    pc.add_argument("target", nargs="?",
                    help="sphere-bundle | totaro | wedge | eschenburg-ex1 | "
                         "eschenburg-ex2 | flag-su3")
    pc.add_argument("--c")
    pc.add_argument("--a")
    pc.add_argument("--b")
    pc.add_argument("--p", type=int)
    pc.add_argument("--q", type=int)
    pc.add_argument("--file", help="ring presentation (YAML)")
    pc.add_argument("--trials", type=int, default=200,
                    help="must be >= 1; echoed in the report, but every "
                         "step is exact, so verification ignores it")
    pc.set_defaults(fn=cmd_certify)

    pr = sub.add_parser("realize", parents=[common], help="numerical realization search")
    pr.add_argument("target", nargs="?",
                    help="sphere-bundle | totaro | wedge | eschenburg-ex1 | "
                         "eschenburg-ex2 | flag-su3")
    pr.add_argument("--c")
    pr.add_argument("--a")
    pr.add_argument("--b")
    pr.add_argument("--p", type=int, default=2)
    pr.add_argument("--q", type=int, default=4)
    pr.add_argument("--file", help="problem descriptor (YAML)")
    pr.add_argument("--restarts", type=int, default=64)
    pr.add_argument("--max-iterations", type=int, default=250)
    pr.set_defaults(fn=cmd_realize)

    ps = sub.add_parser("suite", parents=[common], help="run all built-in reproductions")
    ps.add_argument("--only", choices=("positive", "negative"))
    ps.add_argument("--trials", type=int, default=60,
                    help="must be >= 1; echoed in the report, but "
                         "certificate verification ignores it")
    ps.add_argument("--restarts", type=int, default=16)
    ps.set_defaults(fn=cmd_suite)
    return parser


def _negative_values_joined(argv):
    """`argv` with a negative value of --a, --b, --c or --degrees joined to
    its option, `--c -3/4` to `--c=-3/4`: argparse takes a token such as
    -3/4 or -1..3, which is not a plain negative number, for an option."""
    out = []
    for token in argv:
        if out and out[-1] in ("--a", "--b", "--c", "--degrees") \
                and token[:1] == "-" and token[1:2].isdigit():
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_negative_values_joined(
        sys.argv[1:] if argv is None else argv))
    # global flags carry SUPPRESS defaults (they may appear before or after
    # the subcommand); fill the fallbacks here
    for name, fallback in (("format", "human"), ("output", None),
                           ("seed", None), ("timings", False)):
        if not hasattr(args, name):
            setattr(args, name, fallback)
    try:
        if args.seed is None:
            args.seed = _env_seed()
        t0 = time.perf_counter()
        _emit(args.fn(args), args, t0)
        return 0
    except (GeoformalError, OSError, yaml.YAMLError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
