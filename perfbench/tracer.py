"""Outside-in span tracing of one geoformal call, from benchmark code only.

`Tracer.install()` wraps the public functions of each geoformal module where
they are bound (the defining module and every module that imported the
name), `Multivector.wedge`, and the entries of the certificate verifier's
step dispatch table.  Every wrapped call records one span: name, start, end,
parent span and run id.  Spans stay in memory until the call is over;
`Tracer.restore()` puts every original back, `Tracer.dump()` writes the spans
out and `layer_metrics()` derives the per-layer numbers (self time included)
from them.  Nothing under `src/` changes.
"""

from __future__ import annotations

import contextlib
import gzip
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LINALG_PUBLIC_SKIP = {"frac_rows"}  # a copy helper, called from most of the others

STEP_KINDS = (
    "ring-reduce", "poly-identity", "substitution-identity",
    "quadratic-no-real-roots", "rank-from-cube", "rank-from-square",
    "contraction-identity", "volume-contraction", "lefschetz-nondegenerate",
    "kernel-transversality", "cascade-contraction", "symbolic-evaluation",
)


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attrs = {}            # span index -> value recorded on exit
        self.raised = set()        # span indices whose call raised
        self._stack = [-1]
        self._patches = []         # (owner, attribute, original, is_item)
        self.step_table_wrapped = False

    # -- recording ---------------------------------------------------------

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(self.name_id(name))
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, fn, name, on_exit=None):
        nid = self.name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised.add(idx)
                raise
            finally:
                tracer._close(idx)
            if on_exit is not None:
                tracer.attrs[idx] = on_exit(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr), False))
        setattr(owner, attr, value)

    def patch_everywhere(self, module, attr, name, on_exit=None):
        """Wrap `module.attr` and every geoformal module's binding of it."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, on_exit)
        for modname, mod in list(sys.modules.items()):
            if (modname == "geoformal" or modname.startswith("geoformal.")) and \
                    vars(mod).get(attr) is original:
                self._set(mod, attr, wrapper)
        return wrapper

    def restore(self):
        for owner, attr, original, is_item in reversed(self._patches):
            if is_item:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def install(self):
        from geoformal import (certify, cli, exterior, invariant, lie, linalg,
                               realize, reports, ring)

        def cells(args, kwargs, result):
            rows = args[0]
            ncols = args[1] if len(args) > 1 else (len(rows[0]) if rows else 0)
            return len(rows) * ncols

        for attr, fn in vars(linalg).items():
            if inspect.isfunction(fn) and fn.__module__ == linalg.__name__ \
                    and not attr.startswith("_") and attr not in LINALG_PUBLIC_SKIP:
                on_exit = cells if attr in ("rref", "integer_kernel") else None
                self.patch_everywhere(linalg, attr, f"linalg.{attr}", on_exit)

        self._set(exterior.Multivector, "wedge",
                  self.wrap(exterior.Multivector.wedge, "exterior.wedge"))
        self.patch_everywhere(exterior, "interior", "exterior.interior")
        self.patch_everywhere(exterior, "two_form_rank", "exterior.two_form_rank")

        self.patch_everywhere(ring, "build_table", "ring.build_table")
        self.patch_everywhere(ring, "pattern_match", "ring.pattern_match")

        for attr in ("certify_table", "certify_totaro"):
            self.patch_everywhere(certify, attr, "certify.emit")
        verify_signature = inspect.signature(certify.verify_certificate)

        def trials(args, kwargs, result):
            bound = verify_signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments["trials"]

        self.patch_everywhere(certify, "verify_certificate", "certify.verify", trials)
        table = getattr(certify, "_VERIFIERS", None)
        if isinstance(table, dict) and set(table) == set(STEP_KINDS) and \
                all(callable(f) for f in table.values()):
            for kind, fn in list(table.items()):
                self._patches.append((table, kind, fn, True))
                table[kind] = self.wrap(fn, f"certify.step.{kind}",
                                        on_exit=lambda a, k, r: a[0].mode)
            self.step_table_wrapped = True

        self.patch_everywhere(realize, "search", "realize.search",
                              on_exit=lambda a, k, r: r.iterations_used)
        self.patch_everywhere(reports, "to_json", "reports.render")
        self.patch_everywhere(reports, "render_human", "reports.render")
        self.patch_everywhere(lie, "reductive_split", "lie.split")

        # Invariant stages: every space the CLI builds is replayed through its
        # public stage methods in pipeline order.  Each stage caches, so each
        # span holds that stage's own work and the CLI's later calls are hits.
        for attr in ("su4_su2", "flag_su3", "aloff_wallach", "_space_from_file"):
            self._set(cli, attr, self._staged(getattr(cli, attr)))
        self.patch_everywhere(invariant, "formality_probe", "invariant.probe",
                              on_exit=lambda a, k, r: r.pairs_checked)

    def _staged(self, build):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span("invariant.space_build"):
                space = build(*args, **kwargs)
            top = space.dim_m + 1
            with tracer.span("invariant.basis") as idx:
                dims = [len(space.invariant_basis(k)) for k in range(top)]
            tracer.attrs[idx] = sum(dims)
            with tracer.span("invariant.differential"):
                for k in range(top):
                    space.ce_differential(k)
            with tracer.span("invariant.betti"):
                space.betti()
            with tracer.span("invariant.harmonic"):
                space.harmonic_basis()
            return space

        return wrapper

    # -- output --------------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def dump(self, path):
        """Write every span, one per line: run id, index, name, start, end, parent."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("run_id\tspan\tname\tstart\tend\tparent\n")
            for i, (nid, s, e, p) in enumerate(zip(self.name, self.start,
                                                   self.end, self.parent)):
                fh.write(f"{self.run_id}\t{i}\t{self.names[nid]}\t{s:.9f}\t"
                         f"{e:.9f}\t{p}\n")


def layer_metrics(tracer, traced_wall_s):
    """Per-layer numbers from the recorded spans of one traced call."""
    name, parent, start, end = tracer.arrays()
    dur = end - start
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    ids = {nm: i for i, nm in enumerate(tracer.names)}

    def spans(nm):
        return np.flatnonzero(name == ids.get(nm, -1))

    def count(nm):
        return len(spans(nm))

    def under(idx, ancestor_names):
        targets = {ids[a] for a in ancestor_names if a in ids}
        p = parent[idx]
        while p >= 0:
            if name[p] in targets:
                return True
            p = parent[p]
        return False

    def outer_time(nm):
        return float(sum(dur[i] for i in spans(nm) if not under(i, [nm])))

    m = {}
    for stage in ("space_build", "basis", "differential", "betti", "harmonic", "probe"):
        m[f"invariant.{stage}_s"] = float(dur[spans(f"invariant.{stage}")].sum())
    m["invariant.invariant_dim_total"] = sum(tracer.attrs[i] for i in spans("invariant.basis"))
    m["invariant.probe_pairs"] = sum(tracer.attrs.get(i, 0) for i in spans("invariant.probe"))

    # linalg
    linalg_ids = [i for nm, i in ids.items() if nm.startswith("linalg.")]
    rref = spans("linalg.rref")
    modular = spans("linalg.integer_kernel")
    m["linalg.rref_calls"] = len(rref)
    m["linalg.rref_s"] = float(dur[rref].sum())
    m["linalg.rref_cells"] = int(sum(tracer.attrs[i] for i in rref))
    m["linalg.modular_calls"] = len(modular)
    m["linalg.modular_s"] = float(dur[modular].sum())
    m["linalg.exact_fallback_calls"] = sum(1 for i in rref
                                          if under(i, ["linalg.integer_kernel"]))
    m["linalg.solve_in_span_calls"] = count("linalg.solve_in_span")
    m["linalg.solve_in_span_s"] = outer_time("linalg.solve_in_span")
    m["linalg.max_cells"] = int(max([tracer.attrs[i] for i in rref] +
                                    [tracer.attrs[i] for i in modular] + [0]))
    linalg_self = float(self_time[np.isin(name, linalg_ids)].sum())
    m["linalg.self_share"] = linalg_self / traced_wall_s

    # exterior
    m["exterior.wedge_calls"] = count("exterior.wedge")
    m["exterior.wedge_s"] = outer_time("exterior.wedge")
    m["exterior.interior_calls"] = count("exterior.interior")
    m["exterior.two_form_rank_calls"] = count("exterior.two_form_rank")

    # ring
    m["ring.build_table_calls"] = count("ring.build_table")
    m["ring.build_table_s"] = outer_time("ring.build_table")
    m["ring.pattern_match_s"] = outer_time("ring.pattern_match")

    # certify: emission includes its own small self-check verification, so
    # verification and step numbers count only spans outside emission.
    emits = [i for i in spans("certify.emit") if not under(i, ["certify.emit"])]
    verifies = [i for i in spans("certify.verify") if not under(i, ["certify.emit"])]
    m["certify.certificates"] = sum(1 for i in emits if i not in tracer.raised)
    m["certify.emit_s"] = float(sum(dur[i] for i in emits))
    m["certify.verify_s"] = float(sum(dur[i] for i in verifies))
    by_mode = Counter()
    for kind in STEP_KINDS:
        t = 0.0
        for i in spans(f"certify.step.{kind}"):
            if not under(i, ["certify.emit"]):
                t += dur[i]
                by_mode[tracer.attrs.get(i)] += dur[i]
        m[f"certify.step.{kind}_s"] = float(t)
    m["certify.exact_steps_s"] = float(by_mode["EXACT"])
    m["certify.sampled_steps_s"] = float(by_mode["SAMPLED"])
    trials = sum(tracer.attrs[i] for i in verifies)
    rank_checks = sum(1 for i in spans("exterior.two_form_rank")
                      if under(i, ["certify.verify"]) and not under(i, ["certify.emit"]))
    m["certify.rank_checks_per_trial"] = rank_checks / trials if trials else 0.0

    # realize
    searches = spans("realize.search")
    iterations = int(sum(tracer.attrs.get(i, 0) for i in searches))
    m["realize.search_s"] = float(dur[searches].sum())
    m["realize.iterations"] = iterations
    m["realize.ms_per_iteration"] = (1000 * m["realize.search_s"] / iterations
                                     if iterations else 0.0)

    m["reports.render_s"] = outer_time("reports.render")
    m["lie.split_s"] = outer_time("lie.split")
    m["trace.spans"] = len(name)
    return m
