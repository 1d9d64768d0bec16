"""Structured report documents for the CLI.

Reports are plain dicts rendered either as JSON (stable key order, suitable
for byte-identical replay given the same config and seed) or as a human
summary.  Timing is volatile and therefore excluded from the JSON payload
unless explicitly requested.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import __version__


def new_report(command, inputs, seed=None):
    return {
        "tool": "geoformal",
        "version": __version__,
        "command": command,
        "inputs": inputs,
        "seed": seed,
        "verdicts": {},
        "tables": {},
        "trace": [],
        "notes": [],
    }


def _plain(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return value
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def to_json(report, timings=False):
    doc = {k: _plain(v) for k, v in report.items()}
    if not timings:
        doc.pop("timing_ms", None)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def render_human(report, timings=False):
    lines = [f"geoformal {report['version']} :: {report['command']}"]
    if report.get("inputs"):
        lines.append(f"  inputs: {_plain(report['inputs'])}")
    if report.get("seed") is not None:
        lines.append(f"  seed: {report['seed']}")
    for key, value in report.get("verdicts", {}).items():
        lines.append(f"  {key}: {value}")
    for name, table in report.get("tables", {}).items():
        lines.append(f"  {name}:")
        if isinstance(table, dict):
            for k, v in table.items():
                lines.append(f"    {k}: {_plain(v)}")
        else:
            for row in table:
                lines.append(f"    {_plain(row)}")
    for entry in report.get("trace", []):
        lines.append(f"  | {entry}")
    for note in report.get("notes", []):
        lines.append(f"  # {note}")
    if timings and "timing_ms" in report:
        lines.append(f"  timing_ms: {report['timing_ms']}")
    return "\n".join(lines) + "\n"


def formality_to_dict(rep):
    return {
        "space": rep.space,
        "verdict": rep.verdict,
        "pairs_checked": rep.pairs_checked,
        "failures": [f.description for f in rep.failures],
        "notes": list(rep.notes),
    }


def aw_report_to_dict(rep):
    return {
        "k": rep.k, "l": rep.l,
        "rank_on_L": rep.rank_on_L,
        "full_map_injective": rep.full_map_injective,
        "case_identities_checked": rep.case_identities_checked,
        "case_identities_ok": rep.case_identities_ok,
        "dimension_count": f"{rep.dim_L} + {rep.dim_K} > {rep.ambient_dim}",
        "verdict": rep.verdict,
        "notes": list(rep.notes),
    }


def outcome_to_dict(out):
    res = sorted(out.restart_residuals)
    summary = {
        "restarts": len(res),
        "min": res[0] if res else None,
        "median": res[len(res) // 2] if res else None,
        "max": res[-1] if res else None,
    }
    return {
        "status": out.status,
        "best_residual": out.best_residual,
        "iterations_used": out.iterations_used,
        "seed": out.seed,
        "residual_summary": summary,
        "best_assignment": out.best_assignment,
        "notes": list(out.notes),
    }


def certificate_to_dict(cert):
    return {
        "pattern": cert.pattern,
        "params": _plain(cert.params),
        "verdict": cert.verdict,
        "problem": cert.ring["name"],
        "steps": [{
            "sid": s.sid, "kind": s.kind, "mode": s.mode,
            "statement": s.statement, "uses": list(s.uses),
        } for s in cert.steps],
        "notes": list(cert.notes),
    }


def verification_to_dict(rep):
    return {
        "status": rep.status,
        "trials": rep.trials,
        "seed": rep.seed,
        "steps": [{
            "sid": r.sid, "kind": r.kind, "mode": r.mode,
            "passed": r.passed, "detail": r.detail,
        } for r in rep.results],
    }
