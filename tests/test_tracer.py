"""The benchmark's span tracer still finds every hook it wraps."""

import importlib.util
import os

from geoformal import cli

_TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracer.py")


def test_tracer_hooks_still_bind(capsys):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer(0)
    tracer.install()
    try:
        assert cli.main(["homog", "aw", "1", "1"]) == 0
        assert cli.main(["certify", "sphere-bundle", "--c", "1"]) == 0
    finally:
        tracer.restore()
    capsys.readouterr()
    assert tracer.step_table_wrapped
    m = tracing.layer_metrics(tracer, 1.0)
    assert m["invariant.basis_s"] > 0
    # aw(1,1) has invariant dimensions [1, 3, 7, 13, 13, 7, 3, 1]
    assert m["invariant.invariant_dim_total"] == 48
    assert m["invariant.harmonic_s"] > 0
    assert m["invariant.probe_pairs"] == 2
    assert m["certify.certificates"] == 1
    assert m["exterior.interior_calls"] > 0
