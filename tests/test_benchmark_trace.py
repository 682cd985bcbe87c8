"""The benchmark's layer tracer (perfbench/spans.py) patches functions of the
package by name; a rename there must fail here, in seconds, rather than only
in a traced benchmark run."""

from __future__ import annotations

from pathlib import Path

from ccdet import detection, montecarlo, projection

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    originals = (
        montecarlo.build_mixtures,
        montecarlo.trial_stream,
        projection.ProjectionOperator.__dict__["whiten"],
        detection.GaussianMixture.__dict__["loglik_rows"],
    )
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert montecarlo.build_mixtures is not originals[0]
    finally:
        tracer.restore()
    assert (
        montecarlo.build_mixtures,
        montecarlo.trial_stream,
        projection.ProjectionOperator.__dict__["whiten"],
        detection.GaussianMixture.__dict__["loglik_rows"],
    ) == originals
