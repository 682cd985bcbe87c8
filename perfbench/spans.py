"""Layer spans recorded from outside the ccdet package.

A :class:`Tracer` replaces public functions of the package with timing
wrappers and restores the originals on :meth:`Tracer.restore`. Spans are kept
in memory aggregated by (name, parent name), so the tens of thousands of
trial-level calls in a Monte Carlo run cost a dictionary update each, not a
record each. A layer's self time is its busy time minus the busy time of the
spans whose parent it is.

Several modules import functions by name (``montecarlo`` imports
``gen_projection``, ``build_mixtures`` and ``trial_stream``; ``cli`` imports
``gen_projection`` and ``estimate_errors``; ``secrecy`` imports the
deflection functions), so every importing module's attribute is patched as
well as the defining module's.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter


def _rows(array) -> int:
    """Observation rows in an array whose last axis is one observation."""
    shape = getattr(array, "shape", ())
    if len(shape) <= 1:
        return 1
    return int(array.size // shape[-1])


class Tracer:
    """Aggregated span recorder; one instance per benchmark run."""

    def __init__(self) -> None:
        self._stack: list[str] = []
        # (name, parent) -> [calls, seconds, rows, errors]
        self.spans: dict[tuple[str, str | None], list] = defaultdict(
            lambda: [0, 0.0, 0, 0]
        )
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, rows_arg: int | None):
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            stack.append(name)
            failed = False
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                entry = spans[(name, parent)]
                entry[0] += 1
                entry[1] += elapsed
                if rows_arg is not None:
                    entry[2] += _rows(args[rows_arg])
                if failed:
                    entry[3] += 1

        return wrapper

    def patch(self, name: str, owners, attr: str, rows_arg: int | None = None) -> None:
        """Wrap ``attr`` on every owner (module or class) under one span name.

        All owners must hold the same original object; ``rows_arg`` is the
        positional index of an array whose observation rows are counted.
        """
        original = getattr(owners[0], attr)
        wrapped = self._wrap(name, original, rows_arg)
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner}.{attr} is not the function traced as {name}")
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- aggregates ---------------------------------------------------------

    def calls(self, name: str, parent: str | None = None) -> int:
        """Calls of a span, optionally only those made directly under parent."""
        return sum(
            v[0]
            for (n, p), v in self.spans.items()
            if n == name and (parent is None or p == parent)
        )

    def seconds(self, name: str) -> float:
        return sum(v[1] for (n, _), v in self.spans.items() if n == name)

    def rows(self, name: str) -> int:
        return sum(v[2] for (n, _), v in self.spans.items() if n == name)

    def errors(self, name: str) -> int:
        return sum(v[3] for (n, _), v in self.spans.items() if n == name)

    def self_seconds(self, name: str) -> float:
        children = sum(v[1] for (_, p), v in self.spans.items() if p == name)
        return self.seconds(name) - children


def install(tracer: Tracer) -> None:
    """Patch the layer boundaries of every ccdet module the workloads use."""
    from ccdet import analytics, cli, detection, model, montecarlo, projection, secrecy

    tracer.patch("model.trial_stream", [model, montecarlo], "trial_stream")
    tracer.patch("montecarlo.estimate", [montecarlo, cli], "estimate_errors")
    tracer.patch("montecarlo.estimate", [montecarlo], "estimate_errors_fresh_phi")
    tracer.patch("projection.gen_projection", [projection, montecarlo, cli], "gen_projection")
    tracer.patch("projection.operator_from_matrix", [projection], "operator_from_matrix")
    tracer.patch("projection.whiten", [projection.ProjectionOperator], "whiten", rows_arg=1)
    tracer.patch("detection.build_mixtures", [detection, montecarlo], "build_mixtures")
    tracer.patch(
        "detection.loglik_rows", [detection.GaussianMixture], "loglik_rows", rows_arg=1
    )
    tracer.patch("analytics.ncx2", [analytics], "ncx2_sf")
    tracer.patch("analytics.ncx2", [analytics], "ncx2_cdf")
    tracer.patch("analytics.pe_random_exact", [analytics], "pe_random_exact")
    tracer.patch("analytics.deflection_fc", [analytics, secrecy], "deflection_fc")
    tracer.patch("analytics.deflection_ev", [analytics, secrecy], "deflection_ev")
    tracer.patch("secrecy.optimize_constrained", [secrecy], "optimize_constrained")
    tracer.patch("cli.main", [cli], "main")
