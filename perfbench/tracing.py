"""Spans around spintraj's layers, recorded from outside the package.

The tracer replaces module attributes with wrappers: the public functions the
CLI calls into each layer, the objective that grape.optimize hands to
scipy.optimize.minimize, and numpy.linalg.eigh. Spans are kept in memory and
written out when the run ends. Nothing under src/ knows about them.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("grape.objective_s", "s", "lower"),
    ("grape.objective_calls", "count", "lower"),
    ("grape.eval_ms", "ms", "lower"),
    ("grape.iterations", "count", "lower"),
    ("grape.optimizer_s", "s", "lower"),
    ("grape.final_fidelity", "1", "higher"),
    ("kernel.eigh_s", "s", "lower"),
    ("kernel.eigh_calls", "count", "lower"),
    ("kernel.eigh_matrices", "count", "lower"),
    ("kernel.eigh_mb", "MB", "lower"),
    ("engine.propagate_s", "s", "lower"),
    ("engine.propagate_calls", "count", "lower"),
    ("engine.steps", "count", "lower"),
    ("engine.superoperator_s", "s", "lower"),
    ("engine.superoperator_calls", "count", "lower"),
    ("fileio.write_trajectory_s", "s", "lower"),
    ("fileio.read_trajectory_s", "s", "lower"),
    ("fileio.read_trajectory_calls", "count", "lower"),
    ("fileio.trajectory_mb", "MB", "lower"),
    ("fileio.waveform_s", "s", "lower"),
    ("fileio.parse_config_s", "s", "lower"),
    ("tensors.product_basis_s", "s", "lower"),
    ("tensors.product_basis_calls", "count", "lower"),
    ("expressions.parse_state_s", "s", "lower"),
    ("analysis.projector_s", "s", "lower"),
    ("analysis.population_s", "s", "lower"),
    ("analysis.grouping_s", "s", "lower"),
    ("analysis.score_s", "s", "lower"),
    ("analysis.calls", "count", "lower"),
    ("cli.optimize_s", "s", "lower"),
    ("cli.simulate_s", "s", "lower"),
    ("cli.analyze_s", "s", "lower"),
    ("cli.compare_s", "s", "lower"),
    ("cli.commands", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
]


def _trajectory_bytes(traj) -> int:
    return traj.states.nbytes + traj.times.nbytes


class Tracer:
    """Records spans (name, start, end, parent, round, counts) while active."""

    def __init__(self):
        self.spans: list[dict] = []
        self.active = False
        self.round = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Record a span; counts put in the yielded dict are stored with it."""
        counts: dict = {}
        if not self.active:
            yield counts
            return
        record = {"id": len(self.spans), "name": name, "round": self.round,
                  "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield counts
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            record.update(counts)

    def traced(self, fn, name: str, count=None):
        """Wrap fn so that each call is a span; count(args, result) adds counts."""

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
                if count is not None:
                    counts.update(count(args, result))
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, count=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.traced(original, name, count))

    def install(self):
        """Wrap the layer boundaries. Call after spintraj is importable."""
        import numpy as np
        import scipy.optimize

        from spintraj import analysis, cli, engine, fileio, grape

        minimize = scipy.optimize.minimize

        def traced_minimize(fun, x0, *args, **kwargs):
            return minimize(self.traced(fun, "grape.objective"), x0, *args, **kwargs)

        self._patches.append((scipy.optimize, "minimize", minimize))
        scipy.optimize.minimize = traced_minimize

        def eigh_count(args, result):
            a = args[0]
            return {"matrices": int(a.size // (a.shape[-1] * a.shape[-2])), "bytes": a.nbytes}

        self.patch(np.linalg, "eigh", "kernel.eigh", eigh_count)
        self.patch(cli, "optimize", "grape.optimize",
                   lambda a, r: {"iterations": r.iterations, "final_fidelity": r.final_fidelity})
        self.patch(cli, "propagate", "engine.propagate", lambda a, r: {"steps": a[1].n_steps})
        for owner in (engine, grape):
            self.patch(owner, "commutation_superoperator", "engine.superoperator")
        self.patch(cli, "write_trajectory", "fileio.write_trajectory",
                   lambda a, r: {"bytes": _trajectory_bytes(a[0])})
        self.patch(cli, "read_trajectory", "fileio.read_trajectory",
                   lambda a, r: {"bytes": _trajectory_bytes(r)})
        for attr in ("read_waveform", "write_waveform"):
            self.patch(cli, attr, "fileio.waveform")
        for attr in ("parse_config", "parse_system"):
            self.patch(cli, attr, "fileio.parse_config")
        for owner in (cli, fileio):
            self.patch(owner, "product_basis", "tensors.product_basis")
        self.patch(cli, "parse_state", "expressions.parse_state")
        self.patch(analysis, "build_projector", "analysis.projector")
        self.patch(analysis, "population_series", "analysis.population")
        for attr in ("sg_transform", "bsg_transform"):
            self.patch(analysis, attr, "analysis.grouping")
        for attr in ("rsp", "rdn"):
            self.patch(analysis, attr, "analysis.score")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path):
        path.write_text(json.dumps(self.spans), encoding="utf-8")


def round_metrics(spans: list[dict], round_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one round's spans.

    Times are inclusive (a span's whole duration, child spans included), except
    grape.optimizer_s: optimize's duration minus the objective calls inside it."""

    def dur(s):
        return s["end"] - s["start"]

    def of(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(dur(s) for s in of(name))

    objective = of("grape.objective")
    optimize = of("grape.optimize")
    analysis = [s for s in spans if s["name"].startswith("analysis.")]
    m = {
        "grape.objective_s": total("grape.objective"),
        "grape.objective_calls": len(objective),
        "grape.eval_ms": 1e3 * statistics.median(dur(s) for s in objective) if objective else 0.0,
        "grape.iterations": sum(s["iterations"] for s in optimize),
        "grape.optimizer_s": total("grape.optimize") - total("grape.objective"),
        "grape.final_fidelity": optimize[-1]["final_fidelity"] if optimize else 0.0,
        "kernel.eigh_s": total("kernel.eigh"),
        "kernel.eigh_calls": len(of("kernel.eigh")),
        "kernel.eigh_matrices": sum(s["matrices"] for s in of("kernel.eigh")),
        "kernel.eigh_mb": sum(s["bytes"] for s in of("kernel.eigh")) / 1e6,
        "engine.propagate_s": total("engine.propagate"),
        "engine.propagate_calls": len(of("engine.propagate")),
        "engine.steps": sum(s["steps"] for s in of("engine.propagate")),
        "engine.superoperator_s": total("engine.superoperator"),
        "engine.superoperator_calls": len(of("engine.superoperator")),
        "fileio.write_trajectory_s": total("fileio.write_trajectory"),
        "fileio.read_trajectory_s": total("fileio.read_trajectory"),
        "fileio.read_trajectory_calls": len(of("fileio.read_trajectory")),
        "fileio.trajectory_mb": sum(
            s["bytes"] for s in spans if s["name"] in ("fileio.write_trajectory", "fileio.read_trajectory")
        ) / 1e6,
        "fileio.waveform_s": total("fileio.waveform"),
        "fileio.parse_config_s": total("fileio.parse_config"),
        "tensors.product_basis_s": total("tensors.product_basis"),
        "tensors.product_basis_calls": len(of("tensors.product_basis")),
        "expressions.parse_state_s": total("expressions.parse_state"),
        "analysis.projector_s": total("analysis.projector"),
        "analysis.population_s": total("analysis.population"),
        "analysis.grouping_s": total("analysis.grouping"),
        "analysis.score_s": total("analysis.score"),
        "analysis.calls": len(analysis),
        "cli.optimize_s": total("cli.optimize"),
        "cli.simulate_s": total("cli.simulate"),
        "cli.analyze_s": total("cli.analyze"),
        "cli.compare_s": total("cli.compare"),
        "cli.commands": len([s for s in spans if s["name"].startswith("cli.")]),
        "trace.wall_s": round_wall_s,
    }
    return {name: m[name] for name, _, _ in LAYER_METRICS}
