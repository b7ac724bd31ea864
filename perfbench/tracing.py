"""Outside-in tracing: timing wrappers swapped onto hsiscale's public functions.

Nothing in the package is edited. ``Tracer.install`` replaces each traced
function with a wrapper in every loaded hsiscale module that binds it, and
``Tracer.uninstall`` puts the originals back. A wrapper records one span
(name, start, end, parent, job, counters) per call; spans stay in memory and
are written out once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from spec import CLI_COMMANDS, TRACED, span_names

# counted, not timed: one call per pixel is too fine-grained for a span, so
# each call adds one to the enclosing span's counter of the same name
COUNTED = {"unmix": ("nnls",)}

_START, _END, _PARENT, _COUNTS = 1, 2, 3, 5


def _path_size(arguments, _result, key):
    return {key: os.path.getsize(arguments["path"])}


def _pso_work(arguments, _result):
    config = arguments["config"]
    particles = max(config.swarm_size, len(arguments["initial_normals"]))
    return {"particle_px": particles * (config.iterations + 1) * arguments["reduced"].n_pixels}


def _gains(_arguments, result):
    report = result[1]
    pso = report.psi_initial - report.psi_after_pso
    refine = report.psi_after_pso - report.psi_final
    return {
        "pso_gain": pso / report.psi_initial if report.psi_initial > 0 else 0.0,
        "refine_gain": refine / report.psi_after_pso if report.psi_after_pso > 0 else 0.0,
    }


# span name -> f(bound arguments, result) -> counters added to the span
HOOKS = {
    "correct.run_correction": _gains,
    "correct.candidate_normals": lambda a, r: {"requested": a["count"], "accepted": len(r)},
    "correct.pso_minimize": _pso_work,
    "correct.estimate_scaling": lambda a, r: {"clamped": r.clamped_count},
    "fileio.read_cube": functools.partial(_path_size, key="bytes_read"),
    "fileio.read_matrix_csv": functools.partial(_path_size, key="bytes_read"),
    "fileio.load_vector": functools.partial(_path_size, key="bytes_read"),
    "fileio.write_cube": functools.partial(_path_size, key="bytes_written"),
    "fileio.write_matrix_csv": functools.partial(_path_size, key="bytes_written"),
    "fileio.save_vector": functools.partial(_path_size, key="bytes_written"),
    "cli.fnv1a64": lambda a, r: {"bytes": len(a["data"])},
    "unmix.fcls": lambda a, r: {"pixels": a["pixels"].shape[1]},
}


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = -1
        self.absent: list[str] = []
        self.hook_errors: dict[str, str] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._wrappers: dict[int, tuple] | None = None

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][_END] = time.perf_counter()
        self._stack.pop()

    def _timed(self, name, fn):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.spans[index][_COUNTS].update(hook(bound.arguments, result))
                except (KeyError, TypeError, AttributeError, IndexError, OSError) as exc:
                    # a signature change must not break the run; the stat is
                    # reported missing instead
                    self.hook_errors[name] = repr(exc)
            return result

        return traced

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._stack:
                counts = self.spans[self._stack[-1]][_COUNTS]
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _build_wrappers(self) -> dict[int, tuple]:
        """original function -> wrapper, resolved from each layer's own module.

        ``importlib`` is used because package attributes can shadow modules:
        ``hsiscale.unmix`` is the re-exported function, not the module.
        """
        targets = [(layer, fn, self._timed) for layer, fns in TRACED.items() for fn in fns]
        targets += [(layer, fn, self._counted) for layer, fns in COUNTED.items() for fn in fns]
        wrappers = {}
        for layer, fn_name, make in targets:
            name = f"{layer}.{fn_name}"
            original = getattr(importlib.import_module(f"hsiscale.{layer}"), fn_name, None)
            if original is None:
                self.absent.append(name)
                continue
            wrappers[id(original)] = (original, make(name, original))
        return wrappers

    def install(self) -> None:
        """Swap every traced function in each hsiscale module that binds it."""
        if self._wrappers is None:
            self._wrappers = self._build_wrappers()
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "hsiscale" or n.startswith("hsiscale."))
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        """Write the spans as JSON lines, one per span."""
        with open(path, "w") as fh:
            for name, start, end, parent, job, counts in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "job": job, "counts": counts,
                }) + "\n")

    def layer_metrics(self, jobs: int, job_seconds: float) -> dict[str, float]:
        """Per-layer metrics, each per traced job.

        ``job_seconds`` is the traced jobs' total wall time, the base of the
        coverage ratio.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child[span[_PARENT]] += span[_END] - span[_START]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        counts = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _parent, _job, span_counts) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            total_s[name] += end - start
            for key, value in span_counts.items():
                counts[name][key] += value

        absent = set(self.absent) | set(self.hook_errors)
        out: dict[str, float] = {}
        for name in span_names():
            if name in self.absent:
                continue
            out[f"{name}.calls"] = calls[name] / jobs
            out[f"{name}.self_s"] = self_s[name] / jobs
        for cmd in CLI_COMMANDS:
            out[f"cli.{cmd}.s"] = total_s[f"cli.{cmd}"] / jobs

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        def put(metric, sources, value):
            if not absent.intersection(sources):
                out[metric] = value()

        pso, run, cand = "correct.pso_minimize", "correct.run_correction", "correct.candidate_normals"
        put(f"{pso}.ns_per_particle_px", [pso],
            lambda: ratio(self_s[pso], counts[pso]["particle_px"], 1e9))
        put("correct.pso_gain", [run], lambda: ratio(counts[run]["pso_gain"], calls[run]))
        put("correct.refine_gain", [run], lambda: ratio(counts[run]["refine_gain"], calls[run]))
        put("correct.candidate_fill", [cand],
            lambda: ratio(counts[cand]["accepted"], counts[cand]["requested"]))
        est = "correct.estimate_scaling"
        put("correct.clamped_pixels", [est], lambda: ratio(counts[est]["clamped"], calls[est]))
        reads = ("fileio.read_cube", "fileio.read_matrix_csv", "fileio.load_vector")
        writes = ("fileio.write_cube", "fileio.write_matrix_csv", "fileio.save_vector")
        put("fileio.mb_read", reads,
            lambda: sum(counts[n]["bytes_read"] for n in reads) / 1e6 / jobs)
        put("fileio.mb_written", writes,
            lambda: sum(counts[n]["bytes_written"] for n in writes) / 1e6 / jobs)
        fnv = "cli.fnv1a64"
        put(f"{fnv}.mb_per_s", [fnv], lambda: ratio(counts[fnv]["bytes"], self_s[fnv], 1e-6))
        fcls = "unmix.fcls"
        put(f"{fcls}.us_per_px", [fcls], lambda: ratio(self_s[fcls], counts[fcls]["pixels"], 1e6))
        put("unmix.nnls_per_px", [fcls, "unmix.nnls"],
            lambda: ratio(counts[fcls]["unmix.nnls"], counts[fcls]["pixels"]))
        out["trace.coverage"] = ratio(sum(self_s.values()), job_seconds)
        out["trace.absent_layers"] = float(len(self.absent))
        return out
