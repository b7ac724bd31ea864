"""Workloads and metrics of the hsiscale benchmark, and the BENCHMARK.json made from them.

Every name, unit, direction and bound the benchmark reports is defined here
once. ``python3 perfbench/spec.py`` rewrites BENCHMARK.json at the repository
root from these tables.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

# one line each; the longer rationale is in perfbench/README.md
WORKLOADS = {
    "correct-bench": (
        "acceptance scene, 128x128 px, K=5, noise-free, default optimizer: the PSO objective "
        "kernel does ~93% of the work; no I/O, hashing or unmixing"
    ),
    "correct-noisy": (
        "96x96 px, K=6, 25 dB: few candidates pass, so the global search sets the answer; "
        "reads worse than no correction; K=8 left out, candidate_normals fails there"
    ),
    "cli-loop": (
        "README walkthrough through cli.main at 128x128 px, K=5, light optimizer: hashing, "
        "cube and CSV I/O, fcls and synthesis do most of the work; writes and reads"
    ),
}

# (name, unit, better, bound as a share of the parent's median)
END_TO_END = (
    ("job_s", "s", "lower", 0.25),
    ("mpx_per_s", "Mpx/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("rmse_mu", "ratio", "lower", 0.05),
    ("psi_final", "psi", "lower", 0.01),
    ("abundance_rmse", "ratio", "lower", 0.05),
)

# traced functions by layer module; each gets `.calls` and `.self_s`
TRACED = {
    "reduction": ("svd_reduce",),
    "correct": (
        "run_correction",
        "candidate_normals",
        "pso_minimize",
        "gd_refine",
        "estimate_scaling",
        "correct_pixels",
    ),
    "fileio": (
        "read_cube",
        "write_cube",
        "read_matrix_csv",
        "write_matrix_csv",
        "save_vector",
        "load_vector",
    ),
    "cli": ("fnv1a64",),
    "synth": ("gen_scene", "write_scene"),
    "fields": ("gaussian_random_field",),
    "unmix": ("nfindr_extract", "unmix", "fcls"),
}
# spans the benchmark opens itself around each CLI subcommand a job runs
CLI_COMMANDS = ("synth", "correct", "unmix", "eval")

# (name, unit, better) of the derived per-layer metrics
DERIVED = (
    ("correct.pso_minimize.ns_per_particle_px", "ns", "lower"),
    ("correct.pso_gain", "ratio", "higher"),
    ("correct.refine_gain", "ratio", "higher"),
    ("correct.candidate_fill", "ratio", "higher"),
    ("correct.clamped_pixels", "count", "lower"),
    ("fileio.mb_read", "MB", "lower"),
    ("fileio.mb_written", "MB", "lower"),
    ("cli.fnv1a64.mb_per_s", "MB/s", "higher"),
    ("unmix.fcls.us_per_px", "us", "lower"),
    ("unmix.nnls_per_px", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.absent_layers", "count", "lower"),
)


def span_names() -> list[str]:
    names = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]
    return names + [f"cli.{cmd}" for cmd in CLI_COMMANDS]


def per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for span in span_names():
        out.append((f"{span}.calls", "count", "lower"))
        out.append((f"{span}.self_s", "s", "lower"))
    out += [(f"cli.{cmd}.s", "s", "lower") for cmd in CLI_COMMANDS]
    return out + list(DERIVED)


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer()],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    (ROOT / "BENCHMARK.json").write_text(render())
