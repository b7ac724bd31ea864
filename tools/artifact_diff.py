"""Run the README walkthrough on two checkouts and compare every artifact they write.

    python tools/artifact_diff.py --parent REV [--threads 1,2] [--small]

The parent side runs in a ``git worktree`` of REV, the other side in this
working tree; the worktree is removed on every exit. Each side runs the
walkthrough once per BLAS thread count, in its own process, with hsiscale
imported from that side's ``src``. Every artifact is printed with:

* whether its bytes are identical;
* the largest relative difference of any float (``.hsic``, ``.f32``,
  ``.csv`` and JSON files);
* ψ's relative change, for a correction report;
* the keys that differ, for a manifest, other than ``duration_seconds``.

The exit status is 0 when every artifact is byte-identical, manifests
apart, whose keys may differ only in ``duration_seconds``; 1 otherwise.

    python tools/artifact_diff.py --walk OUT --src SRC [--small]

runs the walkthrough once into OUT with the hsiscale of SRC, which is what
each side's process does. The steps run in-process through
``hsiscale.cli.main``, in OUT as the working directory, and each ``eval``
prints to a JSON file of its own.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# scene size, sweep and ablation settings: README's walkthrough, and a shrunken one
SIZES = {
    "readme": {"grid": "128", "bands": "100", "k": "5", "stds": "0.05,0.1,0.15,0.2,0.25,0.3", "seeds": "3"},
    "small": {"grid": "16", "bands": "12", "k": "3", "stds": "0.1,0.2", "seeds": "1"},
}
# bytes before the float32 payload of each binary format
_HEADER_BYTES = {".hsic": struct.calcsize("<4sHHIII"), ".f32": struct.calcsize("<II")}


def walkthrough_steps(size: str) -> list[tuple[str | None, list[str]]]:
    """README's walkthrough as (stdout file or None, argv) pairs, paths relative to the run's directory."""
    z = SIZES[size]
    grid = ["--height", z["grid"], "--width", z["grid"], "--bands", z["bands"], "--endmembers", z["k"]]
    return [
        (None, ["synth", *grid, "--scale-std", "0.3", "--seed", "7", "--out", "scene"]),
        (None, ["correct", "--input", "scene/scaled.hsic", "--endmembers", z["k"],
                "--out", "corrected.hsic", "--mu-out", "mu_hat.f32", "--seed", "7"]),
        ("eval_mu.json", ["eval", "mu", "--pred", "mu_hat.f32", "--truth", "scene/mu_true.f32",
                          "--clean-cube", "scene/clean.hsic"]),
        (None, ["unmix", "--input", "corrected.hsic", "--endmembers", z["k"], "--extract", "nfindr",
                "--seed", "7", "--out", "unmixed"]),
        ("eval_abundance.json", ["eval", "abundance", "--pred", "unmixed/abundances.csv",
                                 "--truth", "scene/abundances.csv",
                                 "--pred-endmembers", "unmixed/endmembers.csv",
                                 "--truth-endmembers", "scene/endmembers.csv"]),
        (None, ["ablate", "--input", "scene/scaled.hsic", "--truth-mu", "scene/mu_true.f32",
                "--endmembers", z["k"], "--seed", "7", "--out", "ablation.json"]),
        (None, ["sweep", "--stds", z["stds"], "--seeds", z["seeds"], *grid, "--out", "sweep.csv"]),
    ]


def walk(out: Path, src: Path, size: str) -> None:
    """Run the walkthrough into ``out`` with the hsiscale package under ``src``."""
    sys.path.insert(0, str(src))
    import hsiscale
    from hsiscale.cli import main

    if Path(hsiscale.__file__).resolve().parent != (src / "hsiscale").resolve():
        raise ImportError(f"hsiscale was imported from {hsiscale.__file__}, not {src}")
    out.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(out)
    try:
        for stdout_file, argv in walkthrough_steps(size):
            with open(os.devnull if stdout_file is None else stdout_file, "w") as fh:
                with contextlib.redirect_stdout(fh):
                    code = main(argv)
            if code != 0:
                raise RuntimeError(f"hsiscale {argv[0]} exited {code}")
    finally:
        os.chdir(cwd)


def run_side(src: Path, out: Path, threads: int, size: str) -> None:
    """The walkthrough in a fresh process, BLAS pinned to ``threads`` before numpy loads."""
    env = dict(os.environ, **{var: str(threads) for var in BLAS_ENV})
    cmd = [sys.executable, str(Path(__file__).resolve()), "--walk", str(out), "--src", str(src)]
    if size == "small":
        cmd.append("--small")
    subprocess.run(cmd, env=env, check=True)


# ------------------------------------------------------------- comparison

def _flatten(value, prefix=""):
    """A JSON value as {dotted key: leaf}; list items are keyed by their index."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return {key: leaf for k, sub in items for key, leaf in _flatten(sub, f"{prefix}{k}.").items()}
    return {prefix.rstrip("."): value}


def _floats(path: Path):
    """The numbers of a float artifact, or None for a file that holds none."""
    raw = path.read_bytes()
    if path.suffix in _HEADER_BYTES:
        header = _HEADER_BYTES[path.suffix]
        return np.frombuffer(raw, "<f4", offset=header).astype(np.float64), raw[:header]
    if path.suffix == ".csv":
        tokens = raw.decode().replace("\n", ",").split(",")
    elif path.suffix == ".json":
        tokens = [
            v if isinstance(v, (int, float)) and not isinstance(v, bool) else f"{k}={v}"
            for k, v in _flatten(json.loads(raw)).items()
        ]
    else:
        return None
    numbers, words = [], []
    for token in tokens:
        try:
            numbers.append(float(token))
        except (TypeError, ValueError):
            words.append(token)
    return np.array(numbers), words


def max_relative_difference(a: Path, b: Path) -> float | None:
    """Largest |x - y| / max(|x|, |y|) over the floats of two artifacts; inf if their layout differs."""
    fa, fb = _floats(a), _floats(b)
    if fa is None:
        return None
    (xa, rest_a), (xb, rest_b) = fa, fb
    if xa.shape != xb.shape or rest_a != rest_b:
        return float("inf")
    if xa.size == 0:
        return 0.0
    same = (xa == xb) | (np.isnan(xa) & np.isnan(xb))
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(xa - xb) / np.maximum(np.abs(xa), np.abs(xb))
    return float(np.max(np.where(same, 0.0, np.nan_to_num(rel, nan=np.inf))))


def is_manifest(path: Path) -> bool:
    return path.name == "manifest.json" or path.name.endswith(".manifest.json")


def compare_dirs(parent: Path, child: Path) -> list[dict]:
    """One row per artifact of either run: what differs between the two."""
    files = {p.relative_to(d).as_posix() for d in (parent, child) for p in d.rglob("*") if p.is_file()}
    rows = []
    for name in sorted(files):
        a, b = parent / name, child / name
        row = {"artifact": name}
        if not (a.is_file() and b.is_file()):
            row.update(identical=False, ok=False, missing="parent" if not a.is_file() else "change")
            rows.append(row)
            continue
        row["identical"] = a.read_bytes() == b.read_bytes()
        if is_manifest(a):
            ja, jb = _flatten(json.loads(a.read_text())), _flatten(json.loads(b.read_text()))
            row["keys"] = sorted(k for k in ja.keys() | jb.keys() if ja.get(k) != jb.get(k))
            row["ok"] = set(row["keys"]) <= {"duration_seconds"}
        else:
            row["max_rel"] = max_relative_difference(a, b)
            row["ok"] = row["identical"]
        if name.endswith(".report.json"):
            psi_a, psi_b = (json.loads(p.read_text())["psi_final"] for p in (a, b))
            row["psi_rel"] = abs(psi_b - psi_a) / abs(psi_a) if psi_a else abs(psi_b - psi_a)
        rows.append(row)
    return rows


def format_row(row: dict) -> str:
    cells = [row["artifact"], "identical" if row["identical"] else "DIFFERS"]
    if "missing" in row:
        cells.append(f"missing in {row['missing']}")
    if row.get("max_rel") is not None:
        cells.append(f"max_rel={row['max_rel']:.3g}")
    if "psi_rel" in row:
        cells.append(f"psi_rel={row['psi_rel']:.3g}")
    if "keys" in row:
        cells.append("keys=" + (",".join(row["keys"]) or "-"))
    return "  ".join(cells)


# ------------------------------------------------------------------ main

@contextlib.contextmanager
def parent_worktree(rev: str, path: Path):
    """A detached ``git worktree`` of ``rev`` at ``path``, removed on exit."""
    git = ["git", "-C", str(ROOT), "worktree"]
    subprocess.run([*git, "add", "--detach", "--quiet", str(path), rev], check=True)
    try:
        yield path
    finally:
        subprocess.run([*git, "remove", "--force", str(path)], check=False)
        subprocess.run([*git, "prune"], check=False)


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="the revision to compare the working tree against")
    parser.add_argument("--threads", default="1,2", help="BLAS thread counts, comma-separated")
    parser.add_argument("--small", action="store_true", help="shrunken walkthrough: 16x16 px, 12 bands, K=3")
    parser.add_argument("--walk", type=Path, help="run the walkthrough once into this directory")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="with --walk: src holding hsiscale")
    args = parser.parse_args(argv)
    size = "small" if args.small else "readme"
    if args.walk is not None:
        walk(args.walk.resolve(), args.src.resolve(), size)
        return 0
    if args.parent is None:
        parser.error("--parent or --walk is required")

    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    threads = [int(t) for t in args.threads.split(",")]
    tmp = Path(tempfile.mkdtemp(prefix="artifact_diff-"))
    ok = True
    try:
        with parent_worktree(args.parent, tmp / "parent-tree") as tree:
            sides = {"parent": tree / "src", "change": ROOT / "src"}
            for n in threads:
                for side, src in sides.items():
                    run_side(src, tmp / f"{side}-{n}", n, size)
                rows = compare_dirs(tmp / f"parent-{n}", tmp / f"change-{n}")
                print(f"# {n} BLAS thread(s): parent {args.parent} vs working tree, {len(rows)} artifacts")
                for row in rows:
                    print(format_row(row))
                ok &= all(row["ok"] for row in rows)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("every artifact identical (manifests: duration_seconds only)" if ok else "artifacts differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
