"""Benchmark entry point: one workload, one seed, one measuring budget.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload query_1m --seed 1 --seconds 12 --trace 0

With ``--trace 0`` it measures every end-to-end metric untraced; with
``--trace 1`` it runs a fixed unit of the workload untraced and again with
every layer wrapped, and reports the per-layer table plus the tracing
overhead.  Either way every correctness gate runs, a human-readable report
goes to stdout, a copy of the result (with the machine fingerprint and,
when traced, every span) is written under ``.perfbench_out/``, and the
last line of stdout is the JSON result.  A failed gate exits with code 1
after printing it; a checkout without the library under ``src/`` exits
with code 1 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"

WORKLOADS = ("query_1m", "ingest_str", "serve_mixed")


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _git_sha() -> str:
    """HEAD's commit from ``.git`` in the checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint(seed: int) -> dict:
    import numpy

    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "seed": seed,
    }


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_library() -> None:
    """Put the checkout's ``src`` first on the path; refuse any other copy."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no library source at {SOURCE}; run from a source checkout")
    sys.path.insert(0, str(SOURCE))
    import repro

    if Path(repro.__file__).resolve().parent != SOURCE / "repro":
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SOURCE}")


def _report(workload: str, outcome, spec: dict, trace: bool) -> dict:
    """Print the human-readable tables; return the metrics of the JSON line."""
    declared = spec["per_layer" if trace else "end_to_end"]
    values = outcome.layers if trace else outcome.end_to_end
    metrics = {}
    print(f"== {workload} ({'per-layer, traced' if trace else 'end-to-end'}) ==")
    predictions = {}
    if trace:
        predictions = {
            row["layer"]: row
            for row in json.loads((BENCH_DIR / "predictions.json").read_text())["layers"]
        }
    for entry in declared:
        name = entry["name"]
        value = float(values[name])
        if not math.isfinite(value):
            raise SystemExit(f"error: metric {name} is not finite ({value})")
        if not trace and value == 0.0:
            raise SystemExit(f"error: end-to-end metric {name} measured 0")
        metrics[name] = {"value": value, "unit": entry["unit"]}
        note = ""
        layer = name.rsplit(".", 1)[0]
        if layer in predictions or name in predictions:
            row = predictions.get(name) or predictions[layer]
            note = f"  -> {', '.join(row['moves'])} on {', '.join(row['workloads'])}"
        print(f"  {name:<48} {value:>14.6g} {entry['unit']:<9}{note}")
    for name, (value, unit) in outcome.extras.items():
        print(f"  (extra) {name:<40} {value:>14.6g} {unit}")
    if outcome.attempted:
        print(f"  (extra) {'failed_frac':<40} {outcome.failed / outcome.attempted:>14.6g} ratio")
    for gate in outcome.gates:
        print(f"  gate {'PASS' if gate.passed else 'FAIL'} {gate.name}: {gate.detail}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    spec = _load_spec()
    _import_library()
    import importlib

    from gbbench.common import Context

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Context(seed=args.seed, seconds=args.seconds, trace=bool(args.trace), workdir=workdir)
    try:
        outcome = importlib.import_module(f"gbbench.{args.workload}").run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    machine = fingerprint(args.seed)
    print("fingerprint: " + json.dumps(machine, sort_keys=True))
    metrics = _report(args.workload, outcome, spec, bool(args.trace))
    result = {
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(
        json.dumps(
            {
                "fingerprint": machine,
                "workload": args.workload,
                "result": result,
                "extras": {k: v for k, (v, _) in outcome.extras.items()},
                "gates": [g.__dict__ for g in outcome.gates],
                "spans": outcome.spans,
            }
        ),
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
