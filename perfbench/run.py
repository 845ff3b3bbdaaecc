"""latentlab benchmark: one workload per process, from a workload seed.

    python3 perfbench/run.py --workload experiment_fig4 --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the run sets up several times, then repeats the workload's op
for ``--seconds`` seconds with no tracing and reports the end-to-end metrics
named in ``BENCHMARK.json``.  With ``--trace 1`` it runs a fixed number of ops
untraced and the same ops again under the span tracer, and reports the
per-layer metrics.  The last line of standard output is the result object;
the line before it carries the details (stage times, output digests, machine
fingerprint), which are also written under ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS, Tracer, aggregate

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"
SETUP_REPEATS = 7
# Ops per traced run: fixed, so that the per-layer counts repeat exactly.
TRACE_OPS = {"experiment_fig4": 2, "oracle_verify": 4, "level_sweep_bench3": 6}
THREAD_VARS = ("LATENTLAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = "import time; t = time.perf_counter(); import latentlab.cli; print(time.perf_counter() - t)"


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        fail(f"importing latentlab failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    """SHA-256 over the package sources and fixtures, for checkouts without git."""
    h = hashlib.sha256()
    pkg = SRC / "latentlab"
    for path in sorted(list(pkg.rglob("*.py")) + list(pkg.rglob("*.json"))):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def fingerprint() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except TypeError:  # numpy without the dicts mode
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def setup_once(workload, with_import: bool = True) -> float:
    start = time.perf_counter()
    workload.setup()
    return time.perf_counter() - start + (import_seconds() if with_import else 0.0)


def timed_ops(workload, seconds: float, setup_times: list[float]) -> list:
    """Repeat ops while the next one, at the median op time so far, still ends
    within ``seconds``; at least one op.  Between ops, set up again at evenly
    spaced times until there are ``SETUP_REPEATS`` set-up samples: the host's
    speed drifts over tens of seconds, so samples taken in one burst would all
    see the same phase."""
    ops, start = [], time.perf_counter()
    while True:
        ops.append(workload.op(len(ops)))
        elapsed = time.perf_counter() - start
        if len(setup_times) < SETUP_REPEATS and elapsed >= seconds * len(setup_times) / SETUP_REPEATS:
            setup_times.append(setup_once(workload))
            elapsed = time.perf_counter() - start
        if elapsed + statistics.median(op.wall_s for op in ops) > seconds:
            break
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(setup_once(workload))
    return ops


def end_to_end(workload, ops, setup_times) -> tuple[dict, dict]:
    items = sum(op.items for op in ops)
    items_wall = sum(op.items_wall_s for op in ops)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pipeline_s": statistics.median(op.wall_s for op in ops),
        "items_per_s": items / items_wall if items_wall > 0 else 0.0,
    }
    # The same throughput under the workload's own name, and the median of each CLI stage.
    extra = {workload.ITEMS: metrics["items_per_s"]}
    for stage in ops[0].stages:
        extra[f"{stage}_s"] = statistics.median(op.stages.get(stage, 0.0) for op in ops)
    return metrics, extra


def per_layer(names: list[str], agg: dict, masks: int, overhead: float, computed: dict) -> dict:
    """Values for the declared per-layer metric names.  ``<span>.<stat>`` and
    ``<layer>.<stat>`` come straight from the aggregate; the rest are derived."""
    fns = agg["functions"]

    def stat(span: str, key: str):
        return fns.get(span, {}).get(key, 0)

    def attr(span: str, key: str):
        return fns.get(span, {}).get("attrs", {}).get(key, 0)

    gemm = attr("nets.mlp_forward", "flops") + attr("nets.mlp_backward", "flops")
    gemm_s = stat("nets.mlp_forward", "self_s") + stat("nets.mlp_backward", "self_s")
    adam_calls = stat("nets.adam_step", "calls")
    derived = {
        "cli.worker_threads": agg["threads"],
        "locate.information_closure.calls_per_mask": stat("locate.information_closure", "calls") / masks if masks else 0.0,
        "locate.locate_c.calls_per_mask": stat("locate.locate_c", "calls") / masks if masks else 0.0,
        "locate.oracle.ties": attr("locate.brute_force_minimal_c", "ties"),
        "scm.save_dataset.bytes": attr("scm.save_dataset", "bytes"),
        "scm.load_dataset.bytes": attr("scm.load_dataset", "bytes"),
        "mae.train.steps": fns.get("nets.adam_step", {}).get("parents", {}).get("mae.train", 0),
        "nets.gemm_flops": gemm,
        "nets.achieved_gflops": gemm / gemm_s / 1e9 if gemm_s > 0 else 0.0,
        "nets.adam_step.arrays_per_step": attr("nets.adam_step", "arrays") / adam_calls if adam_calls else 0.0,
        "ident.train_rows": attr("ident.kernel_ridge.fit", "rows"),
        "ident.solve_flops": attr("ident.kernel_ridge.fit", "flops"),
        "trace_overhead_frac": overhead,
        "mae.decoder.useful_output_frac": 0.0,
        **computed,
    }
    values = {}
    for name in names:
        span, _, key = name.rpartition(".")
        if name in derived:
            values[name] = derived[name]
        elif span in LAYERS:
            values[name] = agg["layers"][span][key]
        elif key in ("calls", "wall_s", "self_s", "errors"):
            values[name] = stat(span, key)
        else:
            fail(f"no rule computes the per-layer metric {name!r}")
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("run from the repository root: BENCHMARK.json not found")
    if not (SRC / "latentlab" / "__init__.py").is_file():
        fail(f"package sources not found under {SRC}")
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    workload = WORKLOADS[args.workload](work / "inputs", args.seed, "smoke" if args.smoke else "full")

    setup_times = [setup_once(workload, with_import=not args.trace)]
    workload.warmup()

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "fingerprint": fingerprint()}
    if not args.trace:
        ops = timed_ops(workload, args.seconds, setup_times)
        values, detail["named_metrics"] = end_to_end(workload, ops, setup_times)
        detail["setup_s_samples"] = setup_times
    else:
        k = TRACE_OPS[args.workload]
        untraced = [workload.op(i) for i in range(k)]
        with Tracer() as tracer:
            workload.setup()
            traced = [workload.op(i) for i in range(k)]
        for a, b in zip(untraced, traced):
            if a.digests != b.digests:
                b.failures.append("traced outputs differ from untraced outputs")
        ops = untraced + traced
        overhead = sum(op.wall_s for op in traced) / sum(op.wall_s for op in untraced) - 1.0
        values = per_layer([m["name"] for m in declared], aggregate(tracer.spans),
                           sum(op.masks for op in traced), overhead, workload.computed_counts())
        tracer.write(work / "spans.jsonl")
        detail["spans"] = len(tracer.spans)
        detail["traced_digests"] = traced[0].digests

    detail["ops"] = [{"wall_s": op.wall_s, "items": op.items, "stages": op.stages,
                      "failures": op.failures} for op in ops]
    detail["digests"] = ops[0].digests
    failed = sum(1 for op in ops if op.failures)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        fail(f"metrics not computed: {missing}")
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    shutil.rmtree(work / "inputs", ignore_errors=True)  # datasets and models: digests are kept
    (work / "result.json").write_text(json.dumps({"detail": detail, "result": result}, indent=2) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
