"""signweave benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload train_fresh --seed 0 --seconds 45 --trace 0

Run from the repository root; signweave is imported from `src/` there. With
`--trace 0` the run measures the end-to-end metrics with nothing installed
in the program. Timings are calibrated to a reference machine speed by a probe
kernel that an interval timer runs in the workload's thread (speed.py). With
`--trace 1` it measures half the time untraced and half traced, and reports
the per-layer metrics, the self time of every span, and the tracing overhead
(traced minus untraced median `run_s`).

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines before it are a readable
report. The full result, with the machine facts, goes to
`.perfbench/results/`, and traced runs write their spans next to it.
See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import os

# pinned before numpy loads: one BLAS thread and no trimming pool, so on a
# two-core machine the other core absorbs noise from the rest of the machine
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
os.environ["SIGNWEAVE_WORKERS"] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_SEED = 0
REFERENCE_PATH = BENCH_DIR / "reference.json"

# the gated end-to-end metrics; length_ratio_err and retrieval_mrr are printed
# and checked but not gated (see README.md)
END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "resume_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
    "dtw_mpjpe_overall": "feat", "dtw_pa_mpjpe": "feat", "fgd": "feat2", "duration_mae": "log-ratio",
}
UNGATED_UNITS = {"length_ratio_err": "ratio", "retrieval_mrr": "ratio"}


def import_program():
    """Import signweave from the checkout's `src/`, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import signweave

    if not Path(signweave.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"signweave was found at {signweave.__file__}, not under {src}")


def machine_facts() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except (TypeError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "SIGNWEAVE_WORKERS": os.environ.get("SIGNWEAVE_WORKERS"),
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from `.git` without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload, seconds: float, recorder=None) -> list:
    """Closed loop: iterate until `seconds` have passed (at least once)."""
    outcomes = []
    deadline = time.perf_counter() + seconds
    while not outcomes or time.perf_counter() < deadline:
        if recorder is not None:
            recorder.run_id = len(outcomes)
        outcomes.append(workload.op(len(outcomes)))
    return outcomes


def timing_summary(values: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "samples": values}
    if n > 10:
        out[f"p{100 * (n - 10) // n}"] = sorted(values)[n - 11]
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool, size: str = "bench",
        reference: dict | None = None) -> dict:
    from speed import REFERENCE_S
    from tracing import SpanRecorder, layer_metrics, patch_sites, unit_of
    from workloads import WORKLOADS

    work_root = ROOT / ".perfbench" / "work" / f"{workload_name}-{seed}-{os.getpid()}"
    shutil.rmtree(work_root, ignore_errors=True)
    workload = WORKLOADS[workload_name](size, seed, work_root)
    result: dict = {"workload": workload_name, "seed": seed, "size": size, "trace": trace}
    workload.clock.start()
    try:
        setup = [workload.clock.time("setup_s", functools.partial(workload.setup, rep))[0]
                 for rep in range(workload.setup_reps)]
        result["input_digest"] = workload.input_digest()
        recorder = None
        if not trace:
            outcomes = measure(workload, seconds)
            timed = outcomes
        else:
            untraced = measure(workload, seconds / 2)
            recorder = SpanRecorder()
            recorder.install(patch_sites())
            try:
                traced = measure(workload, seconds / 2, recorder)
            finally:
                recorder.uninstall()
            outcomes = untraced + traced
            timed = traced
        workload.clock.stop()
        verdict, quality = workload.check(outcomes, reference)
        result["reference"] = workload.reference(quality)
    finally:
        workload.clock.stop()
        shutil.rmtree(work_root, ignore_errors=True)

    run_s = [o.run_s for o in timed]
    resume_s = [r for o in timed for r in o.resume_s]
    result.update({
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "fail_ratio": verdict.failed / verdict.attempted,
        "failures": verdict.reasons,
        "quality": quality,
        "timings": {"setup_s": timing_summary(setup), "run_s": timing_summary(run_s),
                    "resume_s": timing_summary(resume_s)},
        "output_digests": [o.outputs for o in outcomes],
        "clock": {"reference_s": REFERENCE_S,
                  "wall_s": {k: [w for w, _ in v] for k, v in workload.clock.raw.items()},
                  "probe_s": {k: [p for _, p in v] for k, v in workload.clock.raw.items()}},
    })
    if not trace:
        metrics = {
            "setup_s": statistics.median(setup),
            "run_s": statistics.median(run_s),
            "resume_s": statistics.median(resume_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": 1.0 - result["fail_ratio"],
            **quality,
        }
        result["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    else:
        overhead = statistics.median(run_s) - statistics.median(o.run_s for o in untraced)
        layers = layer_metrics(recorder, len(traced), overhead)
        result["metrics"] = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
        result["untraced_run_s"] = timing_summary([o.run_s for o in untraced])
        result["self_times"] = recorder.self_times()
        result["unpatched_sites"] = recorder.missing
        result["recorder"] = recorder
    return result


def report_lines(result: dict) -> list[str]:
    lines = [f"workload {result['workload']}  seed {result['seed']}  size {result['size']}  "
             f"trace {int(result['trace'])}  inputs {result['input_digest']}"]
    for name, t in result["timings"].items():
        extra = "  ".join(f"{k}={v:.4f}" for k, v in t.items() if k[0] == "p" and k[1:].isdigit())
        lines.append(f"  {name:<22} median {t['median']:.4f} s  n={t['n']}  "
                     + (extra or "(no percentile with 10 runs beyond it)"))
    clock = result["clock"]
    for name, walls in clock["wall_s"].items():
        probes = clock["probe_s"][name]
        lines.append(f"    {name} uncalibrated: wall median {statistics.median(walls):.4f} s, probe median "
                     f"{1e3 * statistics.median(probes):.2f} ms (reference {1e3 * clock['reference_s']:.2f} ms)")
    lines.append(f"  {'fail_ratio':<22} {result['fail_ratio']:.6f} ratio  "
                 f"({result['failed']} of {result['attempted']} operations)")
    for reason, n in result["failures"].items():
        lines.append(f"    failed: {n} x {reason}")
    for name, m in result["metrics"].items():
        lines.append(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    for name, unit in UNGATED_UNITS.items():
        if name in result["quality"]:
            lines.append(f"  {name:<34} {result['quality'][name]:.6g} {unit}  (printed, not gated)")
    if result["trace"]:
        lines.append(f"  untraced run_s median {result['untraced_run_s']['median']:.4f} s; "
                     f"tracing overhead {result['metrics']['trace.overhead_s']['value']:+.4f} s")
        lines.append(f"  {'span':<44} {'calls':>8} {'total_s':>10} {'self_s':>10}")
        for name, row in sorted(result["self_times"].items(), key=lambda kv: -kv[1]["self_s"]):
            lines.append(f"  {name:<44} {row['calls']:>8} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")
        if result["unpatched_sites"]:
            lines.append(f"  not found, so not traced: {', '.join(result['unpatched_sites'])}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train_fresh", "compose_eval"))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"record this run's outputs as the reference (seed {REFERENCE_SEED} only)")
    args = parser.parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import signweave from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    references = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
    reference = None
    if args.seed == REFERENCE_SEED and not args.write_reference:
        reference = references.get(args.workload)
        if reference is None:
            print(f"perfbench: no reference recorded for {args.workload}", file=sys.stderr)
            return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), reference=reference)
    result["machine"] = machine_facts()
    if args.write_reference:
        if args.seed != REFERENCE_SEED or result["failed"]:
            print("perfbench: a reference is recorded only from a clean run at the reference seed",
                  file=sys.stderr)
            return 2
        references[args.workload] = result.pop("reference")
        REFERENCE_PATH.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")

    out_dir = ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    recorder = result.pop("recorder", None)
    result.pop("output_digests")
    result.pop("reference", None)
    if recorder is not None:
        recorder.write(out_dir / f"{stem}.spans.jsonl")
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True, default=str))

    for line in report_lines(result):
        print(line)
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
