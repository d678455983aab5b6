"""Benchmark of the symile library: one command, four closed-loop workloads.

Run from the root of a checkout, which must hold ``src/symile``:

    python3 perfbench/run.py --workload train-symile-on --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
(see ``spans.py``) and the tracing overhead.  The metric names and units
come from ``BENCHMARK.json`` at the root of the checkout.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
provenance, every reported end-to-end metric with its percentiles, and every
correctness check.  The exit code is 0 when every check passed, 1 when
one failed, and 2 when the checkout is unusable.

``setup_s`` is the mean of several cold set-ups (import, data
generation and warm-up).  Each is a fresh process started with
``--setup-only`` that times its own import and set-up, prints it and
exits; they run one at a time, between the timed passes (see
``ColdSetups``).  This process's own set-up is not among them: on a host
whose idle vCPUs are slow to wake, a set-up right after an idle spell
reads two to four times slower.  The mean, not the median: most
set-ups last a fraction of a second, and on a host whose speed flips between
two levels about 1.4x apart for a second or two at a time the samples
fall into two clusters, between which a median jumps from run to run.
The median and the sample count are printed beside it.
"""

from __future__ import annotations

import argparse
import glob
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
import traceback

# Fresh processes that each time one cold set-up: at least the first
# number, and more, up to the second, while they have taken less than
# SETUP_BUDGET_S between them.
SETUP_CHILDREN = (3, 11)
SETUP_BUDGET_S = 4.0
MIN_PASSES = 3
MIN_TRACE_PAIRS = 2
# Allowance for host noise between the traced and untraced medians of
# train's wall time, beyond the tracing overhead of the whole pass.
TRAIN_SUM_NOISE = 0.05

# The reported end-to-end metrics, each with its unit and the workloads it
# applies to (None: every workload).  The gated subset is in BENCHMARK.json;
# the rest are not on every workload, or read 0 (error_rate), so they are
# reported here and not gated.
REPORTED_METRICS = {
    "setup_s": ("s", None),
    "train_rows_per_s": ("rows/s", ("train-symile-on", "train-symile-on2")),
    "cell_s": ("s", ("train-symile-on", "train-symile-on2")),
    "retrieval_acc": ("fraction", ("train-symile-on", "train-symile-on2")),
    "sweep_cells_per_min": ("cells/min", ("sweep-jobs2",)),
    "oracle_s": ("s", ("oracle-diag",)),
    "bound_tuples_per_s": ("tuples/s", ("oracle-diag",)),
    "scorer_steps_per_s": ("steps/s", ("oracle-diag",)),
    "gradcheck_s": ("s", ("oracle-diag",)),
    "peak_rss_mb": ("MB", None),
    "error_rate": ("fraction", None),
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="time one cold import and set-up, print it and exit")
    return p.parse_args(argv)


def _git_commit(root: str) -> str | None:
    """HEAD's commit read from the files of ``.git``, when there is one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> dict:
    """Thread settings as found: the environment, and OpenBLAS's own
    answer when its library is loaded in this process."""
    found = {
        k: os.environ.get(k)
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    try:
        import ctypes

        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for sym in (
                "scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    found["openblas_get_num_threads"] = fn()
                    return found
    except OSError:
        pass
    return found


def provenance(root: str, src: str, args: argparse.Namespace) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "symile", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    cpu_model = None
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "cpu_model": cpu_model,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


class ColdSetups:
    """Cold set-ups, each in a fresh process started with ``--setup-only``:
    one after each timed pass while more are wanted, so that they sample the
    same spell of the host as the passes and find its vCPUs awake, and the
    rest at the end.  ``spent`` is their time, which the pass budget leaves
    out.  A child that fails or times out counts as a failed check."""

    def __init__(self, wl, args) -> None:
        self.wl = wl
        self.cmd = [sys.executable, os.path.abspath(__file__), "--workload", wl.name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
        self.runs = 0
        self.times: list[float] = []
        self.spent = 0.0

    def _wanted(self) -> bool:
        least, most = SETUP_CHILDREN
        return self.runs < least or (self.runs < most and self.spent < SETUP_BUDGET_S)

    def step(self) -> None:
        if not self._wanted():
            return
        self.runs += 1
        self.wl.ops += 1
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120)
            self.times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
            self.wl.check("setup.cold_child", proc.returncode == 0, f"exit {proc.returncode}")
        except (subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as e:
            self.wl.check("setup.cold_child", False, f"{type(e).__name__}: {e}")
        self.spent += time.perf_counter() - t0

    def finish(self) -> list[float]:
        while self._wanted():
            self.step()
        return self.times


def run_passes(wl, tracer, budget_s: float, jobs: int, cold: ColdSetups) -> list[float]:
    """Closed loop: start a pass only after the previous one ends, and
    stop once another pass would overrun the budget."""
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < MIN_PASSES or (
        time.perf_counter() - start - cold.spent + statistics.median(times) <= budget_s
    ):
        times.append(one_pass(wl, tracer, jobs))
        cold.step()
    return times


def one_pass(wl, tracer, jobs: int) -> float:
    with tracer.span("pass"):
        return wl.run_pass(tracer, jobs)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    bench_json = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(src, "symile", "__init__.py")):
        print(f"perfbench: {src}/symile not found; run from the root of a checkout", file=sys.stderr)
        return 2
    with open(bench_json) as f:
        spec = json.load(f)

    sys.path.insert(0, src)
    t_import = time.perf_counter()
    import spans
    import symile
    import workloads

    import_s = time.perf_counter() - t_import
    if os.path.dirname(os.path.abspath(symile.__file__)) != os.path.join(src, "symile"):
        print(f"perfbench: imported symile from {symile.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    out_root = os.path.join(root, ".bench_out")
    out_dir = os.path.join(out_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
        if args.setup_only:
            t0 = time.perf_counter()
            wl.setup(spans.Tracer(enabled=False))
            print(json.dumps({"setup_s": import_s + time.perf_counter() - t0}))
            return 0
        result, info = measure(wl, args, import_s, spec, out_root)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    info["provenance"] = provenance(root, src, args)
    for name, entry in info["report"].items():
        if entry["value"] is not None:
            print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def measure(wl, args, import_s: float, spec: dict, out_root: str) -> tuple[dict, dict]:
    import lossref
    import spans

    tracer = spans.Tracer(enabled=bool(args.trace))
    untraced = spans.Tracer(enabled=False)
    if args.trace:
        spans.install(tracer)
    t0 = time.perf_counter()
    with tracer.span("setup"):
        wl.setup(tracer)
    own_setup_s = import_s + time.perf_counter() - t0
    tracer.unwrap_all()
    for check in lossref.check_losses():
        wl.check(*check)

    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(wl.name)
    info: dict = {"workload": wl.name, "why": why, "import_s": import_s, "own_setup_s": own_setup_s}
    computed: dict = {}
    cold = ColdSetups(wl, args)
    try:
        if not args.trace:
            pass_s = run_passes(wl, untraced, args.seconds, wl.jobs, cold)
            info["pass_s_samples"] = pass_s
            computed["pass_s"] = statistics.median(pass_s)
        else:
            computed.update(trace_passes(wl, tracer, untraced, args.seconds, info, cold))
            idx = spans.SpanIndex(tracer.spans)
            computed.update(spans.layer_metrics(idx))
            if "parallel_wall_s" in info:
                computed["sweep.parallel_eff"] = computed["sweep.cell_busy_s"] / (
                    wl.jobs * info["parallel_wall_s"]
                )
            trace_checks(wl, idx, info, computed["trace.overhead_frac"])
            tracer.dump(
                os.path.join(out_root, f"trace-{wl.name}.jsonl"),
                {"workload": wl.name, "seed": args.seed, "traced_passes": len(info["traced_pass_s"])},
            )
    except Exception:  # noqa: BLE001 - a failed op is counted and reported
        traceback.print_exc()
        wl.failed_ops += 1
    setup_runs = cold.finish()
    info["setup_cold_s"] = setup_runs
    wl.final_checks()

    failed_checks = [n for n, ok, _ in wl.checks if not ok]
    attempted = wl.ops + len(wl.checks)
    failed = wl.failed_ops + len(failed_checks)
    computed["setup_s"] = statistics.mean(setup_runs) if setup_runs else None
    computed["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    samples = wl.report()
    samples.update(
        setup_s=setup_runs,
        peak_rss_mb=[computed["peak_rss_mb"]],
        error_rate=[failed / max(1, attempted)],
    )
    report = {}
    for name, (unit, applies) in REPORTED_METRICS.items():
        xs = samples.get(name, [])
        report[name] = {"unit": unit, "value": statistics.median(xs) if xs else None}
        if len(xs) > 1:
            report[name].update(spans.tail_summary(xs))
        if applies is not None:
            report[name]["workloads"] = list(applies)
    report["setup_s"]["value"] = computed["setup_s"]  # the mean; see the module docstring
    info["report"] = report
    info["checks"] = summarize_checks(wl.checks)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
        for m in wanted
        if computed.get(m["name"]) is not None
    }
    correct = failed == 0 and len(metrics) == len(wanted)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, info


def summarize_checks(checks: list[tuple[str, bool, str]]) -> dict:
    """One entry per check name: whether every run of it passed, how many
    runs there were, and the detail of the first failure (else the last run)."""
    out: dict = {}
    for name, ok, detail in checks:
        entry = out.setdefault(name, {"ok": True, "runs": 0, "detail": detail})
        entry["runs"] += 1
        if entry["ok"]:
            entry["ok"], entry["detail"] = ok, detail
    return out


def trace_passes(wl, tracer, untraced, budget_s: float, info: dict, cold: ColdSetups) -> dict[str, float]:
    """Alternate untraced and traced passes (in-process, jobs=1); the gap
    between their medians is the tracing overhead.  A workload whose
    default runs cells in parallel first gets one untraced pass at its own
    jobs, for the parallel efficiency.  Returns the per-layer metrics that
    need the untraced passes."""
    import spans

    start = time.perf_counter()
    if wl.jobs > 1:
        info["parallel_wall_s"] = wl.run_pass(untraced, wl.jobs)
    plain: list[float] = []
    traced: list[float] = []
    while len(traced) < MIN_TRACE_PAIRS or (
        time.perf_counter() - start - cold.spent + statistics.median(plain) + statistics.median(traced)
        <= budget_s
    ):
        plain.append(one_pass(wl, untraced, 1))
        spans.install(tracer)
        try:
            traced.append(one_pass(wl, tracer, 1))
        finally:
            tracer.unwrap_all()
        cold.step()
    info["untraced_pass_s"] = plain
    info["traced_pass_s"] = traced
    resume = wl.samples.get("resume_s")
    return {
        "trace.overhead_frac": statistics.median(traced) / statistics.median(plain) - 1.0,
        "sweep.parallel_eff": 0.0,
        "sweep.resume_s": statistics.median(resume) if resume else 0.0,
    }


def trace_checks(wl, idx, info: dict, overhead: float) -> None:
    """Exact counts repeat from pass to pass (and match the workload's own
    arithmetic where it has one), no span has negative self time, which a
    child outliving its parent or a misparented span would cause, and the
    self times under ``train`` add up to the untraced train wall time
    within the tracing overhead."""
    import spans

    counts = [spans.exact_counts(idx, r) for r in idx.roots("pass")]
    wl.check(
        "trace.counts_repeat",
        all(c == counts[0] for c in counts),
        f"exact counts per traced pass: {counts}",
    )
    expected = wl.expected_counts()
    if expected:
        got = {k: counts[0][k] for k in expected}
        wl.check("trace.counts_expected", got == expected, f"counts {got} vs arithmetic {expected}")
    info["exact_counts"] = counts[0]
    worst = min((idx.self_time(i) for i in range(len(idx.spans))), default=0.0)
    wl.check("trace.self_times_nonnegative", worst >= 0.0, f"smallest self time {worst:.3g} s")
    breakdown, wall = spans.train_breakdown(idx)
    if breakdown:
        info["train_breakdown_s"] = {"self_by_span": breakdown, "traced_train_wall": wall}
    if breakdown and "train_s" in wl.samples:  # the train workloads' own train passes
        untraced = statistics.median(wl.samples["train_s"])
        total = sum(breakdown.values())
        info["train_breakdown_s"].update(sum_of_self=total, untraced_train_wall=untraced)
        gap = total / untraced - 1.0
        allowed = abs(overhead) + TRAIN_SUM_NOISE
        wl.check(
            "trace.train_self_sum",
            abs(gap) <= allowed,
            f"self times under train sum to {total:.4g} s, untraced train {untraced:.4g} s: "
            f"gap {gap:+.3f} within |overhead| {abs(overhead):.3f} + {TRAIN_SUM_NOISE}",
        )


if __name__ == "__main__":
    sys.exit(main())
