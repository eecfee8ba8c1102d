"""scgscale benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) through scgscale's public API for
about S seconds, checks every output, and prints as its last line a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones from a traced run.  The line before it holds the
environment record.  See README.md in this directory.

Process layout: this driver process starts ``SETUP_SAMPLES`` fresh
interpreters that only import scgscale and generate the inputs (``setup_s``
is their median), then one measuring interpreter that repeats the workload
until S seconds have passed.  Its peak memory therefore covers exactly the
workload and its sweep workers.

``setup_s``, ``wall_s`` (and so ``steps_per_s``) and ``trace.overhead_s``
are given at a nominal host speed: each time is scaled by the time of a
fixed reference kernel run just before and after it (see ``hostspeed.py``).
The raw times are kept in ``out/result-<workload>-trace<0|1>.json``.  The
other per-layer times are raw span times.
"""

import os
import sys

# Pin BLAS to one thread before anything imports numpy: in this process, in
# the set-up and measuring children, and in the sweep workers they start.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

from time import perf_counter  # noqa: E402

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, SRC)

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
WORKLOAD_NAMES = ("sign_sweep", "spectral_train", "rates_fit", "parallel_sweep")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "steps/s",
    "peak_rss_mb": "MB",
    "final_loss_gmean": "loss",
}

PER_LAYER_UNITS = {
    "optimizer.steps": "count",
    "optimizer.run_calls": "count",
    "optimizer.self_s": "s",
    "optimizer.self_us_per_step": "us",
    "optimizer.recorded_rows": "count",
    "optimizer.checked_steps": "count",
    "optimizer.invariant_violations": "count",
    "problems.grad_calls": "count",
    "problems.grad_s": "s",
    "problems.grad_us_per_call": "us",
    "problems.loss_calls": "count",
    "problems.loss_s": "s",
    "geometry.lmo_calls": "count",
    "geometry.lmo_s": "s",
    "geometry.norm_calls": "count",
    "geometry.norm_s": "s",
    "geometry.svd_calls": "count",
    "geometry.svd_s": "s",
    "geometry.svd_per_step": "ratio",
    "experiments.sweep_s": "s",
    "experiments.points": "count",
    "experiments.point_errors": "count",
    "experiments.points_per_s": "1/s",
    "experiments.worker_processes": "count/call",
    "scaling.calls": "count",
    "scaling.us_per_call": "us",
    "estimation.fit_calls": "count",
    "estimation.fit_s": "s",
    "estimation.residual_evals": "count",
    "estimation.estimator_s": "s",
    "cli.main_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "error_rate": "ratio",
    "trace.overhead_s": "s",
    "trace.unreached": "count",
    "trace.spans": "count",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer numbers of one traced batch (the error rate and the tracing
    overhead are filled in over the whole run)."""
    from tracing import TARGETS

    c = tracer.counters
    steps = c["steps"]
    scaling = [n for n, _, _ in TARGETS if n.startswith("scaling.")]
    estimators = ["estimation.estimate_L", "estimation.estimate_mu",
                  "estimation.estimate_rho", "estimation.estimate_variance"]
    norms = ["geometry.block_primal_norm", "geometry.block_dual_norm"]
    writers = ["optimizer.RunLog.to_csv", "experiments.sweep_rows_to_csv"]
    opt_self = tracer.self_s("optimizer.run", "optimizer.run_staged")
    grad_calls = tracer.calls("problems.grad_fn")
    grad_s = tracer.total_s("problems.grad_fn")
    svd_calls = tracer.calls("numpy.linalg.svd")
    scaling_calls = sum(tracer.calls(n) for n in scaling)
    sweep_s = tracer.total_s("experiments.run_sweep")
    return {
        "optimizer.steps": steps,
        "optimizer.run_calls": c["run_calls"],
        "optimizer.self_s": opt_self,
        "optimizer.self_us_per_step": 1e6 * _ratio(opt_self, steps),
        "optimizer.recorded_rows": c["recorded_rows"],
        "optimizer.checked_steps": c["checked_steps"],
        "optimizer.invariant_violations": c["invariant_violations"],
        "problems.grad_calls": grad_calls,
        "problems.grad_s": grad_s,
        "problems.grad_us_per_call": 1e6 * _ratio(grad_s, grad_calls),
        "problems.loss_calls": tracer.calls("problems.loss_fn"),
        "problems.loss_s": tracer.total_s("problems.loss_fn"),
        "geometry.lmo_calls": tracer.calls("geometry.lmo_block"),
        "geometry.lmo_s": tracer.total_s("geometry.lmo_block"),
        "geometry.norm_calls": sum(tracer.calls(n) for n in norms),
        "geometry.norm_s": tracer.total_s(*norms),
        "geometry.svd_calls": svd_calls,
        "geometry.svd_s": tracer.total_s("numpy.linalg.svd"),
        "geometry.svd_per_step": _ratio(svd_calls, steps),
        "experiments.sweep_s": sweep_s,
        "experiments.points": c["points"],
        "experiments.point_errors": c["point_errors"],
        "experiments.points_per_s": _ratio(c["points"], sweep_s),
        # Worker processes started per run_sweep call (each call has its own pool).
        "experiments.worker_processes": _ratio(len(tracer.worker_pids),
                                               tracer.calls("experiments.run_sweep")),
        "scaling.calls": scaling_calls,
        "scaling.us_per_call": 1e6 * _ratio(tracer.total_s(*scaling), scaling_calls),
        "estimation.fit_calls": tracer.calls("estimation.fit_power_law"),
        "estimation.fit_s": tracer.total_s("estimation.fit_power_law"),
        "estimation.residual_evals": c["residual_evals"],
        "estimation.estimator_s": tracer.total_s(*estimators),
        "cli.main_s": tracer.total_s("cli.main"),
        "cli.write_s": tracer.total_s(*writers),
        "cli.bytes_written": c["bytes_written"],
        "trace.spans": sum(t[0] for t in tracer.totals),
    }


def _cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _steal_jiffies():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields[:8])


def _setup(workload_name, seed, tiny, workdir):
    import workloads

    workload = workloads.WORKLOADS[workload_name](tiny)
    inputs = workload.generate(seed, workdir)
    return workload, inputs


def role_setup(args):
    workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT)
    try:
        _setup(args.workload, args.seed, args.tiny, workdir)
        setup_s = perf_counter() - T_START
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": setup_s}))


def role_measure(args):
    import resource

    workdir = tempfile.mkdtemp(prefix="measure-", dir=OUT)
    try:
        workload, inputs = _setup(args.workload, args.seed, args.tiny, workdir)
        setup_s = perf_counter() - T_START
        result = _measure(args, workload, inputs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rss_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result.update(setup_s=setup_s, peak_rss_mb=rss_kib / 1024.0, env=_library_versions())
    print(json.dumps(result))


def _library_versions():
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": openblas}


def _measure(args, workload, inputs, workdir):
    """Repeat the workload until the time is up; batch 0 is a warm-up.

    In a traced run, untraced and traced batches alternate after the
    warm-up, so both see the same machine state.
    """
    import hostspeed

    hostspeed.reference_s()  # warm the kernel before the first segment
    tracer = None
    if args.trace:
        import tracing

        spill = os.path.join(workdir, "spill")
        os.makedirs(spill)
        tracer = tracing.Tracer(spill)

    deadline = perf_counter() + args.seconds
    walls, traced_walls, raw_walls, references, layers = [], [], [], [], []
    attempted = failed = 0
    messages, reference, steps = [], None, None
    cpu = elapsed = 0.0
    steal0 = _steal_jiffies()
    batch = 0
    while True:
        traced = tracer is not None and batch > 0 and batch % 2 == 0
        outdir = os.path.join(workdir, f"batch-{batch}")
        os.makedirs(outdir)
        if traced:
            tracer.start()
            os.environ[tracing.SPILL_ENV] = tracer.spill_dir
            tracer.install()
        cpu0 = _cpu_seconds()
        t0 = perf_counter()
        clock = hostspeed.SegmentClock()
        results = [clock.run(op) for op in workload.ops(inputs, outdir)]
        clock.close()
        wall = clock.normalised_s
        elapsed += perf_counter() - t0
        cpu += _cpu_seconds() - cpu0
        if traced:
            tracer.uninstall()
            del os.environ[tracing.SPILL_ENV]
            tracer.collect_children()
            layers.append(layer_metrics(tracer))
            coverage = {name: tracer.calls(name) for name in tracer.names}

        outcome = workload.check(inputs, results, outdir, first=batch == 0)
        shutil.rmtree(outdir)
        attempted += outcome.attempted
        failed += outcome.failed
        messages.extend(outcome.messages)
        if reference is None:
            reference, steps = outcome.losses, outcome.steps
        elif outcome.losses != reference or outcome.steps != steps:
            # Same seed, same inputs: every operation of this batch failed.
            failed += outcome.attempted - outcome.failed
            messages.append(f"batch {batch}: outputs differ from batch 0 at the same seed")
        if batch > 0:
            (traced_walls if traced else walls).append(wall)
            if not traced:
                raw_walls.append(clock.raw_s)
                references.extend(clock.references)
        batch += 1
        if perf_counter() >= deadline and walls and (tracer is None or traced_walls):
            break

    steal1 = _steal_jiffies()
    losses = [v for v in reference if v > 0 and math.isfinite(v)]
    result = {
        "attempted": attempted,
        "failed": failed,
        "messages": messages[:20],
        "steps": steps,
        "walls": walls,
        "raw_walls": raw_walls,
        "references": references,
        "final_loss_gmean": math.exp(statistics.fmean(math.log(v) for v in losses)) if losses else None,
        "cpu_share": cpu / elapsed / getattr(workload, "jobs", 1),
        "steal_share": (_ratio(steal1[0] - steal0[0], steal1[1] - steal0[1])
                        if steal0 and steal1 else None),
    }
    if tracer is not None:
        # Counts repeat exactly from batch to batch; times take the median.
        per_layer = {k: (statistics.median_low if isinstance(layers[0][k], int)
                         else statistics.median)([d[k] for d in layers]) for k in layers[0]}
        per_layer["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        unreached = [n for n in workload.required if coverage.get(n, 0) == 0]
        per_layer["trace.unreached"] = len(unreached)
        per_layer["error_rate"] = _ratio(failed, attempted)
        result.update(per_layer=per_layer, coverage=coverage, unreached=unreached,
                      traced_walls=traced_walls)
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, f"spans-{args.workload}.csv"))
    return result


def _run_child(cmd, timeout):
    """Run a child in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{cmd[3]} child timed out after {timeout} s")
    finally:
        try:  # sweep workers left behind by a crashed child
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[3]} child exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def drive(args):
    started = perf_counter()
    load_start = os.getloadavg()[0]
    base = [sys.executable, os.path.abspath(__file__)]
    common = ["--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    import hostspeed

    # The set-up children run on the core that times the reference kernel,
    # so that the kernel sees the speed they see.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        setup, raw_setup, before = [], [], hostspeed.reference_s()
        for _ in range(1 if args.tiny else SETUP_SAMPLES):
            raw = _run_child(base + ["--role", "setup"] + common, CHILD_TIMEOUT_S)["setup_s"]
            after = hostspeed.reference_s()
            setup.append(hostspeed.normalise(raw, before, after))
            raw_setup.append(raw)
            before = after
    finally:
        os.sched_setaffinity(0, cpus)
    remaining = CHILD_TIMEOUT_S - (perf_counter() - started)
    m = _run_child(base + ["--role", "measure", "--seconds", str(args.seconds),
                           "--trace", str(args.trace)] + common, remaining)
    load_end = os.getloadavg()[0]

    nproc = len(os.sched_getaffinity(0))
    env = dict(m["env"])
    env.update(
        blas_threads={v: os.environ[v] for v in BLAS_VARS},
        nproc=nproc,
        loadavg_1m_start=load_start,
        loadavg_1m_end=load_end,
        cpu_share=m["cpu_share"],
        steal_share=m["steal_share"],
    )
    # Another process on the box (load above the core count) or the
    # hypervisor taking CPU from this one makes timings suspect. On this
    # shared 2-core VM, steal above 1% came with batches 20-50% slower.
    env["contended"] = bool(max(load_start, load_end) > nproc
                            or (m["steal_share"] or 0.0) > 0.01)

    if args.trace:
        metrics = m["per_layer"]
        units = PER_LAYER_UNITS
    else:
        wall = statistics.median(m["walls"])
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "steps_per_s": m["steps"] / wall,
            "peak_rss_mb": m["peak_rss_mb"],
            "final_loss_gmean": m["final_loss_gmean"],
        }
        units = END_TO_END_UNITS
    correct = m["failed"] == 0 and all(
        isinstance(v, (int, float)) and math.isfinite(v) for v in metrics.values())
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "ref_s": hostspeed.REF_S,
        "setup_samples": setup, "raw_setup_samples": raw_setup,
        "measuring_process_raw_setup_s": m["setup_s"],
        "batch_walls": m["walls"], "raw_batch_walls": m["raw_walls"],
        "traced_batch_walls": m.get("traced_walls"), "reference_samples": m["references"],
        "failures": m["messages"], "coverage": m.get("coverage"),
        "unreached": m.get("unreached"),
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(dict(record, metrics=metrics), fh, indent=1)
    for msg in m["messages"]:
        print(f"check failed: {msg}")
    if m.get("unreached"):
        print(f"trace incomplete: no calls reached {', '.join(m['unreached'])}")
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": correct,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs (smoke test)")
    p.add_argument("--role", choices=("drive", "setup", "measure"), default="drive",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "scgscale", "__init__.py")):
        print(f"error: scgscale sources not found under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    {"drive": drive, "setup": role_setup, "measure": role_measure}[args.role](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
elif __name__ == "__mp_main__":
    # A sweep worker started with the spawn method imports this script again.
    import tracing

    tracing.install_in_worker()
