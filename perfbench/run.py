"""Run one dramn benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all                  # every workload

With ``--trace 0`` the run sets up several times, then repeats timed passes
for ``--seconds``, timing a fixed reference kernel (reference.py) between
passes, and reports the end-to-end metrics. With ``--trace 1`` it
sets up once untraced (which warms the program up) and once under the
tracer, runs untraced passes for half the time and traced passes for the
other half, and reports the per-layer metrics derived from the spans. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only if every output
check passed.
"""

import os
import sys

sys.dont_write_bytecode = True  # leave nothing behind in the checkout

# BLAS must be pinned before numpy is first imported: oversubscribed
# threads turn a 1 ms SVD into tens of milliseconds on a small machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("pipeline", "train_fit", "online_forecast")

# Gated end-to-end metrics: every workload reports each of them.
END_TO_END = (("setup_s", "s"), ("pass_rel", "ref"), ("peak_rss_mb", "MB"))
# Printed after the gated ones on the workloads that have them. Not gated:
# pass_s (pipeline_s on pipeline) and reference_ms follow the host's load,
# the AUROCs depend on which few scenarios the seed puts into the test
# split, and a pass's fixed work makes pass_rel carry the rates.
WORKLOAD_METRICS = (
    ("pipeline_s", "s"), ("pass_s", "s"), ("reference_ms", "ms"),
    ("test_auroc", "1"), ("generalization_auroc", "1"),
    ("train_samples_per_s", "sample-epochs/s"), ("forecasts_per_s", "1/s"),
    ("forecast_p50_ms", "ms"), ("forecast_p99_ms", "ms"),
    ("forecasts", "count"), ("predict_proba_max_diff", "1"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="with --trace 1, also copy the span file here")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def environment(workdir):
    """What the numbers depend on besides the code."""
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "blas_threads": _openblas_threads(np),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "temp_fs": _filesystem(workdir),
    }


def _openblas_threads(np):
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)()
    return None


def _filesystem(path):
    """Filesystem type of the mount holding ``path``."""
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                _, mount, fstype = line.split()[:3]
                if path.startswith(mount) and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def measure(workload, state, workdir, seconds, tracer=None):
    """Timed passes until the next one would end past ``seconds`` (at least
    one). The reference kernel is timed before and after every pass; each
    pass records the mean of the two as ``reference_s``."""
    from reference import Reference

    kernel = Reference()
    passes = []
    start = time.perf_counter()
    before = kernel.seconds()
    while True:
        if tracer is None:
            res = workload.run_pass(state, workdir)
        else:
            with tracer, tracer.root("bench.pass"):
                res = workload.run_pass(state, workdir)
        after = kernel.seconds()
        res["reference_s"] = (before + after) / 2
        passes.append(res)
        before = after
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def run_untraced(workload, seed, seconds, workdir):
    setup_s = []
    for _ in range(workload.setup_repeats):
        state = None  # free the previous set-up before building the next
        start = time.perf_counter()
        state = workload.setup(seed, workdir)
        setup_s.append(time.perf_counter() - start)
    passes = measure(workload, state, workdir, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors = workload.check(state, passes)
    metrics = workload.summary(passes)
    metrics["setup_s"] = statistics.median(setup_s)
    metrics["pass_rel"] = statistics.median(p["seconds"] / p["reference_s"] for p in passes)
    metrics["reference_ms"] = 1e3 * statistics.median(p["reference_s"] for p in passes)
    metrics["peak_rss_mb"] = peak_rss_mb
    return passes, errors, metrics


def run_traced(workload, seed, seconds, workdir, spans_copy):
    from spans import Tracer, layer_metrics, read_spans

    tracer = Tracer()
    state = workload.setup(seed, workdir)
    if workload.trace_setup:
        state = None
        with tracer, tracer.root("bench.setup"):
            state = workload.setup(seed, workdir)
    untraced = measure(workload, state, workdir, seconds / 2)
    traced = measure(workload, state, workdir, seconds / 2, tracer)
    passes = untraced + traced
    errors = workload.check(state, passes)
    path = os.path.join(workdir, "spans.jsonl")
    tracer.write(path)
    if spans_copy:
        shutil.copyfile(path, spans_copy)
    overhead = (statistics.median(p["seconds"] for p in traced)
                - statistics.median(p["seconds"] for p in untraced))
    metrics = layer_metrics(*read_spans(path), overhead)
    errors += [f"traced run recorded no {name}" for name in workload.expected
               if not metrics[name]]
    return passes, errors, metrics


def run_one(args):
    if not os.path.isfile(os.path.join(SRC, "dramn", "cli.py")):
        print(f"error: no dramn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import dramn

    if not os.path.abspath(dramn.__file__).startswith(SRC + os.sep):
        print(f"error: dramn imported from {dramn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    from spans import PER_LAYER

    workload = WORKLOADS[args.workload]
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    passes, errors, metrics, env = [], [], {}, None
    try:
        env = environment(workdir)
        if args.trace:
            passes, errors, metrics = run_traced(workload, args.seed, args.seconds,
                                                 workdir, args.spans)
        else:
            passes, errors, metrics = run_untraced(workload, args.seed,
                                                   args.seconds, workdir)
    except Exception:  # noqa: BLE001 - the run fails and says why
        errors.append(traceback.format_exc())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass

    # a failed command is also reported as an error; count it once
    attempted = max(1, sum(p["attempted"] for p in passes))
    failed = min(attempted, len(errors) + sum(max(p["failed"], len(p["errors"]))
                                              for p in passes))
    errors += [err for p in passes for err in p["errors"]]
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    gated = PER_LAYER if args.trace else END_TO_END
    shown = PER_LAYER if args.trace else END_TO_END + WORKLOAD_METRICS
    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={len(passes)}")
    for name, unit in shown:
        if metrics.get(name) is not None:
            print(f"{args.workload}\t{name}\t{metrics[name]:.6g}\t{unit}")
    print(f"{args.workload}\terror_rate\t{failed / attempted:.6g}\tfailed/attempted")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in gated if metrics.get(name) is not None},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


def run_all(args):
    """Every workload in its own process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines() or [""]
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[name] = (proc.returncode, json.loads(lines[-1]))
        except ValueError:
            results[name] = (proc.returncode, None)
    ok = all(code == 0 and res and res["correct"] for code, res in results.values())
    combined = {
        "correct": ok,
        "attempted": sum(res["attempted"] for _, res in results.values() if res),
        "failed": sum(res["failed"] for _, res in results.values() if res),
        "metrics": {f"{name}/{metric}": value
                    for name, (_, res) in results.items() if res
                    for metric, value in res["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
