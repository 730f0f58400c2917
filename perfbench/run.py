"""Benchmark of the ``cogaction`` commands, timed and traced from outside the package.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  For each workload the benchmark writes the
experiment file for the seed, then runs operations (one ``cogaction`` command
each, in a fresh single-threaded process, one at a time) until ``--seconds``
have passed.  ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` runs the same operations traced and reports its per-layer
metrics; without ``--trace`` both passes run, untraced first.  End-to-end
times are scaled by a reference kernel timed just before each operation, to
cancel the host's drift in speed.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.

Scratch files go to ``.perfbench_work/`` in the checkout.  See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS
from worker import COUNT_KEYS

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKER = Path(__file__).resolve().parent / "worker.py"

# Each operation runs single-threaded; the pin is recorded with the results.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_SETUPS = 7
# End-to-end times are scaled to a machine on which reference_s() takes this
# long: the host's speed drifts by a third over minutes, and the reference,
# timed just before each operation, drifts with it.
REFERENCE_S = 0.1
# A run must end within 180 s; no operation may start a timeout past this.
DEADLINE_S = 170.0


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cogaction").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def stamp(workload, seed: int) -> dict:
    """What the numbers were measured on."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "numpy": numpy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads_pinned": THREADS,
        "workload": workload.name,
        "seed": seed,
        "seed_varies_inputs": workload.seed_varies_inputs,
    }


def reference_s(shape, rounds: int) -> float:
    """Seconds of a fixed numpy kernel shaped like the objective's inner loop:
    rounds of roll, einsum and softmax on a grid of the given shape.

    It runs in this process, not in the operation's, and uses no ``cogaction``
    code, so only the machine changes its speed.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    grid, taps = rng.random(shape), rng.random((shape[3], shape[3]))
    start = time.perf_counter()
    for _ in range(rounds):
        act = np.einsum("thwj,ij->thwi", np.roll(grid, (1, -1), axis=(1, 2)), taps)
        expd = np.exp(act - act.max(axis=-1, keepdims=True))
        expd /= expd.sum(axis=-1, keepdims=True)
    return time.perf_counter() - start


def _worker(workload, run_dir: Path, op_dir: Path, trace: int, deadline: float,
            setup_only: bool = False) -> dict:
    env = dict(os.environ, **{var: str(THREADS) for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    command = [sys.executable, str(WORKER), "--workload", workload.name, "--src", str(SRC),
               "--op-dir", str(op_dir), "--trace", str(trace)]
    if workload.trains:
        command += ["--config", str(run_dir / "experiment.ini")]
    if setup_only:
        command.append("--setup-only")
    else:
        op_dir.mkdir(parents=True)
    reference = reference_s(*workload.reference)
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(5.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        return {"problems": ["operation timed out"]}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = " | ".join(done.stderr.strip().splitlines()[-3:])
        return {"problems": [f"worker exited {done.returncode}: {tail}"]}
    return dict(json.loads(lines[-1]), reference_s=reference)


def _layer_values(ops, names, problems) -> dict:
    """Per-layer metrics over the operations of a run: a count must repeat
    exactly in every operation; a time is the median over operations."""
    values = {}
    for name in names:
        if name.endswith(".gflops"):
            continue
        seen = [op["layers"].get(name, 0) for op in ops]
        if name.rsplit(".", 1)[-1] in COUNT_KEYS:
            if len(set(seen)) != 1:
                problems.append(f"{name} differs between operations: {seen}")
            values[name] = seen[0]
        else:
            values[name] = statistics.median(seen)
    for name in names:
        if name.endswith(".gflops"):
            base = name[:-len(".gflops")]
            seconds = values.get(base + ".s", 0.0)
            values[name] = values.get(base + ".gflop", 0.0) / seconds if seconds > 0 else 0.0
    return values


def _scaled(ops, key: str) -> float:
    """Median over operations of a time scaled to the reference machine speed."""
    return statistics.median(op[key] * REFERENCE_S / op["reference_s"] for op in ops)


def run_pass(workload, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    """One run: operations for ``seconds``, then the metrics of the pass."""
    started = time.perf_counter()
    deadline = started + DEADLINE_S
    run_dir = WORK / f"{workload.name}-seed{seed}-trace{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    if workload.trains:
        (run_dir / "experiment.ini").write_text(workload.experiment_text(seed), encoding="ascii")

    reference_s(*workload.reference)  # warm-up: the first call pays for page faults
    # operations start while the median one still fits in ``seconds``
    ops, durations = [], []
    while not ops or time.perf_counter() - started + statistics.median(durations) <= seconds:
        op_dir = run_dir / f"op{len(ops)}"
        begun = time.perf_counter()
        ops.append(_worker(workload, run_dir, op_dir, trace, deadline))
        durations.append(time.perf_counter() - begun)
        # keep the first operation's spans; the rest report through the result line
        shutil.rmtree(op_dir / "out" if len(ops) == 1 else op_dir, ignore_errors=True)
    setups = [op for op in ops if "setup_s" in op]
    while not trace and len(setups) < MIN_SETUPS and time.perf_counter() < deadline - 10.0:
        probe = _worker(workload, run_dir, run_dir / f"setup{len(setups)}", 0, deadline,
                        setup_only=True)
        if "setup_s" not in probe:
            ops.append(probe)
            break
        setups.append(probe)

    problems = [f"op{k}: {p}" for k, op in enumerate(ops) for p in op.get("problems", [])]
    failed = sum(1 for op in ops if op.get("problems"))
    timed = [op for op in ops if "wall_s" in op]
    if not timed:
        problems.append("no operation produced a measurement")
        metrics = {}
    elif trace:
        if any("layers" not in op for op in timed):
            problems.append("an operation returned no trace")
            timed = [op for op in timed if "layers" in op]
        names = [m["name"] for m in spec["per_layer"]]
        metrics = _layer_values(timed, names, problems) if timed else {}
        # the traced evaluation count must match the one worked out from the inputs
        evaluation = "action.step.calls" if workload.trains else "action.forward_eval.calls"
        if timed and timed[0]["layers"].get(evaluation) != timed[0]["evals"]:
            problems.append(f"traced {evaluation} differs from {timed[0]['evals']} evaluations")
    else:
        wall = _scaled(timed, "wall_s")
        metrics = {
            "wall_s": wall,
            "setup_s": _scaled(setups, "setup_s"),
            "evals_per_s": timed[0]["evals"] / wall,
            "peak_rss_mib": statistics.median(op["peak_rss_mib"] for op in timed),
        }
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    report = {
        "correct": not problems and set(metrics) == set(units),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    info = stamp(workload, seed)
    info.update(trace=trace, run_seconds=seconds, operations=len(ops), setup_samples=len(setups),
                failed_frac=failed / len(ops), problems=problems)
    if trace:
        info["gflop_gbyte"] = "computed from array shapes, not measured"
    if timed:
        info["unscaled"] = {
            "wall_s": statistics.median(op["wall_s"] for op in timed),
            "setup_s": statistics.median(op["setup_s"] for op in setups),
            "reference_s": statistics.median(op["reference_s"] for op in timed),
        }
    (run_dir / "result.json").write_text(json.dumps({"stamp": info, "result": report,
                                                     "operations": ops}, indent=1))
    _print_pass(info, report)
    return report


def _print_pass(info: dict, report: dict) -> None:
    print(f"# {info['workload']} trace={info['trace']} seed={info['seed']}: "
          f"{report['attempted']} operations, {report['failed']} failed")
    print("# stamp " + json.dumps({k: v for k, v in info.items() if k != "problems"}))
    for problem in info["problems"]:
        print(f"# problem: {problem}")
    for name, metric in report["metrics"].items():
        print(f"{info['workload']:>10} {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    if not info["trace"]:
        print(f"{info['workload']:>10} {'failed_frac':<36} {info['failed_frac']:>14.6g} "
              f"1 ({report['failed']}/{report['attempted']})")
    for name, value in info.get("unscaled", {}).items():
        print(f"{info['workload']:>10} {name + ' (unscaled)':<36} {value:>14.6g} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    args = parser.parse_args(argv)
    if not (SRC / "cogaction" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} is not a cogaction checkout (needs src/cogaction and "
              f"BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    passes = [(name, t) for name in names for t in ((0, 1) if args.trace is None else (args.trace,))]
    reports = {f"{name}.trace{t}": run_pass(WORKLOADS[name], args.seed, seconds, t, spec)
               for name, t in passes}
    if len(reports) == 1:
        final = next(iter(reports.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "metrics": {f"{key.split('.')[0]}.{name}": metric for key, r in reports.items()
                        for name, metric in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
