"""One operation of a benchmark workload, alone in a fresh Python process.

    python3 perfbench/worker.py --workload NAME --src SRC --op-dir DIR [--config FILE]
                                [--trace 0|1] [--setup-only]

Times the set-up (``import cogaction`` plus building the command's inputs),
then runs the workload's ``cogaction`` command through ``cli.main`` and checks
its outputs.  With ``--trace 1`` every layer boundary records spans; they are
written to ``DIR/spans.json``, next to (never inside) the command's output
tree ``DIR/out``.  The last line of standard output is one JSON object.
"""

import argparse
import contextlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

from workloads import CHECK_GRAD_INSTANCES, WORKLOADS, check_grad_output, check_train

# A count repeats exactly between runs of the same inputs; a time does not.
COUNT_KEYS = ("calls", "steps", "sweeps", "gflop", "gbyte", "bytes")


def _import_cogaction(src: Path):
    sys.path.insert(0, str(src))
    import cogaction
    import cogaction.cli

    if Path(cogaction.__file__).resolve().parent != (src / "cogaction").resolve():
        raise ImportError(f"cogaction imported from {cogaction.__file__}, not {src}")
    return cogaction


def _peak_rss_mib() -> float:
    """Peak resident memory of this process image.  ``ru_maxrss`` would also
    count the parent's memory at fork, which survives exec on Linux."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def layer_metrics(tracer, span_cost: float) -> dict:
    """Flat per-layer metrics of one traced operation under a ``cli.main`` root span."""
    metrics = {}
    for name, entry in tracer.summary().items():
        metrics[f"{name}.s"] = entry["self_s"]
        metrics[f"{name}.calls"] = entry["calls"]
        metrics[f"{name}.total_s"] = sum(entry["durations"])
        for key, value in entry["counts"].items():
            metrics[f"{name}.{key}"] = value
        if name == "action.step":
            cuts = statistics.quantiles(entry["durations"], n=20, method="inclusive")
            metrics["action.step.self_s"] = entry["self_s"]
            metrics["action.step.ms_p50"] = 1e3 * statistics.median(entry["durations"])
            metrics["action.step.ms_p95"] = 1e3 * cuts[18]
    metrics["trace.unattributed_s"] = metrics["cli.main.s"]
    metrics["trace.overhead_s"] = span_cost * len(tracer.spans)
    metrics["trace.spans"] = len(tracer.spans)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--src", required=True, type=Path)
    parser.add_argument("--op-dir", required=True, type=Path)
    parser.add_argument("--config", type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    out_dir = args.op_dir / "out"

    start = time.perf_counter()
    cog = _import_cogaction(args.src)
    if workload.trains:
        experiment = cog.parse_config(args.config)
        clip, truth = experiment.build_clip()
        experiment.build_flow(clip, truth)
        evals = sum(plan.config.steps for plan in experiment.layers)
        command = ["train", "--config", str(args.config), "--out", str(out_dir)]
        del clip, truth
    else:
        instances = cog.optimizer.gradient_check_instances(CHECK_GRAD_INSTANCES)
        evals = sum(2 * instance["bank"].taps.size for instance in instances)
        command = ["check-grad", "--instances", str(CHECK_GRAD_INSTANCES)]
        del instances
    result = {"setup_s": time.perf_counter() - start, "evals": evals}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    run = cog.cli.main
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.instrument(tracer, cog)
        run = tracer.wrap("cli.main", run)
    printed = io.StringIO()
    problems = []
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(printed):
            code = run(command)
    except Exception as exc:  # a crash of the command is a failed operation
        problems.append(f"{type(exc).__name__}: {exc}")
    result["wall_s"] = time.perf_counter() - start
    result["peak_rss_mib"] = _peak_rss_mib()
    if args.trace:
        tracer.restore()
    if code not in (0, None):
        problems.append(f"command exited {code}")

    if not problems:
        if workload.trains:
            problems.extend(check_train(cog, experiment, out_dir, workload))
        else:
            problems.extend(check_grad_output(printed.getvalue()))
    result["problems"] = problems

    if args.trace:
        layers = layer_metrics(tracer, tracing.span_cost())
        layers["cli.write.bytes"] = _tree_bytes(out_dir) if out_dir.exists() else 0
        result["layers"] = layers
        with open(args.op_dir / "spans.json", "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "counts"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
