"""Command-line driver: synthesize data, train filter banks, evaluate, check gradients.

Subcommands::

    cogaction synth      --config exp.ini [--out DIR]
    cogaction train      --config exp.ini [--out DIR] [--seed N]
    cogaction eval       --config exp.ini --bank layer1_bank.txt [...] [--out DIR]
    cogaction check-grad [--instances N]

Exit codes: 0 success, 1 configuration error, 2 runtime or divergence error.
Outputs are deterministic: identical configs produce bit-identical trees (a
``--threads`` hint is accepted for interface compatibility and ignored; no
output depends on it).  An output directory is guarded by a ``.lock`` file
against concurrent runs; it records the owning run's pid, host and UTC start
time, is removed when the run ends, and is never broken automatically.
"""

import argparse
import contextlib
import os
import platform
import sys
import time
from pathlib import Path

from .action import BREAKDOWN_CSV_HEADER, ActionBreakdown
from .config import ConfigError, ExperimentConfig, parse_config
from .features import convolve_features, load_bank, save_bank, stack_layers, to_probabilities
from .flow import save_flow
from .optimizer import DivergenceError, _windowed, evaluate_bank, run_gradient_check, train_deep
from .video import save_clip, save_feature_maps

SUMMARY_HEADER = "layer,phase," + BREAKDOWN_CSV_HEADER.split(",", 1)[1]


_LOCK_FIELDS = ("pid", "host", "started")


def _lock_owner(lock: Path) -> str:
    """The run a lock names, as written by ``_locked_out_dir``; a lock left
    empty (older versions wrote none) or unreadable names no owner."""
    try:
        lines = lock.read_text(encoding="utf-8", errors="replace").splitlines()
    except OSError:
        lines = []
    fields = dict(line.split("=", 1) for line in lines if "=" in line)
    if not any(key in fields for key in _LOCK_FIELDS):
        return "owner unknown"
    return ", ".join(f"{key} {fields.get(key, '?')}" for key in _LOCK_FIELDS)


@contextlib.contextmanager
def _locked_out_dir(out_dir: Path):
    """Hold ``out_dir/.lock`` for the run, recording its pid, host and UTC
    start time.  A lock that exists is never broken: the run stops with the
    owner in the message, and removing a stale lock is left to the user."""
    try:
        out_dir.mkdir(parents=True)
        created = True
    except FileExistsError:
        created = False
    lock = out_dir / ".lock"
    try:
        handle = open(lock, "x", encoding="utf-8")
    except FileExistsError:
        raise RuntimeError(
            f"output directory {out_dir} is locked by another run ({_lock_owner(lock)}); "
            f"if that run is gone, remove {lock}"
        ) from None
    try:
        with handle:
            started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
            handle.write(f"pid={os.getpid()}\nhost={platform.node()}\nstarted={started}\n")
        yield out_dir
    finally:
        lock.unlink(missing_ok=True)
        if created:
            # a run that failed before writing leaves no directory behind
            with contextlib.suppress(OSError):
                out_dir.rmdir()


def _write_rows(path: Path, header: str, rows: list[str]) -> None:
    path.write_text("\n".join([header] + rows) + "\n", encoding="ascii")


def _summary_row(layer: int, phase: str, breakdown: ActionBreakdown) -> str:
    return f"{layer},{phase}," + breakdown.csv_row(0).split(",", 1)[1]


def _windowed_eval(bank, grid, flow, config):
    """Evaluate a standalone bank under a layer's window/weights/multipliers."""
    return evaluate_bank(bank, *_windowed(grid, flow, config), config.lam,
                         config.effective_dtau())


def cmd_synth(experiment: ExperimentConfig, out_dir: Path) -> int:
    if experiment.data.source != "synth":
        raise ConfigError("synth subcommand needs [data] source = synth")
    clip, truth = experiment.build_clip()
    with _locked_out_dir(out_dir):
        save_clip(clip, out_dir)
        save_flow(truth, out_dir / "flow.bin")
    print(f"wrote {clip.frames} frames and flow.bin to {out_dir}")
    return 0


def cmd_train(experiment: ExperimentConfig, out_dir: Path) -> int:
    clip, truth = experiment.build_clip()
    flow = experiment.build_flow(clip, truth)
    with _locked_out_dir(out_dir):
        traces = train_deep(clip, flow, experiment.layers)
        if experiment.save_features:
            # train_deep kept the field of every layer but the last
            last = traces[-1]
            below = traces[-2].field if len(traces) > 1 else clip.data
            last.field = to_probabilities(convolve_features(last.final_bank, below),
                                          last.final_bank.mode)
        summary_rows = []
        for index, trace in enumerate(traces, start=1):
            bank = trace.final_bank
            rows = [b.csv_row(step) for step, b in enumerate(trace.breakdowns)]
            _write_rows(out_dir / f"layer{index}_trace.csv", BREAKDOWN_CSV_HEADER, rows)
            save_bank(bank, out_dir / f"layer{index}_bank.txt")
            final = trace.final_breakdown
            initial = trace.breakdowns[0] if trace.breakdowns else final
            summary_rows.append(_summary_row(index, "initial", initial))
            summary_rows.append(_summary_row(index, "final", final))
            if experiment.save_features:
                save_feature_maps(trace.field, out_dir / "features" / f"layer{index}")
        _write_rows(out_dir / "summary.csv", SUMMARY_HEADER, summary_rows)
    print(f"trained {len(traces)} layer(s); outputs in {out_dir}")
    return 0


def cmd_eval(experiment: ExperimentConfig, bank_paths: list[str], out_dir: Path) -> int:
    if not bank_paths:
        raise ConfigError("eval needs at least one --bank file")
    banks = [load_bank(p) for p in bank_paths]
    plans = experiment.layers
    for index, (path, bank) in enumerate(zip(bank_paths, banks), start=1):
        if index > len(plans):
            raise ConfigError(f"bank {index} ({path}) has no [layer{index}] section; "
                              f"the config defines {len(plans)} layer(s)")
        if bank.layer != index:
            raise ConfigError(f"bank {index} ({path}) is a layer {bank.layer} bank, "
                              f"given at layer position {index}")
    clip, truth = experiment.build_clip()
    flow = experiment.build_flow(clip, truth)
    with _locked_out_dir(out_dir):
        fields = stack_layers(banks if experiment.save_features else banks[:-1], clip)
        grids = [clip.data] + fields
        rows = [_summary_row(index, "eval", _windowed_eval(bank, grid, flow, plan.config))
                for index, (bank, grid, plan) in enumerate(zip(banks, grids, plans), start=1)]
        if experiment.save_features:
            for index, field in enumerate(fields, start=1):
                save_feature_maps(field, out_dir / "features" / f"layer{index}")
        # written last, so a tree with eval.csv is complete
        _write_rows(out_dir / "eval.csv", SUMMARY_HEADER, rows)
    print(f"evaluated {len(banks)} bank(s); outputs in {out_dir}")
    return 0


def cmd_check_grad(instances: int) -> int:
    if instances < 1:
        raise ConfigError(f"--instances must be >= 1, got {instances}")
    reports = run_gradient_check(count=instances)
    worst = 0.0
    for report in reports:
        worst = max(worst, report["max_rel_err"])
        status = "ok" if report["pass"] else "FAIL"
        print(f"instance {report['instance']:2d} [{report['mode']:>14}] "
              f"max rel err {report['max_rel_err']:.3e}  {status}")
    print(f"max relative error: {worst:.6e}")
    return 0 if all(r["pass"] for r in reports) else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cogaction",
                                     description="Motion-invariant feature learning from video")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("synth", "train", "eval"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment file")
        p.add_argument("--out", default=None, help="output directory (overrides [output] dir)")
        p.add_argument("--seed", type=int, default=None, help="override [train] seed")
        p.add_argument("--threads", type=int, default=None,
                       help="worker hint; accepted and ignored, outputs never depend on it")
        if name == "eval":
            p.add_argument("--bank", action="append", default=[],
                           help="bank file, repeatable in layer order")
    p = sub.add_parser("check-grad")
    p.add_argument("--instances", type=int, default=20,
                   help="number of seeded gradient-check instances")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "check-grad":
            return cmd_check_grad(args.instances)
        experiment = parse_config(args.config, seed_override=args.seed)
        out_dir = Path(args.out if args.out is not None else experiment.out_dir)
        if args.command == "synth":
            return cmd_synth(experiment, out_dir)
        if args.command == "train":
            return cmd_train(experiment, out_dir)
        return cmd_eval(experiment, args.bank, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, DivergenceError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
