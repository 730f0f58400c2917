import math
import os
import platform
import re
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest
from flow_oracle import roll_horn_schunck

import cogaction
from cogaction import (LayerPlan, TrainConfig, cli, features, init_bank, load_bank, load_flow,
                       parse_config, save_bank, train_layer)
from cogaction.cli import main
from cogaction.config import ConfigError


def write_config(path, body):
    path.write_text(body, encoding="utf-8")
    return str(path)


BASE = """
[data]
source = synth
pattern = random-texture
period = 8
seed = 7
channels = 1
frames = 6
height = 12
width = 12
velocity = 1.0 0.0

[flow]
source = ground-truth

[train]
steps = {steps}
step_size = 0.5
lambda_m = 1.0
lambda_p = 0.001
lambda_k = 0.001
seed = 12345
init_scale = 0.1

[layer1]
n = 4
k = 3

[output]
dir = out
save_features = {save_features}
"""


def read_tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file() and p.name != ".lock"}


def files_config(tmp_path, name, tail):
    """A config that reads BASE's 6 frames back from image files, with
    Horn-Schunck flow, followed by ``tail`` (its [train], layer and [output]
    sections).  The frame count of such a clip is known only once it is
    loaded, so a window beyond it is a runtime error."""
    frames = tmp_path / "frames"
    if not frames.exists():
        synth = write_config(tmp_path / "synth.ini", BASE.format(steps=1, save_features="false"))
        assert main(["synth", "--config", synth, "--out", str(frames)]) == 0
    body = (f"[data]\nsource = files\npath_pattern = {frames}/frame_{{t}}.pgm\n"
            "[flow]\nsource = horn-schunck\nalpha = 1.0\niters = 5\n" + tail)
    return write_config(tmp_path / name, body)


WINDOW_9 = "[train]\nsteps = 1\nwindow = 9\n[layer1]\nn = 4\nk = 3\n[output]\nsave_features = false\n"


@pytest.fixture
def config_path(tmp_path):
    return write_config(tmp_path / "exp.ini", BASE.format(steps=4, save_features="true"))


class TestConfigParsing:
    def test_valid_config_parses(self, config_path):
        experiment = parse_config(config_path)
        assert experiment.data.frames == 6
        assert len(experiment.layers) == 1
        assert experiment.layers[0].seed == 12345 ^ 1

    def test_missing_key_reports_section_and_key(self, tmp_path):
        path = write_config(tmp_path / "bad.ini", "[data]\nsource = synth\n")
        with pytest.raises(ConfigError, match=r"\[data\].*pattern"):
            parse_config(path)

    def test_bad_value_reports_key(self, tmp_path):
        body = BASE.format(steps=4, save_features="true").replace("frames = 6", "frames = six")
        path = write_config(tmp_path / "bad.ini", body)
        with pytest.raises(ConfigError, match="frames"):
            parse_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        body = BASE.format(steps=4, save_features="true") + "\n[data2]\nx = 1\n"
        path = write_config(tmp_path / "bad.ini", body)
        with pytest.raises(ConfigError, match="data2"):
            parse_config(path)

    def test_missing_layer_section(self, tmp_path):
        body = BASE.format(steps=4, save_features="true").replace("[layer1]", "[layer2]")
        path = write_config(tmp_path / "bad.ini", body)
        with pytest.raises(ConfigError, match="layer1"):
            parse_config(path)

    def test_files_source_requires_existing_frames(self, tmp_path):
        body = "[data]\nsource = files\npath_pattern = missing_{t}.pgm\n[layer1]\nn = 2\nk = 3\n"
        path = write_config(tmp_path / "bad.ini", body)
        with pytest.raises(ConfigError, match="missing_0000.pgm"):
            parse_config(path)

    def test_ground_truth_flow_needs_synth(self, tmp_path):
        (tmp_path / "f_0000.pgm").write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 4)
        (tmp_path / "f_0001.pgm").write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 4)
        body = (f"[data]\nsource = files\npath_pattern = {tmp_path}/f_{{t}}.pgm\n"
                "[flow]\nsource = ground-truth\n[layer1]\nn = 2\nk = 3\n")
        path = write_config(tmp_path / "bad.ini", body)
        with pytest.raises(ConfigError, match="ground-truth"):
            parse_config(path)

    def test_seed_override(self, config_path):
        experiment = parse_config(config_path, seed_override=999)
        assert experiment.layers[0].seed == 999 ^ 1

    def test_negative_seed_in_file_rejected(self, tmp_path):
        body = BASE.format(steps=4, save_features="true").replace("seed = 12345", "seed = -5")
        path = write_config(tmp_path / "bad.ini", body)
        with pytest.raises(ConfigError, match=r"\[train\] seed must be >= 0, got -5"):
            parse_config(path)


# Every [train] key, which any [layerZ] section may override: how a layer's
# plan reads it (its TrainConfig's or its starting bank's), the default when
# no section names it, a [train] value and what it reads as, a [layer2] value
# and what it reads as, and a bad value with today's reason (None:
# TrainConfig rejects it, naming the section).
TrainKey = namedtuple("TrainKey", "key read default shared shared_value own own_value bad why")
TRAIN_KEYS = [TrainKey(*row) for row in (
    ("steps", lambda p: p.config.steps, 100, "7", 7, "9", 9, "x", "not an integer"),
    ("step_size", lambda p: p.config.step_size, 0.1, "0.25", 0.25, "0.75", 0.75, "x",
     "not a number"),
    ("dtau", lambda p: p.config.dtau, None, "0.5", 0.5, "2", 2.0, "inf", "not a finite number"),
    ("lambda_m", lambda p: p.config.lam.motion, 1.0, "0.3", 0.3, "0.7", 0.7, "x", "not a number"),
    ("lambda_p", lambda p: p.config.lam.spatial, 1e-3, "0.02", 0.02, "0.05", 0.05, "nan",
     "not a finite number"),
    ("lambda_k", lambda p: p.config.lam.temporal, 1e-3, "0.04", 0.04, "0.06", 0.06, "x",
     "not a number"),
    ("lambda_c", lambda p: p.config.lam.constraint, 0.0, "0.5", 0.5, "1.5", 1.5, "x",
     "not a number"),
    ("window", lambda p: p.config.window, None, "3", 3, "4", 4, "2.5", "not an integer"),
    ("init_scale", lambda p: p.init_scale, 0.1, "0.2", 0.2, "0.3", 0.3, "-inf",
     "not a finite number"),
    ("mode", lambda p: p.mode, "softmax", "linear-penalty", "linear-penalty", "softmax",
     "softmax", "x", "expected one of ['linear-penalty', 'softmax']"),
    ("weights", lambda p: p.config.weighting, "uniform", "exp:0.5", "exp:0.5", "exp:0.25",
     "exp:0.25", "x", None),
)]

TWO_LAYERS = ("[data]\nsource = synth\npattern = checkerboard\nframes = 6\nheight = 8\n"
              "width = 8\n[train]\n{train}[layer1]\nn = 2\nk = 3\n[layer2]\nn = 2\nk = 3\n{layer2}")


@pytest.mark.parametrize("row", TRAIN_KEYS, ids=[row.key for row in TRAIN_KEYS])
class TestTrainKeys:
    def read(self, tmp_path, row, train="", layer2=""):
        path = write_config(tmp_path / "k.ini", TWO_LAYERS.format(train=train, layer2=layer2))
        return [row.read(plan) for plan in parse_config(path).layers]

    def test_absent_key_gives_default(self, tmp_path, row):
        # a file's omitted key and the library's TrainConfig() and LayerPlan agree
        library = row.read(LayerPlan(2, 1, TrainConfig()))
        assert self.read(tmp_path, row) + [library] == [row.default] * 3

    def test_train_value_reaches_each_layer(self, tmp_path, row):
        values = self.read(tmp_path, row, train=f"{row.key} = {row.shared}\n")
        assert values == [row.shared_value, row.shared_value]

    def test_layer_value_overrides_train(self, tmp_path, row):
        values = self.read(tmp_path, row, train=f"{row.key} = {row.shared}\n",
                           layer2=f"{row.key} = {row.own}\n")
        assert values == [row.shared_value, row.own_value]

    @pytest.mark.parametrize("section", ["train", "layer2"])
    def test_bad_value_message(self, tmp_path, row, section):
        line = f"{row.key} = {row.bad}\n"
        body = TWO_LAYERS.format(train=line if section == "train" else "",
                                 layer2=line if section == "layer2" else "")
        expected = f"[{section}] {row.key} = {row.bad!r}: {row.why}"
        if row.why is None:
            expected = (f"[{section}] unknown temporal weighting {row.bad!r}, "
                        "expected 'uniform' or 'exp:<gamma>'")
        with pytest.raises(ConfigError) as info:
            parse_config(write_config(tmp_path / "bad.ini", body))
        assert str(info.value) == expected


class TestEmptyOutputDirectory:
    """An empty directory name would be the working directory: it is a
    configuration error that names the key or the flag, and writes nothing."""

    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_empty_output_dir_key(self, tmp_path, monkeypatch, capsys, command):
        body = BASE.format(steps=1, save_features="false").replace("dir = out", "dir =")
        path = write_config(tmp_path / "exp.ini", body)
        monkeypatch.chdir(tmp_path)
        assert main([command, "--config", path]) == 1
        assert "config error: [output] dir must name a directory, got ''" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini"]

    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_empty_out_flag(self, tmp_path, monkeypatch, capsys, config_path, command):
        monkeypatch.chdir(tmp_path)
        assert main([command, "--config", config_path, "--out", ""]) == 1
        assert "config error: --out must name a directory, got ''" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini"]

    def test_dot_stays_allowed(self, tmp_path, monkeypatch, capsys):
        run = tmp_path / "run"
        run.mkdir()
        path = write_config(run / "exp.ini", BASE.format(steps=1, save_features="false"))
        monkeypatch.chdir(run)
        assert main(["train", "--config", path, "--out", "."]) == 0
        assert (run / "summary.csv").exists()
        assert "outputs in ." in capsys.readouterr().out


class TestSynthCommand:
    def test_outputs_and_flow_roundtrip(self, tmp_path, config_path):
        out = tmp_path / "synth_out"
        assert main(["synth", "--config", config_path, "--out", str(out)]) == 0
        frames = sorted(out.glob("frame_*.pgm"))
        assert len(frames) == 6
        flow = load_flow(out / "flow.bin")
        assert np.all(flow.data[..., 0] == 1.0)
        assert np.all(flow.data[..., 1] == 0.0)

    def test_rerun_bit_identical(self, tmp_path, config_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--config", config_path, "--out", str(a)]) == 0
        assert main(["synth", "--config", config_path, "--out", str(b)]) == 0
        assert read_tree(a) == read_tree(b)


# Every key that a [flow] source does not read, and [data] seed under a
# pattern that draws no noise: the BASE line replaced, its replacement, and
# the key that nothing reads.
UNREAD_KEYS = [pytest.param(*row, id=f"{row[2].split()[2]}-{row[3]}") for row in (
    ("flow", "source = ground-truth", "source = ground-truth\nalpha = 1.0", "alpha"),
    ("flow", "source = ground-truth", "source = ground-truth\niters = 5", "iters"),
    ("flow", "source = ground-truth", "source = ground-truth\nvelocity = 1.0 0.0", "velocity"),
    ("flow", "source = ground-truth", "source = horn-schunck\nvelocity = 1.0 0.0", "velocity"),
    ("flow", "source = ground-truth", "source = constant\nalpha = 1.0", "alpha"),
    ("flow", "source = ground-truth", "source = constant\niters = 5", "iters"),
    ("data", "pattern = random-texture", "pattern = checkerboard", "seed"),
    ("data", "pattern = random-texture", "pattern = sinusoid", "seed"),
)]


class TestTrainCommand:
    def test_outputs_present(self, tmp_path, config_path):
        out = tmp_path / "run"
        assert main(["train", "--config", config_path, "--out", str(out)]) == 0
        trace = (out / "layer1_trace.csv").read_text().splitlines()
        assert trace[0].startswith("step,S_Y,S_cond,I,M,P,K,C_pen,A")
        assert len(trace) == 1 + 4  # header + one row per step
        bank = load_bank(out / "layer1_bank.txt")
        assert bank.n == 4
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 3
        maps = list((out / "features" / "layer1").glob("feat*_t*.pgm"))
        assert len(maps) == 4 * 6

    def test_trace_grad_max_is_train_layers(self, tmp_path, config_path):
        # the trace's last column is each step's largest |tap gradient| as
        # train_layer records it; the summary keeps the breakdown's columns
        out = tmp_path / "run"
        assert main(["train", "--config", config_path, "--out", str(out)]) == 0
        header, *rows = (out / "layer1_trace.csv").read_text().splitlines()
        assert header == "step,S_Y,S_cond,I,M,P,K,C_pen,A,grad_max"
        assert "grad_max" not in (out / "summary.csv").read_text()
        experiment = parse_config(config_path)
        clip, truth = experiment.build_clip()
        plan = experiment.layers[0]
        trace = train_layer(plan.initial_bank(1), clip, experiment.build_flow(clip, truth),
                            plan.config)
        assert len(trace.grad_norms) == 4 and min(trace.grad_norms) > 0.0
        assert [float(row.rsplit(",", 1)[1]) for row in rows] == trace.grad_norms
        assert [row.rsplit(",", 1)[0] for row in rows] == [
            b.csv_row(step) for step, b in enumerate(trace.breakdowns)]

    def test_zero_steps_summary_initial_equals_final(self, tmp_path):
        path = write_config(tmp_path / "zero.ini", BASE.format(steps=0, save_features="false"))
        out = tmp_path / "run0"
        assert main(["train", "--config", path, "--out", str(out)]) == 0
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        initial = rows[0].split(",", 2)[2]
        final = rows[1].split(",", 2)[2]
        assert initial == final

    def test_rerun_bit_identical(self, tmp_path, config_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", config_path, "--out", str(a)]) == 0
        assert main(["train", "--config", config_path, "--out", str(b)]) == 0
        assert read_tree(a) == read_tree(b)

    def test_two_layer_run(self, tmp_path, monkeypatch, gram_builds, plan_builds):
        def refuse(*args):
            raise AssertionError("the summary comes from the traces; no maps, no propagation")

        monkeypatch.setattr(cli, "_windowed_eval", refuse)
        monkeypatch.setattr(cli, "convolve_features", refuse)
        body = BASE.format(steps=2, save_features="false") + "\n[layer2]\nn = 3\nk = 3\nsteps = 1\n"
        path = write_config(tmp_path / "deep.ini", body)
        out = tmp_path / "deep"
        assert main(["train", "--config", path, "--out", str(out)]) == 0
        assert len(gram_builds) == 2  # one evaluation context per layer
        assert plan_builds == []
        assert (out / "layer2_bank.txt").exists()
        bank2 = load_bank(out / "layer2_bank.txt")
        assert bank2.m_in == 4  # consumes layer 1's feature field

    def test_two_layer_maps_convolve_each_bank_once(self, tmp_path, monkeypatch):
        # besides the objective's steps: layer 1's bank once, to feed layer 2
        # (its maps reuse that field), and layer 2's once, for its maps;
        # train_deep propagates through features.stack_layers
        from cogaction import features, optimizer, save_feature_maps, stack_layers

        convolved = []
        for module in (features, optimizer, cli):
            monkeypatch.setattr(module, "convolve_features",
                                lambda bank, data, convolve=module.convolve_features:
                                convolved.append(bank.layer) or convolve(bank, data))
        body = BASE.format(steps=2, save_features="true") + "\n[layer2]\nn = 3\nk = 3\nsteps = 1\n"
        path = write_config(tmp_path / "deep.ini", body)
        out = tmp_path / "deep"
        assert main(["train", "--config", path, "--out", str(out)]) == 0
        assert convolved == [1, 2]
        banks = [load_bank(out / f"layer{z}_bank.txt") for z in (1, 2)]
        clip, _ = parse_config(path).build_clip()
        for z, field in enumerate(stack_layers(banks, clip), start=1):
            save_feature_maps(field, tmp_path / "maps" / f"layer{z}")
        assert read_tree(out / "features") == read_tree(tmp_path / "maps")

    def test_missing_input_file_exit_1(self, tmp_path, capsys):
        body = "[data]\nsource = files\npath_pattern = gone_{t}.pgm\n[layer1]\nn = 2\nk = 3\n"
        path = write_config(tmp_path / "bad.ini", body)
        assert main(["train", "--config", path, "--out", str(tmp_path / "x")]) == 1
        assert "gone_0000.pgm" in capsys.readouterr().err

    def test_locked_output_exit_2(self, tmp_path, config_path, capsys):
        # an empty lock, as older versions left, still blocks the run
        out = tmp_path / "busy"
        out.mkdir()
        (out / ".lock").touch()
        assert main(["train", "--config", config_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "lock" in err and "owner unknown" in err
        assert sorted(p.name for p in out.iterdir()) == [".lock"]
        assert (out / ".lock").read_bytes() == b""

    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_stale_lock_names_owner_and_is_kept(self, tmp_path, config_path, capsys, command):
        out = tmp_path / "busy"
        out.mkdir()
        lock = out / ".lock"
        lock.write_text("pid=4242\nhost=render-07\nstarted=2026-01-02T03:04:05Z\n")
        os.utime(lock, (1_000_000_000, 1_000_000_000))
        assert main([command, "--config", config_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "pid 4242, host render-07, started 2026-01-02T03:04:05Z" in err
        assert f"remove {lock}" in err
        assert lock.read_text() == "pid=4242\nhost=render-07\nstarted=2026-01-02T03:04:05Z\n"
        assert lock.stat().st_mtime == 1_000_000_000
        assert sorted(p.name for p in out.iterdir()) == [".lock"]

    def test_lock_records_the_running_process(self, tmp_path, config_path, monkeypatch):
        out = tmp_path / "run"
        seen = []
        train_deep = cli.train_deep

        def spy(*args):
            seen.append((out / ".lock").read_text())
            return train_deep(*args)

        monkeypatch.setattr(cli, "train_deep", spy)
        assert main(["train", "--config", config_path, "--out", str(out)]) == 0
        fields = dict(line.split("=", 1) for line in seen[0].splitlines())
        assert fields["pid"] == str(os.getpid())
        assert fields["host"] == platform.node()
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", fields["started"])

    def test_lock_released_after_run(self, tmp_path, config_path):
        out = tmp_path / "run"
        assert main(["train", "--config", config_path, "--out", str(out)]) == 0
        assert not (out / ".lock").exists()

    def test_negative_seed_flag_exit_1(self, tmp_path, config_path, capsys):
        out = tmp_path / "neg"
        assert main(["train", "--config", config_path, "--out", str(out), "--seed", "-3"]) == 1
        assert "--seed must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("old, new, key", [
        ("source = ground-truth", "source = horn-schunck\nalpha = inf", "[flow] alpha = 'inf'"),
        ("source = ground-truth", "source = horn-schunck\nalpha = nan", "[flow] alpha = 'nan'"),
        ("velocity = 1.0 0.0", "velocity = nan 0", "[data] velocity = 'nan 0'"),
    ], ids=["alpha-inf", "alpha-nan", "velocity-nan"])
    def test_non_finite_number_exit_1(self, tmp_path, capsys, old, new, key):
        body = BASE.format(steps=1, save_features="false").replace(old, new)
        path = write_config(tmp_path / "bad.ini", body)
        out = tmp_path / "x"
        assert main(["train", "--config", path, "--out", str(out)]) == 1
        assert f"{key}: not a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("layer", [1, 2], ids=["train-section", "layer2-section"])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_window_beyond_synth_clip_exit_1(self, tmp_path, capsys, command, layer):
        # a window set in [train] reaches layer 1 first; one set in [layer2] only layer 2
        body = BASE.format(steps=1, save_features="false") + "\n[layer2]\nn = 3\nk = 3\n"
        if layer == 1:
            body = body.replace("[layer1]", "window = 9\n\n[layer1]")
        else:
            body += "window = 9\n"
        path = write_config(tmp_path / "window.ini", body)
        out = tmp_path / "x"
        bank = ["--bank", "unread.txt"] if command == "eval" else []
        assert main([command, "--config", path, "--out", str(out)] + bank) == 1
        assert (f"config error: [layer{layer}] window = 9 exceeds the clip's 6 frames"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("old, new, message", [
        ("frames = 6", "frames = 1", "need at least 2 frames, got 1"),
        ("height = 12", "height = 0", "retina must be at least 1x1, got 0x12"),
        ("width = 12", "width = 0", "retina must be at least 1x1, got 12x0"),
        # 6 frames on a 12x12 retina allow less than 2 pixels per frame
        ("velocity = 1.0 0.0", "velocity = 2.0 0.0",
         "velocity (2.0, 0.0) too fast for a 12x12 retina over 6 frames"),
    ], ids=["one-frame", "zero-height", "zero-width", "too-fast"])
    @pytest.mark.parametrize("command", ["train", "synth"])
    def test_synth_geometry_exit_1(self, tmp_path, capsys, command, old, new, message):
        body = BASE.format(steps=1, save_features="false").replace(old, new)
        path = write_config(tmp_path / "geometry.ini", body)
        out = tmp_path / "x"
        assert main([command, "--config", path, "--out", str(out)]) == 1
        assert f"config error: [data] {message}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flow, message", [
        ("alpha = 0\niters = 5", "smoothness weight alpha must be finite and > 0, got 0.0"),
        ("alpha = 1.0\niters = 0", "iteration count must be >= 1, got 0"),
    ], ids=["alpha-0", "iters-0"])
    def test_horn_schunck_parameters_exit_1(self, tmp_path, capsys, flow, message):
        # flow.check_horn_schunck, the rule horn_schunck itself keeps
        body = BASE.format(steps=1, save_features="false").replace(
            "source = ground-truth", f"source = horn-schunck\n{flow}")
        path = write_config(tmp_path / "flow.ini", body)
        out = tmp_path / "x"
        assert main(["train", "--config", path, "--out", str(out)]) == 1
        assert f"config error: [flow] {message}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("old, new, message", [
        ("n = 4", "n = 1", "need at least 2 output features, got n=1"),
        ("k = 3", "k = 2", "kernel must be square with an odd side >= 1, got 2x2"),
        ("k = 3", "k = -1", "kernel must be square with an odd side >= 1, got -1x-1"),
        ("k = 3", "k = 3\ninit_scale = -0.5", "init scale must be finite and >= 0, got -0.5"),
        ("init_scale = 0.1", "init_scale = -0.5", "init scale must be finite and >= 0, got -0.5"),
    ], ids=["n-1", "k-2", "k-minus-1", "init-scale-negative", "train-init-scale-negative"])
    def test_layer_rule_exit_1(self, tmp_path, capsys, old, new, message):
        # the rules of a layer's starting bank, kept by LayerPlan: a value set
        # in [train] is checked where it reaches the first layer
        body = BASE.format(steps=1, save_features="false").replace(old, new)
        path = write_config(tmp_path / "layer.ini", body)
        out = tmp_path / "x"
        assert main(["train", "--config", path, "--out", str(out)]) == 1
        assert f"config error: [layer1] {message}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("old, new, message", [
        ("steps = 1", "steps = -1", "step count must be >= 0, got -1"),
        ("step_size = 0.5", "step_size = 0", "step size must be finite and > 0, got 0.0"),
        ("seed = 12345", "seed = 12345\ndtau = -1", "dtau must be finite and > 0, got -1.0"),
        ("seed = 12345", "seed = 12345\nwindow = 1",
         "evaluation window must cover >= 2 frames, got 1"),
        ("lambda_m = 1.0", "lambda_m = -1",
         "multiplier motion must be finite and >= 0, got -1.0"),
        ("seed = 12345", "seed = 12345\nweights = x",
         "unknown temporal weighting 'x', expected 'uniform' or 'exp:<gamma>'"),
    ], ids=["steps", "step_size", "dtau", "window", "lambda_m", "weights"])
    def test_train_value_rule_exit_1(self, tmp_path, capsys, old, new, message):
        # TrainConfig's and Multipliers' rules name [train], which builds its own
        body = BASE.format(steps=1, save_features="false").replace(old, new)
        path = write_config(tmp_path / "train.ini", body)
        out = tmp_path / "x"
        assert main(["train", "--config", path, "--out", str(out)]) == 1
        assert f"config error: [train] {message}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, old, new, key", UNREAD_KEYS)
    def test_unread_key_exit_1(self, tmp_path, capsys, section, old, new, key):
        body = BASE.format(steps=1, save_features="false").replace(old, new)
        path = write_config(tmp_path / "unread.ini", body)
        out = tmp_path / "x"
        assert main(["train", "--config", path, "--out", str(out)]) == 1
        assert f"config error: [{section}] unknown key '{key}'\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "eval"])
    def test_seed_flag_is_train_only(self, tmp_path, config_path, capsys, command):
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as info:
            main([command, "--config", config_path, "--out", str(out), "--seed", "7"])
        assert info.value.code == 2
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("velocity", ["1.0 0.0", "0.5 0.25"], ids=["integer", "subpixel"])
    def test_constant_flow_matches_ground_truth(self, tmp_path, velocity):
        body = BASE.format(steps=4, save_features="true").replace("velocity = 1.0 0.0",
                                                                  f"velocity = {velocity}")
        trees = []
        for flow in ("source = ground-truth", f"source = constant\nvelocity = {velocity}"):
            path = write_config(tmp_path / "exp.ini", body.replace("source = ground-truth", flow))
            out = tmp_path / flow.split()[2]
            assert main(["train", "--config", path, "--out", str(out)]) == 0
            trees.append(read_tree(out))
        assert trees[0] == trees[1]

    def test_seed_flag_changes_outputs(self, tmp_path, config_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", config_path, "--out", str(a)]) == 0
        assert main(["train", "--config", config_path, "--out", str(b), "--seed", "777"]) == 0
        assert read_tree(a) != read_tree(b)


class TestEvalCommand:
    def test_eval_matches_summary_final(self, tmp_path, config_path):
        run = tmp_path / "run"
        assert main(["train", "--config", config_path, "--out", str(run)]) == 0
        out = tmp_path / "eval"
        assert main(["eval", "--config", config_path, "--bank", str(run / "layer1_bank.txt"),
                     "--out", str(out)]) == 0
        final = (run / "summary.csv").read_text().splitlines()[2].split(",", 2)[2]
        evaluated = (out / "eval.csv").read_text().splitlines()[1].split(",", 2)[2]
        assert final == evaluated

    def test_eval_without_maps_propagates_below_last_layer(self, tmp_path, monkeypatch):
        two_layer = BASE + "\n[layer2]\nn = 3\nk = 3\nsteps = 1\n"
        path = write_config(tmp_path / "deep.ini", two_layer.format(steps=2, save_features="false"))
        run = tmp_path / "run"
        assert main(["train", "--config", path, "--out", str(run)]) == 0
        banks = ["--bank", str(run / "layer1_bank.txt"), "--bank", str(run / "layer2_bank.txt")]
        convolved = []
        convolve = features.convolve_features

        def counted(bank, data):
            convolved.append(bank.layer)
            return convolve(bank, data)

        monkeypatch.setattr(features, "convolve_features", counted)
        assert main(["eval", "--config", path, *banks, "--out", str(tmp_path / "off")]) == 0
        assert convolved == [1]
        with_maps = write_config(tmp_path / "maps.ini",
                                 two_layer.format(steps=2, save_features="true"))
        assert main(["eval", "--config", with_maps, *banks, "--out", str(tmp_path / "on")]) == 0
        assert convolved == [1, 1, 2]
        eval_csv = (tmp_path / "off" / "eval.csv").read_bytes()
        assert eval_csv == (tmp_path / "on" / "eval.csv").read_bytes()

    def test_zero_bank_uniform_maps(self, tmp_path):
        body = BASE.format(steps=0, save_features="true").replace("init_scale = 0.1",
                                                                  "init_scale = 0.0")
        path = write_config(tmp_path / "zero.ini", body)
        run = tmp_path / "run"
        assert main(["train", "--config", path, "--out", str(run)]) == 0
        out = tmp_path / "eval"
        assert main(["eval", "--config", path, "--bank", str(run / "layer1_bank.txt"),
                     "--out", str(out)]) == 0
        row = (out / "eval.csv").read_text().splitlines()[1].split(",")
        assert abs(float(row[4])) <= 1e-12  # information index of the uniform field
        from cogaction.video import _read_pnm

        frame, _ = _read_pnm(out / "features" / "layer1" / "feat0_t0000.pgm")
        assert np.all(np.rint(frame * 255) == round(255 / 4))

    def test_multiplier_change_keeps_terms_changes_total(self, tmp_path, config_path):
        run = tmp_path / "run"
        assert main(["train", "--config", config_path, "--out", str(run)]) == 0
        body = BASE.format(steps=4, save_features="false").replace("lambda_p = 0.001",
                                                                   "lambda_p = 0.5")
        other = write_config(tmp_path / "other.ini", body)
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        bank = str(run / "layer1_bank.txt")
        assert main(["eval", "--config", config_path, "--bank", bank, "--out", str(out1)]) == 0
        assert main(["eval", "--config", other, "--bank", bank, "--out", str(out2)]) == 0
        row1 = (out1 / "eval.csv").read_text().splitlines()[1].split(",")
        row2 = (out2 / "eval.csv").read_text().splitlines()[1].split(",")
        assert row1[2:9] == row2[2:9]      # S_Y .. C_pen identical
        assert row1[9] != row2[9]          # composite value reweighted

    def test_eval_without_banks_is_config_error(self, config_path, tmp_path):
        assert main(["eval", "--config", config_path, "--out", str(tmp_path / "x")]) == 1

    def test_eval_mismatched_bank_exit_2(self, tmp_path, config_path, capsys):
        from cogaction import init_bank, save_bank

        bank = init_bank(4, 5, 3, "softmax", seed=0, scale=0.1)  # clip has 1 channel
        path = tmp_path / "bad_bank.txt"
        save_bank(bank, path)
        assert main(["eval", "--config", config_path, "--bank", str(path),
                     "--out", str(tmp_path / "x")]) == 2
        assert "layer 1" in capsys.readouterr().err

    def test_bank_beyond_last_layer_is_config_error(self, tmp_path, config_path, capsys):
        from cogaction import init_bank, save_bank

        paths = [tmp_path / "b1.txt", tmp_path / "b2.txt"]
        save_bank(init_bank(4, 1, 3, "softmax", seed=0), paths[0])
        save_bank(init_bank(3, 4, 3, "softmax", seed=0, layer=2), paths[1])
        out = tmp_path / "x"
        assert main(["eval", "--config", config_path, "--bank", str(paths[0]),
                     "--bank", str(paths[1]), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "bank 2" in err and str(paths[1]) in err and "[layer2]" in err
        assert not out.exists()

    def test_bank_header_layer_must_match_position(self, tmp_path, config_path, capsys):
        from cogaction import init_bank, save_bank

        path = tmp_path / "b7.txt"
        save_bank(init_bank(4, 1, 3, "softmax", seed=0, layer=7), path)
        out = tmp_path / "x"
        assert main(["eval", "--config", config_path, "--bank", str(path),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "bank 1" in err and str(path) in err and "layer 7" in err
        assert not out.exists()

    @pytest.mark.parametrize("n, kernel, mode", [(3, 3, "softmax"), (4, 5, "softmax"),
                                                 (4, 3, "linear-penalty")],
                             ids=["n", "k", "mode"])
    def test_bank_must_match_its_section(self, tmp_path, config_path, capsys, n, kernel, mode):
        path = tmp_path / "b1.txt"
        save_bank(init_bank(n, 1, kernel, mode, seed=0), path)
        out = tmp_path / "x"
        assert main(["eval", "--config", config_path, "--bank", str(path),
                     "--out", str(out)]) == 1
        assert (f"config error: bank 1 ({path}) is a layer 1 bank with n = {n}, K = {kernel}, "
                f"mode {mode}; [layer1] needs a layer 1 bank with n = 4, K = 3, mode softmax\n"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_window_beyond_clip_same_error_as_train(self, tmp_path, capsys):
        from cogaction import init_bank, save_bank

        path = files_config(tmp_path, "window.ini", WINDOW_9)
        bank = tmp_path / "b1.txt"
        save_bank(init_bank(4, 1, 3, "softmax", seed=0), bank)
        message = "evaluation window 9 exceeds the clip's 6 frames"
        assert main(["train", "--config", path, "--out", str(tmp_path / "t")]) == 2
        assert message in capsys.readouterr().err
        assert main(["eval", "--config", path, "--bank", str(bank),
                     "--out", str(tmp_path / "e")]) == 2
        assert message in capsys.readouterr().err


class TestFailedRunOutput:
    @pytest.fixture
    def failing_runs(self, tmp_path):
        from cogaction import init_bank, save_bank

        window = files_config(tmp_path, "window.ini", WINDOW_9)
        base = write_config(tmp_path / "exp.ini", BASE.format(steps=1, save_features="false"))
        bank = tmp_path / "bad_bank.txt"
        save_bank(init_bank(4, 5, 3, "softmax", seed=0, scale=0.1), bank)  # clip has 1 channel
        deep = files_config(tmp_path, "deep.ini", "[train]\nsteps = 1\n[layer1]\nn = 4\nk = 3\n"
                            "[layer2]\nn = 3\nk = 3\nwindow = 9\n")
        banks = [tmp_path / "b1.txt", tmp_path / "b2.txt"]
        save_bank(init_bank(4, 1, 3, "softmax", seed=0), banks[0])
        save_bank(init_bank(3, 4, 3, "softmax", seed=0, layer=2), banks[1])
        return {
            "train": (["train", "--config", window], "evaluation window 9 exceeds"),
            "eval": (["eval", "--config", base, "--bank", str(bank)], "layer 1"),
            # layer 1 evaluates and could write its maps before layer 2 fails
            "eval-layer2": (["eval", "--config", deep, "--bank", str(banks[0]),
                             "--bank", str(banks[1])], "evaluation window 9 exceeds"),
        }

    @pytest.mark.parametrize("command", ["train", "eval", "eval-layer2"])
    def test_failed_run_leaves_no_out_dir(self, tmp_path, capsys, failing_runs, command):
        argv, message = failing_runs[command]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_last_update_exit_2(self, tmp_path, capsys, overflow_at_step):
        body = BASE.format(steps=3, save_features="true").replace("step_size = 0.5",
                                                                  "step_size = 4.0")
        path = write_config(tmp_path / "exp.ini", body)
        overflow_at_step(2)
        out = tmp_path / "out"
        assert main(["train", "--config", path, "--out", str(out)]) == 2
        assert "layer 1: non-finite taps after the update at step 2" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_run_keeps_existing_out_dir(self, tmp_path, failing_runs):
        argv, _ = failing_runs["train"]
        out = tmp_path / "out"
        out.mkdir()
        assert main(argv + ["--out", str(out)]) == 2
        assert out.is_dir() and not any(out.iterdir())

    def test_failed_map_write_leaves_no_eval_csv(self, tmp_path, monkeypatch, capsys):
        # eval.csv is written last: a run that fails at its second map
        # directory leaves layer 1's maps, but no tree that looks finished
        two_layer = BASE + "\n[layer2]\nn = 3\nk = 3\nsteps = 1\n"
        path = write_config(tmp_path / "deep.ini", two_layer.format(steps=1, save_features="true"))
        run = tmp_path / "run"
        assert main(["train", "--config", path, "--out", str(run)]) == 0
        calls = []
        save = cli.save_feature_maps

        def failing(field, directory):
            calls.append(directory)
            if len(calls) == 2:
                raise OSError(f"cannot write {directory}")
            save(field, directory)

        monkeypatch.setattr(cli, "save_feature_maps", failing)
        out = tmp_path / "eval"
        assert main(["eval", "--config", path, "--bank", str(run / "layer1_bank.txt"),
                     "--bank", str(run / "layer2_bank.txt"), "--out", str(out)]) == 2
        assert "cannot write" in capsys.readouterr().err
        assert len(calls) == 2
        assert not (out / "eval.csv").exists() and not (out / ".lock").exists()

    def test_interrupt_releases_lock_and_keeps_out_dir(self, tmp_path, monkeypatch):
        two_layer = BASE + "\n[layer2]\nn = 3\nk = 3\nsteps = 1\n"
        path = write_config(tmp_path / "deep.ini", two_layer.format(steps=1, save_features="false"))
        save = cli.save_bank

        def interrupted(bank, target):
            if bank.layer == 2:
                raise KeyboardInterrupt
            save(bank, target)

        monkeypatch.setattr(cli, "save_bank", interrupted)
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(KeyboardInterrupt):
            main(["train", "--config", path, "--out", str(out)])
        assert out.is_dir() and (out / "layer1_bank.txt").exists()
        assert not (out / ".lock").exists() and not (out / "summary.csv").exists()


class TestFilesPipeline:
    def test_train_from_saved_frames_with_estimated_flow(self, tmp_path, config_path):
        data = tmp_path / "data"
        assert main(["synth", "--config", config_path, "--out", str(data)]) == 0
        body = (f"[data]\nsource = files\npath_pattern = {data}/frame_{{t}}.pgm\n"
                "[flow]\nsource = horn-schunck\nalpha = 1.0\niters = 50\n"
                "[train]\nsteps = 2\nstep_size = 0.1\nseed = 3\n"
                "[layer1]\nn = 3\nk = 3\n")
        path = write_config(tmp_path / "files.ini", body)
        out = tmp_path / "run"
        assert main(["train", "--config", path, "--out", str(out)]) == 0
        assert (out / "layer1_bank.txt").exists()
        rows = (out / "layer1_trace.csv").read_text().splitlines()
        assert len(rows) == 3

    @pytest.mark.parametrize("budget", [None, 1], ids=["default-blocks", "one-pair-blocks"])
    def test_estimated_flow_tree_matches_roll_oracle(self, tmp_path, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr("cogaction.flow._SWEEP_BLOCK_BYTES", budget)
        body = (BASE.format(steps=2, save_features="true")
                .replace("source = ground-truth", "source = horn-schunck\nalpha = 1.0\niters = 30")
                + "\n[layer2]\nn = 3\nk = 3\nsteps = 2\n")
        path = write_config(tmp_path / "hs.ini", body)
        assert main(["train", "--config", path, "--out", str(tmp_path / "fast")]) == 0
        calls = []
        monkeypatch.setattr("cogaction.config.horn_schunck",
                            lambda *args: calls.append(args) or roll_horn_schunck(*args))
        assert main(["train", "--config", path, "--out", str(tmp_path / "oracle")]) == 0
        assert len(calls) == 1
        fast = read_tree(tmp_path / "fast")
        assert "features/layer2/feat0_t0000.pgm" in fast
        assert fast == read_tree(tmp_path / "oracle")


class TestCheckGrad:
    def test_prints_max_error_and_passes(self, capsys, gram_builds, plan_builds):
        assert main(["check-grad", "--instances", "2"]) == 0
        assert len(gram_builds) == 2 and plan_builds == []  # one G per instance
        out = capsys.readouterr().out
        assert "max relative error" in out
        value = float(out.strip().splitlines()[-1].split()[-1])
        assert value <= 1e-5 and math.isfinite(value)

    @pytest.mark.parametrize("module, name, poison", [
        ("action", "term_gradients", lambda grads: {**grads, "motion": grads["motion"] * np.nan}),
        ("optimizer", "action_value_and_gradient", lambda result: (result[0], result[1] * np.nan)),
    ], ids=["motion-term", "joint"])
    def test_nan_error_fails(self, capsys, monkeypatch, module, name, poison):
        # Python's max(worst, nan) keeps worst, so a running max passed a NaN
        owner = getattr(cogaction, module)
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: poison(real(*args)))
        assert main(["check-grad", "--instances", "2"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[-1] for line in lines[:-1]] == ["FAIL", "FAIL"]
        assert lines[-1] == "max relative error: nan"

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_no_instances_is_config_error(self, capsys, count):
        assert main(["check-grad", "--instances", count]) == 1
        captured = capsys.readouterr()
        assert f"--instances must be >= 1, got {count}" in captured.err
        assert "max relative error" not in captured.out


# Names that only the benchmark under perfbench/ uses (its tracer patches
# them); the package's own commands must run with every one of them broken.
BENCHMARK_ONLY = [("action", "probability_vjp"), ("action", "to_probabilities"),
                  ("action", "conditional_entropy"), ("action", "symbol_marginal"),
                  ("optimizer", "to_probabilities"), ("cli", "convolve_features"),
                  ("cli", "to_probabilities")]


def test_benchmark_only_names_are_dead_for_the_package(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("a benchmark-only name was called")

    for module, name in BENCHMARK_ONLY:
        monkeypatch.setattr(getattr(cogaction, module), name, broken)
    monkeypatch.setattr(cogaction.action._WarpPlan, "__init__", broken)
    body = BASE + "\n[layer2]\nn = 3\nk = 3\nsteps = 1\n"
    path = write_config(tmp_path / "deep.ini", body.format(steps=2, save_features="true"))
    run = tmp_path / "run"
    assert main(["train", "--config", path, "--out", str(run)]) == 0
    banks = ["--bank", str(run / "layer1_bank.txt"), "--bank", str(run / "layer2_bank.txt")]
    assert main(["eval", "--config", path, *banks, "--out", str(tmp_path / "eval")]) == 0
    assert main(["check-grad", "--instances", "2"]) == 0


class TestThreadsFlagIsGone:
    def test_threads_flag_is_rejected(self, tmp_path, config_path, capsys):
        # no code read it; TestBlasThreadsAreInert keeps outputs free of thread counts
        for command in ("synth", "train", "eval"):
            out = tmp_path / command
            with pytest.raises(SystemExit) as info:
                main([command, "--config", config_path, "--out", str(out), "--threads", "8"])
            assert info.value.code == 2
            assert "unrecognized arguments: --threads 8" in capsys.readouterr().err
            assert not out.exists()


# two layers on a 32x32 RGB clip: layer 1 has m=3, K=5, layer 2 m=8, K=3
TWO_LAYER_RGB = """
[data]
source = synth
pattern = random-texture
period = 8
seed = 7
channels = 3
frames = 6
height = 32
width = 32
velocity = 1.0 0.0

[flow]
source = ground-truth

[train]
steps = 3
step_size = 0.5
seed = 12345

[layer1]
n = 8
k = 5

[layer2]
n = 4
k = 3
steps = 2

[output]
dir = out
save_features = true
"""


# 32x32x16, m=1, K=3 at sub-pixel velocity: the whole clip's patch matrix
# fits the budget, so the tap adjoint is one GEMM over 16,384 sites
ONE_CHUNK = BASE.format(steps=20, save_features="true").replace(
    "frames = 6\nheight = 12\nwidth = 12\nvelocity = 1.0 0.0",
    "frames = 16\nheight = 32\nwidth = 32\nvelocity = 0.5 0.25")


class TestBlasThreadsAreInert:
    @staticmethod
    def run_cli(args, threads):
        """Run ``cogaction`` in a fresh process with ``threads`` BLAS threads;
        returns its standard output."""
        src = str(Path(cogaction.__file__).parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        return subprocess.run([sys.executable, "-m", "cogaction.cli"] + args, env=env,
                              check=True, capture_output=True).stdout

    @pytest.mark.parametrize("body", [BASE.format(steps=3, save_features="true"), TWO_LAYER_RGB,
                                      ONE_CHUNK],
                             ids=["m1-k3", "two-layer-m3-k5", "one-chunk-32x32x16"])
    def test_train_tree_independent_of_blas_threads(self, tmp_path, body):
        path = write_config(tmp_path / "exp.ini", body)
        trees = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            self.run_cli(["train", "--config", path, "--out", str(out)], threads)
            trees.append(read_tree(out))
        assert trees[0] == trees[1]

    def test_check_grad_report_independent_of_blas_threads(self):
        # every reduction the finite-difference probes' values depend on
        reports = [self.run_cli(["check-grad", "--instances", "4"], threads)
                   for threads in ("1", "2")]
        assert reports[0].count(b" ok\n") == 4
        assert reports[0] == reports[1]


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


class TestReadmeExamples:
    def test_experiment_file_parses(self, tmp_path):
        (body,) = readme_blocks("ini")
        experiment = parse_config(write_config(tmp_path / "readme.ini", body))
        assert (experiment.data.source, experiment.flow.source) == ("synth", "ground-truth")
        assert [(plan.features, plan.kernel) for plan in experiment.layers] == [(4, 3)]

    def test_python_blocks_run(self, capsys):
        namespace = {}
        for block in readme_blocks("python"):
            exec(block, namespace)
        assert capsys.readouterr().out
