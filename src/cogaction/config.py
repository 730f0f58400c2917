"""Experiment configuration: flat INI-style files driving the CLI.

Format: ``[section]`` headers with ``key = value`` pairs, no nesting.  A
``[data]`` section selects the clip source, ``[flow]`` the velocity source,
``[train]`` the shared training settings, one ``[layerZ]`` section per layer
(consecutive from ``[layer1]``) with the layer's feature count and kernel plus
optional overrides of any ``[train]`` key, and an optional ``[output]``
section.

Randomness: every layer's tap initialization derives from the single
``[train] seed`` as ``seed XOR layer-index``, feeding a PCG64 stream.
"""

import configparser
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .action import Multipliers
from .features import MODES
from .flow import VelocityField, check_horn_schunck, constant_flow, horn_schunck
from .optimizer import LayerPlan, TrainConfig
from .video import (
    PATTERN_KINDS,
    PatternSpec,
    VideoClip,
    check_synth_geometry,
    expand_path_pattern,
    load_image_sequence,
    synth_translating_clip,
)


class ConfigError(ValueError):
    """Configuration file problem; reported with section/key context."""


@dataclass(frozen=True)
class DataSpec:
    source: str                      # "synth" | "files"
    pattern: PatternSpec | None = None
    frames: int = 0
    height: int = 0
    width: int = 0
    velocity: tuple[float, float] = (0.0, 0.0)
    path_pattern: str = ""


@dataclass(frozen=True)
class FlowSpec:
    source: str                      # "ground-truth" | "horn-schunck" | "constant"
    alpha: float = 1.0
    iters: int = 100
    velocity: tuple[float, float] = (0.0, 0.0)


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataSpec
    flow: FlowSpec
    layers: list[LayerPlan]
    out_dir: str = "out"
    save_features: bool = True

    def build_clip(self):
        """Materialize the clip; returns (clip, ground-truth flow or None)."""
        if self.data.source == "synth":
            return synth_translating_clip(self.data.pattern, self.data.velocity,
                                          self.data.frames, self.data.height, self.data.width)
        return load_image_sequence(self.data.path_pattern), None

    def build_flow(self, clip: VideoClip, truth: VelocityField | None) -> VelocityField:
        if self.flow.source == "ground-truth":
            if truth is None:
                raise ConfigError("flow.source: ground-truth requires a synthesized clip")
            return truth
        if self.flow.source == "constant":
            return constant_flow(self.flow.velocity, clip.frames, clip.height, clip.width)
        return horn_schunck(clip, self.flow.alpha, self.flow.iters)


class _NotFinite(ValueError):
    """A number that parses but is infinite or NaN."""


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise _NotFinite
    return value


def _pair(text: str) -> tuple[float, float]:
    first, second = text.split()
    return (_finite(first), _finite(second))


class _Section:
    """Typed accessors over one INI section with key-level error context."""

    def __init__(self, name: str, items: dict[str, str]):
        self.name = name
        self.items = items
        self.seen: set[str] = set()

    def _read(self, key: str, default, required: bool, convert, expected: str):
        """The key's value through ``convert``, or ``default`` when absent."""
        self.seen.add(key)
        if key not in self.items:
            if required:
                raise ConfigError(f"[{self.name}] missing required key '{key}'")
            return default
        value = self.items[key]
        try:
            return convert(value)
        except (KeyError, ValueError) as exc:
            why = "not a finite number" if isinstance(exc, _NotFinite) else expected
            raise ConfigError(f"[{self.name}] {key} = {value!r}: {why}") from None

    def text(self, key: str, default=None, required=False, choices=None):
        value = self._read(key, default, required, str, "")
        if value is not None and choices is not None and value not in choices:
            raise ConfigError(f"[{self.name}] {key} = {value!r}: expected one of {sorted(choices)}")
        return value

    def integer(self, key: str, default=None, required=False):
        return self._read(key, default, required, int, "not an integer")

    def real(self, key: str, default=None, required=False):
        return self._read(key, default, required, _finite, "not a number")

    def flag(self, key: str, default=None):
        states = configparser.ConfigParser.BOOLEAN_STATES
        return self._read(key, default, False, lambda value: states[value.strip().lower()],
                          "not a boolean")

    def vector2(self, key: str, default=None, required=False):
        return self._read(key, default, required, _pair, "expected two numbers")

    def reject_unknown(self):
        unknown = set(self.items) - self.seen
        if unknown:
            raise ConfigError(f"[{self.name}] unknown key '{sorted(unknown)[0]}'")


def _train_settings(section: _Section, defaults: dict) -> dict:
    """Read the TrainConfig-shaped keys of a section, each over its default."""
    return {key: read(key, defaults[key]) for key, read in (
        ("steps", section.integer), ("step_size", section.real), ("dtau", section.real),
        ("lambda_m", section.real), ("lambda_p", section.real), ("lambda_k", section.real),
        ("lambda_c", section.real), ("window", section.integer), ("init_scale", section.real),
        ("mode", partial(section.text, choices=set(MODES))), ("weights", section.text),
    )}


_TRAIN_DEFAULTS = {
    "steps": 100, "step_size": 0.1, "dtau": None, "lambda_m": 1.0, "lambda_p": 1e-3,
    "lambda_k": 1e-3, "lambda_c": 0.0, "window": None, "init_scale": 0.1,
    "mode": "softmax", "weights": "uniform",
}


def _build_train_config(values: dict, seed: int, where: str) -> TrainConfig:
    try:
        lam = Multipliers(motion=values["lambda_m"], spatial=values["lambda_p"],
                          temporal=values["lambda_k"], constraint=values["lambda_c"])
        return TrainConfig(step_size=values["step_size"], steps=values["steps"], lam=lam,
                           mode=values["mode"], dtau=values["dtau"], window=values["window"],
                           seed=seed, init_scale=values["init_scale"],
                           weighting=values["weights"])
    except ValueError as exc:
        raise ConfigError(f"[{where}] {exc}") from None


def parse_config(path, seed_override: int | None = None) -> ExperimentConfig:
    """Parse and validate an experiment file; all referenced paths must exist."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    sections = {name: _Section(name, dict(parser.items(name))) for name in parser.sections()}
    if "data" not in sections:
        raise ConfigError("missing [data] section")

    data_sec = sections["data"]
    source = data_sec.text("source", required=True, choices={"synth", "files"})
    if source == "synth":
        kind = data_sec.text("pattern", required=True, choices=PATTERN_KINDS)
        try:
            pattern = PatternSpec(kind, period=data_sec.integer("period", 8),
                                  seed=data_sec.integer("seed", 0),
                                  channels=data_sec.integer("channels", 1))
        except ValueError as exc:
            raise ConfigError(f"[data] {exc}") from None
        data = DataSpec("synth", pattern=pattern,
                        frames=data_sec.integer("frames", required=True),
                        height=data_sec.integer("height", required=True),
                        width=data_sec.integer("width", required=True),
                        velocity=data_sec.vector2("velocity", (0.0, 0.0)))
        try:
            check_synth_geometry(data.velocity, data.frames, data.height, data.width)
        except ValueError as exc:
            raise ConfigError(f"[data] {exc}") from None
    else:
        pattern_str = data_sec.text("path_pattern", required=True)
        try:
            first = expand_path_pattern(pattern_str, 0)
        except ValueError as exc:
            raise ConfigError(f"[data] {exc}") from None
        if not first.exists():
            raise ConfigError(f"[data] path_pattern: first frame {first} does not exist")
        data = DataSpec("files", path_pattern=pattern_str)
    data_sec.reject_unknown()

    flow_sec = sections.get("flow", _Section("flow", {}))
    flow_source = flow_sec.text("source", default="ground-truth",
                                choices={"ground-truth", "horn-schunck", "constant"})
    flow = FlowSpec(flow_source,
                    alpha=flow_sec.real("alpha", 1.0),
                    iters=flow_sec.integer("iters", 100),
                    velocity=flow_sec.vector2("velocity", (0.0, 0.0)))
    if flow.source == "ground-truth" and data.source != "synth":
        raise ConfigError("[flow] source = ground-truth requires [data] source = synth")
    if flow.source == "horn-schunck":
        try:
            check_horn_schunck(flow.alpha, flow.iters)
        except ValueError as exc:
            raise ConfigError(f"[flow] {exc}") from None
    flow_sec.reject_unknown()

    train_sec = sections.get("train", _Section("train", {}))
    master_seed = train_sec.integer("seed", 0)
    if seed_override is not None:
        master_seed = seed_override
    if master_seed < 0:
        where = "[train] seed" if seed_override is None else "--seed"
        raise ConfigError(f"{where} must be >= 0, got {master_seed}")
    shared = _train_settings(train_sec, _TRAIN_DEFAULTS)
    train_sec.reject_unknown()

    layers: list[LayerPlan] = []
    index = 1
    while f"layer{index}" in sections:
        sec = sections[f"layer{index}"]
        features = sec.integer("n", required=True)
        kernel = sec.integer("k", required=True)
        if features < 2:
            raise ConfigError(f"[layer{index}] n must be >= 2, got {features}")
        if kernel < 1 or kernel % 2 == 0:
            raise ConfigError(f"[layer{index}] k must be odd and >= 1, got {kernel}")
        values = _train_settings(sec, shared)
        sec.reject_unknown()
        config = _build_train_config(values, master_seed ^ index, f"layer{index}")
        # a file sequence's frame count is known only once it is loaded
        if data.source == "synth" and config.window is not None and config.window > data.frames:
            raise ConfigError(f"[layer{index}] window = {config.window} exceeds the clip's "
                              f"{data.frames} frames")
        layers.append(LayerPlan(features, kernel, config))
        index += 1
    if not layers:
        raise ConfigError("no [layer1] section: at least one layer is required")
    known = {"data", "flow", "train", "output"} | {f"layer{i}" for i in range(1, index)}
    for name in sections:
        if name not in known:
            raise ConfigError(f"layer sections must be consecutive from layer1; found [{name}]"
                              if name.startswith("layer") else f"unknown section [{name}]")

    out_sec = sections.get("output", _Section("output", {}))
    out_dir = out_sec.text("dir", "out")
    if not out_dir:
        raise ConfigError("[output] dir must name a directory, got ''")
    save_features = out_sec.flag("save_features", True)
    out_sec.reject_unknown()

    return ExperimentConfig(data=data, flow=flow, layers=layers, out_dir=out_dir,
                            save_features=save_features)
