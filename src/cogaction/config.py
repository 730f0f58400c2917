"""Experiment configuration: flat INI-style files driving the CLI.

Format: ``[section]`` headers with ``key = value`` pairs, no nesting.  A
``[data]`` section selects the clip source, ``[flow]`` the velocity source,
``[train]`` the shared training settings, one ``[layerZ]`` section per layer
(consecutive from ``[layer1]``) with the layer's feature count and kernel plus
optional overrides of any ``[train]`` key, and an optional ``[output]``
section.  Each layer becomes one ``LayerPlan``: ``mode``, ``init_scale`` and
the layer's seed set its starting bank, the other keys its ``TrainConfig``.  An
omitted key takes the field default of the value type it sets.  A section
accepts only the keys that some code reads: ``[flow]`` reads ``alpha`` and
``iters`` only for horn-schunck and ``velocity`` only for constant, ``[data]``
reads ``seed`` only for random-texture.

Randomness: every layer's tap initialization derives from the single
``[train] seed`` as ``seed XOR layer-index``, feeding a PCG64 stream.
"""

import configparser
import math
from dataclasses import dataclass
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
    """Typed accessors over one INI section, used as a context manager: a
    ``ValueError`` raised in the block, by an accessor, a value type or a
    check, leaves it as a ``ConfigError`` that names the section, and a block
    that ends cleanly rejects every key it did not read."""

    def __init__(self, name: str, items: dict[str, str]):
        self.name = name
        self.items = items
        self.seen: set[str] = set()

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, traceback):
        if exc is None:
            unknown = sorted(set(self.items) - self.seen)
            if unknown:
                raise ConfigError(f"[{self.name}] unknown key '{unknown[0]}'")
        elif isinstance(exc, ValueError) and not isinstance(exc, ConfigError):
            raise ConfigError(f"[{self.name}] {exc}") from None

    def _read(self, key: str, default, required: bool, convert, expected: str):
        """The key's value through ``convert``, or ``default`` when absent."""
        self.seen.add(key)
        if key not in self.items:
            if required:
                raise ValueError(f"missing required key '{key}'")
            return default
        value = self.items[key]
        try:
            return convert(value)
        except (KeyError, ValueError) as exc:
            why = "not a finite number" if isinstance(exc, _NotFinite) else expected
            raise ValueError(f"{key} = {value!r}: {why}") from None

    def text(self, key: str, default=None, required=False, choices=None):
        value = self._read(key, default, required, str, "")
        if value is not None and choices is not None and value not in choices:
            raise ValueError(f"{key} = {value!r}: expected one of {sorted(choices)}")
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


def _layer_settings(section: _Section, base: TrainConfig, mode: str, init_scale: float):
    """A TrainConfig, mode and init scale: each key of ``section`` read over the given one."""
    mode = section.text("mode", mode, choices=set(MODES))
    init_scale = section.real("init_scale", init_scale)
    config = TrainConfig(
        step_size=section.real("step_size", base.step_size),
        steps=section.integer("steps", base.steps),
        lam=Multipliers(motion=section.real("lambda_m", base.lam.motion),
                        spatial=section.real("lambda_p", base.lam.spatial),
                        temporal=section.real("lambda_k", base.lam.temporal),
                        constraint=section.real("lambda_c", base.lam.constraint)),
        dtau=section.real("dtau", base.dtau), window=section.integer("window", base.window),
        weighting=section.text("weights", base.weighting))
    return config, mode, init_scale


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

    with sections["data"] as data_sec:
        source = data_sec.text("source", required=True, choices={"synth", "files"})
        if source == "synth":
            kind = data_sec.text("pattern", required=True, choices=PATTERN_KINDS)
            pattern = PatternSpec(kind, data_sec.integer("period", PatternSpec.period),
                                  seed=(data_sec.integer("seed", PatternSpec.seed)
                                        if kind == "random-texture" else PatternSpec.seed),
                                  channels=data_sec.integer("channels", PatternSpec.channels))
            data = DataSpec("synth", pattern=pattern,
                            frames=data_sec.integer("frames", required=True),
                            height=data_sec.integer("height", required=True),
                            width=data_sec.integer("width", required=True),
                            velocity=data_sec.vector2("velocity", DataSpec.velocity))
            check_synth_geometry(data.velocity, data.frames, data.height, data.width)
        else:
            pattern_str = data_sec.text("path_pattern", required=True)
            first = expand_path_pattern(pattern_str, 0)
            if not first.exists():
                raise ValueError(f"path_pattern: first frame {first} does not exist")
            data = DataSpec("files", path_pattern=pattern_str)

    with sections.get("flow", _Section("flow", {})) as flow_sec:
        flow = FlowSpec(flow_sec.text("source", default="ground-truth",
                                      choices={"ground-truth", "horn-schunck", "constant"}))
        if flow.source == "ground-truth" and data.source != "synth":
            raise ValueError("source = ground-truth requires [data] source = synth")
        if flow.source == "horn-schunck":
            flow = FlowSpec(flow.source, alpha=flow_sec.real("alpha", flow.alpha),
                            iters=flow_sec.integer("iters", flow.iters))
            check_horn_schunck(flow.alpha, flow.iters)
        elif flow.source == "constant":
            flow = FlowSpec(flow.source, velocity=flow_sec.vector2("velocity", flow.velocity))

    with sections.get("train", _Section("train", {})) as train_sec:
        file_seed = train_sec.integer("seed", 0)  # read even when overridden
        master_seed = file_seed if seed_override is None else seed_override
        if master_seed < 0:
            where = "[train] seed" if seed_override is None else "--seed"
            raise ConfigError(f"{where} must be >= 0, got {master_seed}")
        shared = _layer_settings(train_sec, TrainConfig(), LayerPlan.mode, LayerPlan.init_scale)

    layers: list[LayerPlan] = []
    index = 1
    while f"layer{index}" in sections:
        with sections[f"layer{index}"] as sec:
            features = sec.integer("n", required=True)
            kernel = sec.integer("k", required=True)
            config, mode, init_scale = _layer_settings(sec, *shared)
            # a file sequence's frame count is known only once it is loaded
            if data.source == "synth" and config.window is not None and config.window > data.frames:
                raise ValueError(f"window = {config.window} exceeds the clip's "
                                 f"{data.frames} frames")
            layers.append(LayerPlan(features, kernel, config, mode=mode,
                                    seed=master_seed ^ index, init_scale=init_scale))
        index += 1
    if not layers:
        raise ConfigError("no [layer1] section: at least one layer is required")
    known = {"data", "flow", "train", "output"} | {f"layer{i}" for i in range(1, index)}
    for name in sections:
        if name not in known:
            raise ConfigError(f"layer sections must be consecutive from layer1; found [{name}]"
                              if name.startswith("layer") else f"unknown section [{name}]")

    with sections.get("output", _Section("output", {})) as out_sec:
        out_dir = out_sec.text("dir", ExperimentConfig.out_dir)
        if not out_dir:
            raise ValueError("dir must name a directory, got ''")
        save_features = out_sec.flag("save_features", ExperimentConfig.save_features)

    return ExperimentConfig(data=data, flow=flow, layers=layers, out_dir=out_dir,
                            save_features=save_features)
