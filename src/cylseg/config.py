"""Run configuration: flat ``key = value`` sections, strictly validated.

Unknown sections or keys are hard errors so a typo never silently falls
back to a default. Every section but ``[labels]`` and ``[labelmap]`` fills a
dataclass whose field names and defaults are its keys and defaults; a grid
tuple takes one key per element (``_TUPLE_KEYS``). ``[labelmap]`` is the one
free-form block: each entry maps a raw dataset label id to a training id (or
``ignore``). Checkpoint headers are written and read back here too.
"""

from __future__ import annotations

import configparser
import math
import os
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import Optional, Tuple

from .partition import DEFAULT_DISTANCE_EDGES, CubicGridSpec, CylGridSpec
from .pointcloud import LabelMap, identity_label_map

BLOCK_VARIANTS = ("regular", "asym1d", "asym")


class ConfigError(Exception):
    """Invalid or malformed run configuration."""


@dataclass
class NetworkConfig:
    num_classes: int
    grid: CylGridSpec = field(default_factory=CylGridSpec)
    base_channels: int = 8
    stages: int = 2
    block_variant: str = "asym"
    point_mlp_widths: Tuple[int, ...] = (32,)
    leaky_slope: float = 0.1

    def __post_init__(self):
        self.point_mlp_widths = tuple(int(w) for w in self.point_mlp_widths)
        if self.num_classes < 2:
            raise ValueError("num_classes must be at least 2")
        if self.base_channels < 1 or self.stages < 1:
            raise ValueError("base_channels and stages must be positive")
        if self.block_variant not in BLOCK_VARIANTS:
            raise ValueError(f"block_variant must be one of {BLOCK_VARIANTS}")
        if any(w < 1 for w in self.point_mlp_widths):
            raise ValueError("point_mlp_widths must be positive")
        if not 0.0 <= self.leaky_slope <= 1.0:
            raise ValueError("leaky_slope must be between 0 and 1")
        if self.grid.resolution[2] % (2**self.stages) != 0:
            raise ValueError("grid height bins must be divisible by 2**stages")


@dataclass
class DataConfig:
    kind: str = "synthetic"
    train_scenes: int = 12
    val_scenes: int = 4
    points: int = 4096
    seed: int = 0
    max_range: float = 50.0
    scans: Optional[str] = None
    labels: Optional[str] = None


@dataclass
class TrainConfig:
    epochs: int = 10
    lr: float = 1e-3
    seed: int = 0


@dataclass
class StatsConfig:
    scenes: int = 20
    points: int = 131072
    seed: int = 0
    edges: Tuple[float, ...] = tuple(DEFAULT_DISTANCE_EDGES)


_SECTIONS = ("grid", "cubic", "network", "labels", "labelmap", "data", "train", "stats")

# The INI keys of each grid tuple field, one per element, in order.
_TUPLE_KEYS = {
    "grid": {
        "rho_range": ("rho_min", "rho_max"),
        "z_range": ("z_min", "z_max"),
        "resolution": ("radius_bins", "azimuth_bins", "height_bins"),
    },
    "cubic": {
        "x_range": ("x_min", "x_max"),
        "y_range": ("y_min", "y_max"),
        "z_range": ("z_min", "z_max"),
        "resolution": ("x_bins", "y_bins", "z_bins"),
    },
}


@dataclass
class RunConfig:
    network: NetworkConfig
    label_map: LabelMap
    cubic: CubicGridSpec = field(default_factory=CubicGridSpec)
    ignore_id: int = 255
    data: DataConfig = field(default_factory=DataConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    stats: StatsConfig = field(default_factory=StatsConfig)
    path: Optional[str] = None  # the file it was read from

    @property
    def grid(self) -> CylGridSpec:
        return self.network.grid


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


_SCALARS = {int: int, float: _finite, str: str}


def _converter(hint):
    """Raw string -> value for a field type; ``Tuple[T, ...]`` is comma separated."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        element = _SCALARS[args[0]]
        return lambda raw: tuple(element(v) for v in raw.split(",") if v.strip())
    return _SCALARS[args[0] if args else hint]  # Optional[str] reads as str


def _take(section, keys, key, conv, default):
    """Convert and consume ``keys[key]``; if absent, ``default`` unless MISSING."""
    if key not in keys:
        if default is MISSING:
            raise ConfigError(f"[{section}] {key} is required")
        return default
    raw = keys.pop(key)
    try:
        return conv(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from None


def _reject_unknown(section, keys):
    if keys:
        raise ConfigError(f"unknown key(s) in [{section}]: {', '.join(map(repr, sorted(keys)))}")


def _read(section, keys: dict, cls, required=False, **given):
    """Build dataclass ``cls`` from a section's raw values, consuming ``keys``.

    An absent key keeps the field's default unless ``required``; ``given``
    supplies the fields that are not keys.
    """
    hints = typing.get_type_hints(cls)
    values = dict(given)
    for f in fields(cls):
        if f.name in given:
            continue
        default = MISSING if required else f.default
        split = _TUPLE_KEYS.get(section, {}).get(f.name)
        if split:
            conv = _SCALARS[typing.get_args(hints[f.name])[0]]
            defaults = [MISSING] * len(split) if default is MISSING else default
            values[f.name] = tuple(
                _take(section, keys, key, conv, d) for key, d in zip(split, defaults)
            )
        else:
            values[f.name] = _take(section, keys, f.name, _converter(hints[f.name]), default)
    _reject_unknown(section, keys)
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"[{section}]: {exc}") from None


def _ini_sections(text: str, source, known) -> dict:
    """Section name -> {key: raw value}; rejects sections not in ``known``."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keys stay verbatim; labelmap keys are numbers
    try:
        cp.read_string(text, str(source))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {source}: {' '.join(str(exc).split())}") from None
    for section in cp.sections():
        if section not in known:
            raise ConfigError(f"unknown section {section!r}")
    return {section: dict(cp[section]) for section in cp.sections()}


def _items(section, obj):
    """(key, value) pairs of a dataclass as ``section`` spells them."""
    split = _TUPLE_KEYS.get(section, {})
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.name in split:
            yield from zip(split[f.name], value)
        elif not is_dataclass(value):
            yield f.name, value


def network_header(config: NetworkConfig) -> str:
    """Checkpoint header: ``key = value`` lines, the [network] keys then the [grid] keys."""
    lines = []
    for key, value in [*_items("network", config), *_items("grid", config.grid)]:
        text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        lines.append(f"{key} = {text}\n")
    return "".join(lines)


def parse_network_header(text: str) -> NetworkConfig:
    """Read ``network_header``'s text back; every key is required, none may repeat."""
    keys = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        key, sep, value = (part.strip() for part in line.partition("="))
        where = f"cannot parse checkpoint header [line {lineno}]"
        if not sep or not key:
            raise ConfigError(f"{where}: expected 'key = value', got {line!r}")
        if key in keys:
            raise ConfigError(f"{where}: key {key!r} repeats")
        keys[key] = value
    grid_keys = [key for split in _TUPLE_KEYS["grid"].values() for key in split]
    grid_values = {key: keys.pop(key) for key in grid_keys if key in keys}
    grid = _read("grid", grid_values, CylGridSpec, required=True)
    return _read("network", keys, NetworkConfig, required=True, grid=grid)


def _train_id(value: str, ignore_id: int) -> int:
    if value.strip().lower() == "ignore":
        return ignore_id
    return int(value)


def load_config(path) -> RunConfig:
    """Parse and validate a configuration file into a RunConfig."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    sections = _ini_sections(text, path, _SECTIONS)

    grid = _read("grid", sections.get("grid", {}), CylGridSpec)
    # Without an explicit [cubic] section the comparison grid covers the
    # cylinder's bounding box with the same cell count, so stats stay an
    # apples-to-apples contrast on custom grids too.
    if "cubic" in sections:
        cubic = _read("cubic", sections["cubic"], CubicGridSpec)
    else:
        r = grid.rho_range[1]
        cubic = CubicGridSpec((-r, r), (-r, r), grid.z_range, grid.resolution)

    labels = sections.get("labels", {})
    ignore_id = _take("labels", labels, "ignore_id", int, RunConfig.ignore_id)
    _reject_unknown("labels", labels)

    network = _read("network", sections.get("network", {}), NetworkConfig, grid=grid)

    try:
        if "labelmap" in sections:
            mapping = {
                int(raw): _train_id(value, ignore_id)
                for raw, value in sections["labelmap"].items()
            }
            label_map = LabelMap(mapping, network.num_classes, ignore_id)
        else:  # the raw ids are the training ids
            label_map = identity_label_map(network.num_classes, ignore_id)
    except ValueError as exc:
        section = "labelmap" if "labelmap" in sections else "labels"
        raise ConfigError(f"[{section}]: {exc}") from None

    data = _read("data", sections.get("data", {}), DataConfig)
    if data.kind not in ("synthetic", "files"):
        raise ConfigError(f"[data] kind must be 'synthetic' or 'files', got {data.kind!r}")
    if data.kind == "files" and not data.scans:
        raise ConfigError("[data] kind = files requires a scans directory")
    if data.kind == "synthetic" and (data.train_scenes < 1 or data.points < 64):
        raise ConfigError("[data] synthetic needs train_scenes >= 1 and points >= 64")

    train = _read("train", sections.get("train", {}), TrainConfig)
    if train.epochs < 1 or train.lr <= 0:
        raise ConfigError("[train] epochs must be >= 1 and lr > 0")

    stats = _read("stats", sections.get("stats", {}), StatsConfig)
    edges = stats.edges
    if len(edges) < 2 or any(b <= a for a, b in zip(edges, edges[1:])):
        raise ConfigError("[stats] edges must be at least two increasing numbers")
    if stats.scenes < 1 or stats.points < 64:
        raise ConfigError("[stats] scenes must be >= 1 and points >= 64")

    return RunConfig(
        network=network,
        cubic=cubic,
        label_map=label_map,
        ignore_id=ignore_id,
        data=data,
        train=train,
        stats=stats,
        path=os.fspath(path),
    )
