"""Run configuration: flat ``key = value`` sections, strictly validated.

Unknown sections or keys are hard errors so a typo never silently falls
back to a default. The ``[labelmap]`` section is the one free-form block:
each entry maps a raw dataset label id to a training id (or ``ignore``).
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, fields
from typing import Optional, Tuple

from .network import NetworkConfig
from .partition import DEFAULT_DISTANCE_EDGES, CubicGridSpec, CylGridSpec
from .pointcloud import LabelMap


class ConfigError(Exception):
    """Invalid or malformed run configuration."""


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


_KNOWN_KEYS = {
    "grid": {"rho_min", "rho_max", "z_min", "z_max", "radius_bins", "azimuth_bins", "height_bins"},
    "cubic": {"x_min", "x_max", "y_min", "y_max", "z_min", "z_max", "x_bins", "y_bins", "z_bins"},
    "network": {
        "num_classes",
        "base_channels",
        "stages",
        "block_variant",
        "point_mlp_widths",
        "leaky_slope",
    },
    "labels": {"ignore_id"},
    "labelmap": None,  # free-form: raw id = train id
    "data": {f.name for f in fields(DataConfig)},
    "train": {f.name for f in fields(TrainConfig)},
    "stats": {f.name for f in fields(StatsConfig)},
}


@dataclass
class RunConfig:
    network: NetworkConfig
    cubic: CubicGridSpec = field(default_factory=CubicGridSpec)
    label_map: Optional[LabelMap] = None
    ignore_id: int = 255
    data: DataConfig = field(default_factory=DataConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    stats: StatsConfig = field(default_factory=StatsConfig)

    @property
    def grid(self) -> CylGridSpec:
        return self.network.grid


def _parse(conv, section, key, raw):
    try:
        return conv(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from None


def _section_reader(cp, section):
    keys = dict(cp[section]) if cp.has_section(section) else {}

    def get(key, default, conv=str):
        if key not in keys:
            return default
        return _parse(conv, section, key, keys.pop(key))

    return get


def _read_section(cp, section, cls, **convs):
    """Build dataclass ``cls`` from a section; absent keys keep its defaults."""
    get = _section_reader(cp, section)
    defaults = cls()
    values = {}
    for f in fields(cls):
        default = getattr(defaults, f.name)
        conv = convs.get(f.name, str if default is None else type(default))
        values[f.name] = get(f.name, default, conv)
    return cls(**values)


def _train_id(value: str, ignore_id: int) -> int:
    if value.strip().lower() == "ignore":
        return ignore_id
    return int(value)


def load_config(path) -> RunConfig:
    """Parse and validate a configuration file into a RunConfig."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keys stay verbatim; labelmap keys are numbers
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except (configparser.Error, OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None

    for section in cp.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        allowed = _KNOWN_KEYS[section]
        if allowed is not None:
            surplus = sorted(set(cp[section]) - allowed)
            if surplus:
                raise ConfigError(f"unknown key(s) in [{section}]: {', '.join(surplus)}")

    get = _section_reader(cp, "grid")
    try:
        grid = CylGridSpec(
            rho_range=(get("rho_min", 0.0, float), get("rho_max", 50.0, float)),
            z_range=(get("z_min", -4.0, float), get("z_max", 2.0, float)),
            resolution=(
                get("radius_bins", 480, int),
                get("azimuth_bins", 360, int),
                get("height_bins", 32, int),
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"[grid]: {exc}") from None

    # Without an explicit [cubic] section the comparison grid covers the
    # cylinder's bounding box with the same cell count, so stats stay an
    # apples-to-apples contrast on custom grids too.
    if cp.has_section("cubic"):
        get = _section_reader(cp, "cubic")
        try:
            cubic = CubicGridSpec(
                x_range=(get("x_min", -50.0, float), get("x_max", 50.0, float)),
                y_range=(get("y_min", -50.0, float), get("y_max", 50.0, float)),
                z_range=(get("z_min", -4.0, float), get("z_max", 2.0, float)),
                resolution=(
                    get("x_bins", 240, int),
                    get("y_bins", 240, int),
                    get("z_bins", 96, int),
                ),
            )
        except ValueError as exc:
            raise ConfigError(f"[cubic]: {exc}") from None
    else:
        rho_max = grid.rho_range[1]
        cubic = CubicGridSpec(
            x_range=(-rho_max, rho_max),
            y_range=(-rho_max, rho_max),
            z_range=grid.z_range,
            resolution=grid.resolution,
        )

    get = _section_reader(cp, "labels")
    ignore_id = get("ignore_id", 255, int)

    get = _section_reader(cp, "network")
    if not cp.has_section("network") or not cp.has_option("network", "num_classes"):
        raise ConfigError("[network] num_classes is required")
    widths_raw = get("point_mlp_widths", "32")
    try:
        widths = tuple(int(w) for w in str(widths_raw).split(",") if w.strip())
    except ValueError:
        raise ConfigError(f"[network] point_mlp_widths = {widths_raw!r}") from None
    try:
        network = NetworkConfig(
            num_classes=get("num_classes", None, int),
            grid=grid,
            base_channels=get("base_channels", 8, int),
            stages=get("stages", 2, int),
            block_variant=get("block_variant", "asym"),
            point_mlp_widths=widths,
            leaky_slope=get("leaky_slope", 0.1, float),
        )
    except ValueError as exc:
        raise ConfigError(f"[network]: {exc}") from None

    label_map = None
    if cp.has_section("labelmap"):
        try:
            mapping = {
                int(raw): _train_id(value, ignore_id) for raw, value in cp["labelmap"].items()
            }
            label_map = LabelMap(mapping, network.num_classes, ignore_id)
        except ValueError as exc:
            raise ConfigError(f"[labelmap]: {exc}") from None

    data = _read_section(cp, "data", DataConfig)
    if data.kind not in ("synthetic", "files"):
        raise ConfigError(f"[data] kind must be 'synthetic' or 'files', got {data.kind!r}")
    if data.kind == "files" and not data.scans:
        raise ConfigError("[data] kind = files requires a scans directory")
    if data.kind == "synthetic" and (data.train_scenes < 1 or data.points < 64):
        raise ConfigError("[data] synthetic needs train_scenes >= 1 and points >= 64")

    train = _read_section(cp, "train", TrainConfig)
    if train.epochs < 1 or train.lr <= 0:
        raise ConfigError("[train] epochs must be >= 1 and lr > 0")

    def _edges(raw):
        vals = tuple(float(v) for v in raw.split(",") if v.strip())
        if len(vals) < 2 or any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("edges must be at least two increasing numbers")
        return vals

    stats = _read_section(cp, "stats", StatsConfig, edges=_edges)
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
    )
