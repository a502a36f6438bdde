"""Scenario configuration and the flat key=value config file format.

All physical quantities are stored in SI units (meters, seconds, hertz,
watts, bits). dB/dBm figures are converted to linear scale once, at
construction, through the ``*_db`` / ``*_dbm`` fields. Data volumes are
bits throughout; 1 Mbit = 1e6 bits and 1 GB = 8e9 bits.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field


MBIT = 1e6          # bits
GBYTE = 8e9         # bits
LIGHT_SPEED = 3e8   # m/s


class ConfigError(ValueError):
    """Bad configuration: unknown key, unparsable value, or invalid combination."""


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watt(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) * 1e-3


ALGORITHMS = ("jcorm", "atsm", "ga", "no-offload")
SOLVER_MODES = ("strict", "paper-relaxed")
PLACEMENTS = ("grid", "uniform")


@dataclass
class ToleranceConfig:
    """Iteration cap and convergence threshold for the slot solver."""

    i_max: int = 50            # alternating-optimization passes per slot
    tau_outer: float = 0.01    # slot-objective change, Mbit-normalized

    def validate(self) -> None:
        if self.i_max < 1:
            raise ConfigError("i_max must be >= 1")
        if self.tau_outer <= 0:
            raise ConfigError("tau_outer must be > 0")


@dataclass
class GaConfig:
    """Hyperparameters of the genetic-algorithm baseline."""

    population: int = 60
    generations: int = 100
    crossover_rate: float = 0.9
    mutation_rate: float = 0.1
    mutation_sigma_frac: float = 0.05  # Gaussian sigma as fraction of box width
    elitism: int = 2
    penalty_weight: float = 1e3
    tournament: int = 3
    seed: int | None = None            # None: reuse the scenario seed

    def validate(self) -> None:
        if self.population < 1:
            raise ConfigError("ga population must be >= 1")
        if self.generations < 0:
            raise ConfigError("ga generations must be >= 0")
        for name in ("crossover_rate", "mutation_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"ga {name} must lie in [0, 1]")
        if self.mutation_sigma_frac <= 0:
            raise ConfigError("ga mutation_sigma_frac must be > 0")
        if self.elitism < 0:
            raise ConfigError("ga elitism must be >= 0")
        if self.tournament < 1:
            raise ConfigError("ga tournament must be >= 1")
        if self.penalty_weight < 0:
            raise ConfigError("ga penalty_weight must be >= 0")


@dataclass
class ScenarioConfig:
    """Full description of one experiment scenario.

    Defaults reproduce the headline maritime data-collection setup:
    six UAVs over a 2x2 km sea area, a 780 km LEO satellite at 20 deg
    minimum elevation, 10 s slots, and the standard power/compute/storage
    constants.
    """

    # fleet and area
    num_uavs: int = 6
    area_x_m: float = 2000.0
    area_y_m: float = 2000.0
    uav_altitude_m: float = 500.0
    device_disc_radius_m: float = 300.0
    uav_placement: str = "grid"      # grid | uniform
    placement_jitter_m: float = 0.0

    # device population (per UAV, drawn uniformly from the closed ranges)
    k_sens_min: int = 1
    k_sens_max: int = 5
    k_tol_min: int = 5
    k_tol_max: int = 10

    # satellite geometry
    sat_altitude_m: float = 780e3
    earth_radius_m: float = 6371e3
    elevation_deg: float = 20.0
    sat_speed_mps: float = 7500.0

    # time structure
    slot_seconds: float = 10.0
    num_slots: int = 10

    # spectrum
    uav_bandwidth_hz: float = 10e6
    leo_bandwidth_hz: float = 40e6
    beta: float = 0.6                # fraction of UAV band given to DS devices

    # radio powers
    device_power_sens_w: float = 0.3
    device_power_tol_w: float = 0.3
    pmax_w: float = 1.0              # UAV DS-uplink transmit power cap
    dt_uplink_power_w: float = 1.0   # UAV DT-uplink transmit power (fixed)

    # channels
    rician_k0: float = 10.0
    pathloss_coeff: float = 1.0
    pathloss_exp: float = 2.0
    ref_gain_db: float = -30.0       # satellite-link gain at the reference distance
    antenna_gain_db: float = 10.0
    noise_dbm: float = -80.0
    sat_ref_distance_m: float = 1000.0

    # task load (per DS device per slot, uniform in [min, max])
    ds_size_min_bits: float = 1 * MBIT
    ds_size_max_bits: float = 3 * MBIT

    # compute
    cycles_per_bit: float = 400.0
    uav_cpu_hz: float = 2e9
    leo_cpu_hz: float = 10e9
    switch_cap: float = 1e-28        # effective switched capacitance

    # storage (UAV-side DT buffer)
    storage_capacity_bits: float = 1.5 * GBYTE
    storage_initial_free_bits: float = 1.0 * GBYTE

    # objective
    omega: float = 10.0              # energy price in the utility (bits - omega*J)

    # solver selection
    algo: str = "jcorm"
    solver_mode: str = "paper-relaxed"   # strict | paper-relaxed
    seed: int = 0

    tol: ToleranceConfig = field(default_factory=ToleranceConfig)
    ga: GaConfig = field(default_factory=GaConfig)

    # ---- derived, in linear units ----

    @property
    def ref_gain(self) -> float:
        return db_to_linear(self.ref_gain_db)

    @property
    def antenna_gain(self) -> float:
        return db_to_linear(self.antenna_gain_db)

    @property
    def noise_w(self) -> float:
        return dbm_to_watt(self.noise_dbm)

    @property
    def elevation_rad(self) -> float:
        return math.radians(self.elevation_deg)

    def validate(self) -> None:
        for prefix, part in (("", self), ("", self.tol), ("ga_", self.ga)):
            for f in dataclasses.fields(part):
                if f.type == "float" and not math.isfinite(getattr(part, f.name)):
                    raise ConfigError(f"{prefix}{f.name} must be finite")
        if self.num_uavs < 1:
            raise ConfigError("num_uavs must be >= 1")
        if self.area_x_m < 0 or self.area_y_m < 0:
            raise ConfigError("area dimensions must be >= 0")
        if self.uav_altitude_m <= 0:
            raise ConfigError("uav_altitude_m must be > 0")
        if self.device_disc_radius_m < 0:
            raise ConfigError("device_disc_radius_m must be >= 0")
        if self.uav_placement not in PLACEMENTS:
            raise ConfigError(f"uav_placement must be one of {PLACEMENTS}")
        if not (1 <= self.k_sens_min <= self.k_sens_max):
            raise ConfigError("need 1 <= k_sens_min <= k_sens_max")
        if not (1 <= self.k_tol_min <= self.k_tol_max):
            raise ConfigError("need 1 <= k_tol_min <= k_tol_max")
        if self.sat_altitude_m <= 0 or self.earth_radius_m <= 0:
            raise ConfigError("satellite geometry lengths must be > 0")
        if not 0.0 <= self.elevation_deg <= 90.0:
            raise ConfigError("elevation_deg must lie in [0, 90]")
        if self.sat_speed_mps <= 0:
            raise ConfigError("sat_speed_mps must be > 0")
        if self.slot_seconds <= 0:
            raise ConfigError("slot_seconds must be > 0")
        if self.num_slots < 0:
            raise ConfigError("num_slots must be >= 0")
        if self.uav_bandwidth_hz <= 0 or self.leo_bandwidth_hz <= 0:
            raise ConfigError("bandwidths must be > 0")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError("beta must lie in [0, 1]")
        for name in ("device_power_sens_w", "device_power_tol_w",
                     "pmax_w", "dt_uplink_power_w"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.rician_k0 < 0:
            raise ConfigError("rician_k0 must be >= 0")
        if self.pathloss_coeff <= 0 or self.pathloss_exp <= 0:
            raise ConfigError("path loss parameters must be > 0")
        if self.sat_ref_distance_m <= 0:
            raise ConfigError("sat_ref_distance_m must be > 0")
        if not 0.0 <= self.ds_size_min_bits <= self.ds_size_max_bits:
            raise ConfigError("need 0 <= ds_size_min_bits <= ds_size_max_bits")
        if self.cycles_per_bit <= 0:
            raise ConfigError("cycles_per_bit must be > 0")
        if self.uav_cpu_hz <= 0 or self.leo_cpu_hz <= 0:
            raise ConfigError("CPU frequencies must be > 0")
        if self.switch_cap <= 0:
            raise ConfigError("switch_cap must be > 0")
        if self.storage_capacity_bits < 0:
            raise ConfigError("storage_capacity_bits must be >= 0")
        if not 0 <= self.storage_initial_free_bits <= self.storage_capacity_bits:
            raise ConfigError("storage_initial_free_bits must lie in [0, capacity]")
        if self.omega < 0:
            raise ConfigError("omega must be >= 0")
        if self.algo not in ALGORITHMS:
            raise ConfigError(f"algo must be one of {ALGORITHMS}")
        if self.solver_mode not in SOLVER_MODES:
            raise ConfigError(f"solver_mode must be one of {SOLVER_MODES}")
        self.tol.validate()
        self.ga.validate()
        # the whole horizon must fit inside one satellite visibility window
        from . import model
        t_v = model.visibility_window(self.sat_altitude_m, self.earth_radius_m,
                                      self.elevation_rad, self.sat_speed_mps)
        if self.num_slots * self.slot_seconds > t_v + 1e-9:
            raise ConfigError(
                f"horizon {self.num_slots * self.slot_seconds:.1f} s exceeds the "
                f"satellite visibility window {t_v:.1f} s")

    def copy(self, **overrides) -> "ScenarioConfig":
        cfg = dataclasses.replace(
            self, tol=dataclasses.replace(self.tol), ga=dataclasses.replace(self.ga))
        for key, value in overrides.items():
            set_field(cfg, key, value)
        return cfg


# ---------------------------------------------------------------------------
# flat key=value config files
# ---------------------------------------------------------------------------

_SCENARIO_FIELDS = {f.name: f.type for f in dataclasses.fields(ScenarioConfig)
                    if f.name not in ("tol", "ga")}
_TOL_FIELDS = {f.name for f in dataclasses.fields(ToleranceConfig)}
_GA_FIELDS = {f.name for f in dataclasses.fields(GaConfig)}

_INT_FIELDS = {"num_uavs", "k_sens_min", "k_sens_max", "k_tol_min", "k_tol_max",
               "num_slots", "seed", "i_max",
               "population", "generations", "elitism", "tournament"}
_STR_FIELDS = {"uav_placement", "algo", "solver_mode"}


def _parse_scalar(key: str, raw: str):
    raw = raw.strip()
    if key in _STR_FIELDS:
        return raw
    try:
        if key in _INT_FIELDS:
            v = float(raw)
            if v != int(v):
                raise ValueError
            return int(v)
        return float(raw)
    except (ValueError, OverflowError):   # int(inf) overflows
        raise ConfigError(f"cannot parse value {raw!r} for key {key!r}") from None


def set_field(cfg: ScenarioConfig, key: str, value) -> None:
    """Assign one flat key on a config, routing ga_*/tolerance keys to
    their sub-configs. Unknown keys are errors."""
    if key.startswith("ga_") and key[3:] in _GA_FIELDS:
        setattr(cfg.ga, key[3:], value)
    elif key in _TOL_FIELDS:
        setattr(cfg.tol, key, value)
    elif key in _SCENARIO_FIELDS:
        setattr(cfg, key, value)
    else:
        raise ConfigError(f"unknown configuration key {key!r}")


def load_config_text(source: str, base: ScenarioConfig | None = None,
                     origin: str = "<config>") -> ScenarioConfig:
    """Parse the flat config format from a string: one `key = value` per
    line, `#` comments. Unknown keys raise ConfigError. The result is
    validated."""
    cfg = (base or ScenarioConfig()).copy()
    for lineno, line in enumerate(source.splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
        key, raw = text.split("=", 1)
        key = key.strip()
        if key == "ga_seed" and raw.strip().lower() == "none":
            cfg.ga.seed = None
            continue
        # ga_* keys look up their scalar type under the bare GA field name
        scalar_name = key[3:] if key.startswith("ga_") and key[3:] in _GA_FIELDS else key
        set_field(cfg, key, _parse_scalar(scalar_name, raw))
    cfg.validate()
    return cfg


def load_config(path: str, base: ScenarioConfig | None = None) -> ScenarioConfig:
    """Read a flat config file (see load_config_text for the format)."""
    with open(path, "r", encoding="utf-8") as fh:
        return load_config_text(fh.read(), base=base, origin=path)


def config_to_text(cfg: ScenarioConfig) -> str:
    """Serialize a config back to the flat format (round-trips with load_config)."""
    lines = []
    for f in dataclasses.fields(ScenarioConfig):
        if f.name in ("tol", "ga"):
            continue
        lines.append(f"{f.name} = {getattr(cfg, f.name)}")
    for f in dataclasses.fields(ToleranceConfig):
        lines.append(f"{f.name} = {getattr(cfg.tol, f.name)}")
    for f in dataclasses.fields(GaConfig):
        value = getattr(cfg.ga, f.name)
        lines.append(f"ga_{f.name} = {'none' if value is None else value}")
    return "\n".join(lines) + "\n"
