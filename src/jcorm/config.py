"""Scenario configuration and the flat key=value config file format.

All physical quantities are stored in SI units (meters, seconds, hertz,
watts, bits). dB/dBm figures are converted to linear scale once, at
construction, through the ``*_db`` / ``*_dbm`` fields. Data volumes are
bits throughout; 1 Mbit = 1e6 bits and 1 GB = 8e9 bits.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field


MBIT = 1e6          # bits
GBYTE = 8e9         # bits
LIGHT_SPEED = 3e8   # m/s
# Cap on omega times the largest horizon energy. Utilities stay within it,
# so the squares that the std aggregate sums over seeds stay finite.
MAX_ENERGY_COST_BITS = 1e150


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
        if self.seed is not None and self.seed < 0:
            raise ConfigError("ga_seed must be >= 0")


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
        for key, (owner, name, declared) in CONFIG_KEYS.items():
            value = getattr(getattr(self, owner) if owner else self, name)
            if declared == "float":
                if not math.isfinite(value):
                    raise ConfigError(f"{key} must be finite")
            elif declared.startswith("int") and not (
                    isinstance(value, numbers.Integral)
                    or (value is None and declared == "int | None")):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        for name, to_linear in (("ref_gain_db", db_to_linear),
                                ("antenna_gain_db", db_to_linear),
                                ("noise_dbm", dbm_to_watt)):
            try:
                linear = to_linear(getattr(self, name))
            except OverflowError:
                linear = math.inf
            if not 0.0 < linear < math.inf:
                raise ConfigError(f"{name} is out of range: its linear value "
                                  "overflows or underflows to 0")
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
        if not 0.0 <= self.elevation_deg < 90.0:
            raise ConfigError("elevation_deg must lie in [0, 90)")
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
        # the most energy a run can spend: every UAV's radios at full power
        # through every slot (the DS uplink must finish within the slot),
        # plus the largest DS load computed at the faster CPU's full speed
        cpu_hz = max(self.uav_cpu_hz, self.leo_cpu_hz)
        e_max = self.num_uavs * self.num_slots * (
            (self.pmax_w + self.dt_uplink_power_w) * self.slot_seconds
            + self.cycles_per_bit * self.switch_cap * self.k_sens_max
            * self.ds_size_max_bits * cpu_hz * cpu_hz)
        if self.omega * e_max > MAX_ENERGY_COST_BITS:
            raise ConfigError(
                f"omega = {self.omega:g} prices the largest horizon energy "
                f"({e_max:.3g} J) above {MAX_ENERGY_COST_BITS:g} bits")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
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
        d_sat = model.uav_sat_distance(self.sat_altitude_m, self.earth_radius_m,
                                       self.elevation_rad)
        try:
            g_sat = model.uav_leo_gain(d_sat, self.ref_gain, self.antenna_gain,
                                       self.sat_ref_distance_m)
        except OverflowError:
            g_sat = math.inf
        if not 0.0 < g_sat < math.inf:
            raise ConfigError("the satellite link gain (ref_gain_db, antenna_gain_db, "
                              "sat_ref_distance_m) overflows or underflows to 0")

    def copy(self, **overrides) -> "ScenarioConfig":
        cfg = dataclasses.replace(
            self, tol=dataclasses.replace(self.tol), ga=dataclasses.replace(self.ga))
        for key, value in overrides.items():
            set_field(cfg, key, value)
        return cfg


# ---------------------------------------------------------------------------
# flat key=value config files
# ---------------------------------------------------------------------------

def _as_int(value) -> int:
    # integers and digit strings stay exact; a whole float such as 4.0 or
    # 1e3 converts, anything else (2.5, inf, nan, six) raises ValueError
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            value = float(value)
    if isinstance(value, numbers.Integral) or float(value).is_integer():
        return int(value)
    raise ValueError(value)


# declared field type -> coercion of a value given for that field
_COERCE = {"float": float, "int": _as_int, "str": str,
           "int | None": lambda v: None if v is None or str(v).lower() == "none" else _as_int(v)}

# flat key -> (sub-config attribute, field name, declared type), read from the
# dataclass annotations: scenario and tolerance fields under their own names,
# GA fields with the ``ga_`` prefix
CONFIG_KEYS = {prefix + f.name: (owner, f.name, f.type)
               for owner, prefix, cls in (("", "", ScenarioConfig),
                                          ("tol", "", ToleranceConfig),
                                          ("ga", "ga_", GaConfig))
               for f in dataclasses.fields(cls) if f.name not in ("tol", "ga")}


def coerce(key: str, value):
    """``value`` typed for the flat key ``key`` as its field declares: any
    real number for a float key, an exact integer for an int key (a digit
    string, an integer, or a whole float), a string as given, and None or
    ``none`` for ``ga_seed``. Raises ConfigError otherwise."""
    if key not in CONFIG_KEYS:
        raise ConfigError(f"unknown configuration key {key!r}")
    try:
        return _COERCE[CONFIG_KEYS[key][2]](value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"cannot parse value {value!r} for key {key!r}") from None


def set_field(cfg: ScenarioConfig, key: str, value) -> None:
    """Assign one flat key on a config, coerced to the field's declared
    type and routed to the tolerance or GA sub-config where it belongs.
    Unknown keys and unparsable values raise ConfigError."""
    value = coerce(key, value)
    owner, name, _ = CONFIG_KEYS[key]
    setattr(getattr(cfg, owner) if owner else cfg, name, value)


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
        set_field(cfg, key.strip(), raw.strip())
    cfg.validate()
    return cfg


def load_config(path: str, base: ScenarioConfig | None = None) -> ScenarioConfig:
    """Read a flat config file (see load_config_text for the format)."""
    with open(path, "r", encoding="utf-8") as fh:
        return load_config_text(fh.read(), base=base, origin=path)
