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
import operator
import sys
from dataclasses import dataclass, field

from . import model


MBIT = 1e6          # bits
GBYTE = 8e9         # bits
LIGHT_SPEED = 3e8   # m/s
# Caps on what validate() derives from several keys, one row each of
# ScenarioConfig.derived_magnitudes. A row capped at FLOAT_MAX need only stay finite. The
# largest horizon energy (J) keeps a run's energy sums finite; omega times it at full power
# keeps the utilities, and the squares that the std aggregate sums, finite. A DS delay is
# its upload plus at most the largest DS load's on-board seconds, so the delays' sums over a
# run and the GA's deadline penalty at its default weight stay finite. omega times the DS
# uplink energy that the candidate decisions of one slot can price, over its UAVs, keeps a
# slot objective and the GA's Mbit sum of them over the slots finite (MAX_ENERGY_J admits
# this energy at omega = 10 on one slot). The GA's weighted penalties of one genome over all
# its slots, in its fitness units (Mbit), keep the fitness finite.
FLOAT_MAX = sys.float_info.max
MAX_ENERGY_J = 1e306
MAX_ENERGY_COST_BITS = 1e150
MAX_ONBOARD_SECONDS = 1e300
MAX_DS_ENERGY_COST_BITS = 1e306
MAX_GA_PENALTY = 1e306
# Caps on the work of one run: UAVs, slots, and UAV-slots (their product).
# At the caps the slowest algorithm, the GA, finishes a run within a minute.
MAX_UAVS = 1024
MAX_SLOTS = 1000
MAX_UAV_SLOTS = 10_000
# the keys that set a device link's SNR, the satellite gain, and the largest energy
DEVICE_LINK_KEYS = ("uav_altitude_m, device_disc_radius_m, pathloss_coeff, pathloss_exp, "
                    "device_power_sens_w, device_power_tol_w, noise_dbm")
SAT_GAIN_KEYS = "ref_gain_db, antenna_gain_db, sat_ref_distance_m, the satellite geometry"
ENERGY_KEYS = ("num_uavs, num_slots, slot_seconds, pmax_w, dt_uplink_power_w, cycles_per_bit, "
               "switch_cap, k_sens_max, ds_size_max_bits, uav_cpu_hz, leo_cpu_hz")


class ConfigError(ValueError):
    """Bad configuration: unknown key, unparsable value, or invalid combination."""


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watt(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) * 1e-3


ALGORITHMS = ("jcorm", "atsm", "ga", "no-offload")
SOLVER_MODES = ("strict", "paper-relaxed")


@dataclass
class ToleranceConfig:
    """Iteration cap and convergence threshold for the slot solver."""

    i_max: int = 50            # alternating-optimization passes per slot
    tau_outer: float = 0.01    # slot-objective change, Mbit-normalized


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


# Caps on the GA's work, all but the tournament draws at the default GA's
# at the size caps, and on a scenario's device draws (README, "Configuration files")
MAX_GA_GENES = GaConfig.population * MAX_UAV_SLOTS
MAX_GA_RUN_GENES = MAX_GA_GENES * (GaConfig.generations + 1)
MAX_GA_PASSES = MAX_SLOTS * (GaConfig.generations + 1)
MAX_GA_DRAWS = 1 << 14
MAX_DEVICE_SLOTS = 1 << 21


@dataclass
class ScenarioConfig:
    """Full description of one experiment scenario.

    Defaults reproduce the headline maritime data-collection setup:
    six UAVs, each over a 300 m disc of devices, a 780 km LEO satellite at
    20 deg minimum elevation, 10 s slots, and the standard
    power/compute/storage constants.
    """

    # fleet; a UAV's position enters no link, only its altitude and disc
    num_uavs: int = 6
    uav_altitude_m: float = 500.0
    device_disc_radius_m: float = 300.0

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

    @property
    def max_ga_penalty_weight(self) -> float:
        """The largest ``ga_penalty_weight`` validate() accepts. Per slot, a
        genome's penalties are at most num_uavs * 1e6 s of deadline excess
        (each capped at 1e6 s), the bits its UAVs' devices request and
        their uplinks ship, in Mbit, each rate at most its band times 1024
        (1 + SNR < 2**1024), and num_uavs * leo_cpu_hz of pool excess in
        GHz. The weight times their sum over the slots stays within
        MAX_GA_PENALTY."""
        bits = 1024.0 * self.slot_seconds * (
            self.num_uavs * (1.0 - self.beta) * self.uav_bandwidth_hz + self.leo_bandwidth_hz)
        penalty = self.num_slots * (self.num_uavs * (1e6 + self.leo_cpu_hz / 1e9) + bits / 1e6)
        return MAX_GA_PENALTY / penalty if penalty else math.inf

    def validate(self) -> None:
        for key, get, declared, (low, high, excluded, text) in _CHECKS:
            value = get(self)
            if declared == "float":
                if not math.isfinite(value):
                    raise ConfigError(f"{key} must be finite")
            elif declared.startswith("int") and not (
                    isinstance(value, numbers.Integral)
                    or (value is None and declared == "int | None")):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
            if text and value is not None and (not low <= value <= high or value == excluded):
                raise ConfigError(f"{key} must {text}")
        for low, high in (("k_sens_min", "k_sens_max"), ("k_tol_min", "k_tol_max"),
                          ("ds_size_min_bits", "ds_size_max_bits"),
                          ("storage_initial_free_bits", "storage_capacity_bits")):
            if getattr(self, low) > getattr(self, high):
                raise ConfigError(f"{low} must be <= {high}")
        for key, choices in (("algo", ALGORITHMS), ("solver_mode", SOLVER_MODES)):
            if getattr(self, key) not in choices:
                raise ConfigError(f"{key} must be one of {choices}")
        for name, to_linear in (("ref_gain_db", db_to_linear), ("antenna_gain_db", db_to_linear),
                                ("noise_dbm", dbm_to_watt)):
            try:
                linear = to_linear(getattr(self, name))
            except OverflowError:
                linear = math.inf
            if not 0.0 < linear < math.inf:
                raise ConfigError(f"{name} is out of range: its linear value "
                                  "overflows or underflows to 0")
        # a silent DS device has rate 0, so its upload never finishes; with
        # no DS band the upload time overflows to inf
        for key, why in (("device_power_sens_w", "cannot upload"),
                         ("beta", "leaves no band to upload")):
            if getattr(self, key) == 0 and self.ds_size_max_bits > 0:
                raise ConfigError(f"{key} = 0 {why} the DS load (ds_size_max_bits > 0)")
        # the device links lie from straight below their UAV to the disc's edge: the
        # farthest distance must stay finite, and the closest must not round to 0,
        # nor its SNR at unit fading overflow (the scenario checks each drawn rate)
        radius, altitude = self.device_disc_radius_m, self.uav_altitude_m
        closest = math.sqrt(altitude * altitude)
        try:
            gain = self.pathloss_coeff * closest ** -self.pathloss_exp if closest else math.inf
        except OverflowError:
            gain = math.inf
        snr = max(self.device_power_sens_w, self.device_power_tol_w) * gain / self.noise_w
        if not (math.sqrt(radius * radius + altitude * altitude) < math.inf and snr < math.inf):
            raise ConfigError(f"{DEVICE_LINK_KEYS}: a device link rounds to a zero or "
                              "infinite distance, or the closest one's gain or SNR overflows")
        try:
            g_sat = model.uav_leo_gain(model.uav_sat_distance(
                self.sat_altitude_m, self.earth_radius_m, self.elevation_rad),
                self.ref_gain, self.antenna_gain, self.sat_ref_distance_m)
        except (OverflowError, ValueError):   # ValueError: the slant range rounds to 0
            g_sat = math.inf
        if not 0.0 < g_sat < math.inf:
            raise ConfigError(f"the satellite link gain ({SAT_GAIN_KEYS}) overflows or "
                              "underflows to 0")
        for what, value, cap in self.derived_magnitudes(g_sat):
            if not value <= cap:   # an int past the float range cannot take .6g
                got = "over 1e308" if type(value) is int and value > FLOAT_MAX else f"{value:.6g}"
                raise ConfigError(f"{what} must be <= {cap!r}, not {got}")

    def derived_magnitudes(self, g_sat: float) -> tuple:
        """(what, value, cap) of each magnitude that validate() derives from several
        keys, given a finite positive satellite link gain ``g_sat``. validate() refuses
        a config unless each value is <= its cap (NaN is not); ``what`` names the keys."""
        ga, runs, uav_slots = self.ga, self.ga.generations + 1, self.num_uavs * self.num_slots
        cpu_hz = max(self.uav_cpu_hz, self.leo_cpu_hz)
        # the most energy a run can spend at full power: every UAV's radios
        # through every slot (the DS uplink must finish within the slot),
        # plus the largest DS load computed at the faster CPU's full speed
        e_max = uav_slots * ((self.pmax_w + self.dt_uplink_power_w) * self.slot_seconds
                             + self.cycles_per_bit * self.switch_cap * self.k_sens_max
                             * self.ds_size_max_bits * cpu_hz * cpu_hz)
        # The DS uplink energy of a UAV-slot at power p is p * gamma * sum_d
        # / rate(p), the rate floored at 1e-300 bit/s (model.Evaluation). In
        # exact arithmetic p / rate(p) grows with p. In floats 1 + SNR rounds
        # to 1 below an SNR of 2**-53, where the rate is 0 and p / rate(p) is
        # p * 1e300, for p below 2**-52 / G (G: the satellite gain over the
        # noise); above it 1 + SNR rounds to at least 1 + SNR / 2, which at
        # most halves the rate. So p / rate(p) stays within the larger of
        # min(pmax_w, 2**-52 / G) * 1e300 and twice pmax_w / rate(pmax_w).
        # Powers below pmax_w * 2**-53 are left out of the first: the
        # rotation starts at pmax_w / 2 and its power block picks 0 or a
        # power whose rate is positive, the GA's first draws are 0 or at
        # least pmax_w * 2**-53, and only a mutation that lands within that
        # of 0 reaches one.
        per_noise = g_sat / self.noise_w
        rate = (self.leo_bandwidth_hz / self.num_uavs * math.log1p(self.pmax_w * per_noise)
                / math.log(2.0))
        joules_per_bit = 2.0 * self.pmax_w / max(rate, 1e-300)
        dead_power = min(self.pmax_w, 2.0 ** -52 / per_noise)
        if dead_power >= self.pmax_w * 2.0 ** -53:
            joules_per_bit = max(joules_per_bit, dead_power * 1e300)
        ds_max = self.k_sens_max * self.ds_size_max_bits
        ds_energy, ds_cost = ((self.num_uavs * ds_max * joules_per_bit,
                               self.omega * self.num_uavs * ds_max * joules_per_bit)
                              if ds_max else (0.0, 0.0))
        ds_link = f"the DS uplink ({SAT_GAIN_KEYS}, noise_dbm, leo_bandwidth_hz)"
        return (
            ("num_uavs * num_slots", uav_slots, MAX_UAV_SLOTS),
            ("the largest DS load's on-board time in s, cycles_per_bit * k_sens_max * "
             "ds_size_max_bits / uav_cpu_hz", self.cycles_per_bit * self.k_sens_max
             * self.ds_size_max_bits / self.uav_cpu_hz, MAX_ONBOARD_SECONDS),
            (f"omega * the largest horizon energy at full power in J ({ENERGY_KEYS})",
             self.omega * e_max, MAX_ENERGY_COST_BITS),
            ("ga_population * num_uavs * num_slots", ga.population * uav_slots, MAX_GA_GENES),
            ("ga_population * (ga_generations + 1) * num_uavs * num_slots",
             ga.population * runs * uav_slots, MAX_GA_RUN_GENES),
            ("(ga_generations + 1) * num_slots", runs * self.num_slots, MAX_GA_PASSES),
            ("ga_population * ga_tournament", ga.population * ga.tournament, MAX_GA_DRAWS),
            ("num_uavs * num_slots * (k_sens_max + k_tol_max)",
             uav_slots * (self.k_sens_max + self.k_tol_max), MAX_DEVICE_SLOTS),
            ("under the GA's largest penalty sum (num_uavs, num_slots, slot_seconds, the bands, "
             "beta, leo_cpu_hz), ga_penalty_weight", ga.penalty_weight, self.max_ga_penalty_weight),
            ("the horizon in s, num_slots * slot_seconds (up to the visibility window that the "
             "satellite geometry and sat_speed_mps set)", self.num_slots * self.slot_seconds,
             model.visibility_window(self.sat_altitude_m, self.earth_radius_m,
                                     self.elevation_rad, self.sat_speed_mps) + 1e-9),
            (f"omega * num_uavs * k_sens_max * ds_size_max_bits times the energy per bit of "
             f"{ds_link} up to pmax_w", ds_cost, MAX_DS_ENERGY_COST_BITS),
            # omega * energy passes at omega = 0: these bound the energy itself, and
            # the clocks that the model squares on their own (SlotContext.cpu_squared,
            # f_leo ** 2) whatever load they multiply
            ("the faster clock squared, max(uav_cpu_hz, leo_cpu_hz) ** 2", cpu_hz * cpu_hz,
             FLOAT_MAX),
            (f"the largest horizon energy in J ({ENERGY_KEYS}; and {ds_link})",
             e_max + self.num_slots * ds_energy, MAX_ENERGY_J),
            (f"the DT uplink's SNR, dt_uplink_power_w times the satellite link gain over the "
             f"noise ({SAT_GAIN_KEYS}, noise_dbm)", self.dt_uplink_power_w * g_sat / self.noise_w,
             FLOAT_MAX),
        )

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

# flat key -> the one range validate() holds its value to: "> a", ">= a",
# "[a, b]" or "[a, b)" (ga_seed may also be None)
RANGES = {
    "num_uavs": f"[1, {MAX_UAVS}]", "num_slots": f"[0, {MAX_SLOTS}]", "elevation_deg": "[0, 90)",
    **dict.fromkeys(("beta", "ga_crossover_rate", "ga_mutation_rate"), "[0, 1]"),
    **dict.fromkeys((
        "uav_altitude_m", "sat_altitude_m", "earth_radius_m", "sat_speed_mps", "slot_seconds",
        "uav_bandwidth_hz", "leo_bandwidth_hz", "pathloss_coeff", "pathloss_exp",
        "sat_ref_distance_m", "cycles_per_bit", "uav_cpu_hz", "leo_cpu_hz", "switch_cap",
        "tau_outer", "ga_mutation_sigma_frac"), "> 0"),
    **dict.fromkeys((
        "device_disc_radius_m", "device_power_sens_w", "device_power_tol_w", "pmax_w",
        "dt_uplink_power_w", "rician_k0", "ds_size_min_bits", "storage_capacity_bits",
        "storage_initial_free_bits", "omega", "seed", "ga_generations", "ga_elitism",
        "ga_penalty_weight", "ga_seed"), ">= 0"),
    **dict.fromkeys(("k_sens_min", "k_tol_min", "i_max", "ga_population", "ga_tournament"),
                    ">= 1"),
}


def _bounds(text: str) -> tuple:
    """(low, high, excluded end or None, message) of a range in RANGES."""
    if text[0] == ">":
        op, low = text.split()
        return float(low), math.inf, float(low) if op == ">" else None, "be " + text
    low, high = map(float, text[1:-1].split(","))
    return low, high, high if text[-1] == ")" else None, "lie in " + text


# what validate() checks of each key: its getter, declared type and range
_CHECKS = [(key, operator.attrgetter(f"{owner}.{name}" if owner else name), declared,
            _bounds(RANGES[key]) if key in RANGES else (None,) * 4)
           for key, (owner, name, declared) in CONFIG_KEYS.items()]


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
