"""Physical model of the satellite / UAV / sea-surface-device network.

One time slot looks like this: sea-surface sensing devices upload fresh
computation tasks to their UAV, the UAV processes a fraction locally and
relays the rest to a LEO satellite for remote execution, and for the tail
of the slot (after ``delta_tol``) the UAV forwards buffered monitoring
data out of its storage up to the satellite. Everything here is a pure
function of explicit arguments; no module state.

Units: meters, seconds, hertz, watts, bits. Rates are bit/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


# ---------------------------------------------------------------------------
# satellite geometry
# ---------------------------------------------------------------------------

def coverage_half_angle(sat_altitude_m: float, earth_radius_m: float,
                        elevation_rad: float) -> float:
    """Earth-central angle between the sub-satellite point and a ground user
    seeing the satellite at the given elevation."""
    if not 0.0 <= elevation_rad <= math.pi / 2:
        raise ValueError("elevation must lie in [0, pi/2]")
    ratio = earth_radius_m / (earth_radius_m + sat_altitude_m)
    return math.acos(ratio * math.cos(elevation_rad)) - elevation_rad


def visibility_window(sat_altitude_m: float, earth_radius_m: float,
                      elevation_rad: float, sat_speed_mps: float) -> float:
    """Duration (s) the satellite stays above the minimum elevation while
    crossing the coverage arc at constant orbital speed."""
    gamma = coverage_half_angle(sat_altitude_m, earth_radius_m, elevation_rad)
    return 2.0 * (earth_radius_m + sat_altitude_m) * gamma / sat_speed_mps


def uav_sat_distance(sat_altitude_m: float, earth_radius_m: float,
                     elevation_rad: float) -> float:
    """Slant range (m) from a user at the coverage edge to the satellite.

    Undefined straight overhead (elevation pi/2): the coverage arc is a
    single point and the projection formula degenerates, so that input is
    rejected; callers wanting the nadir range should use the altitude.
    """
    if elevation_rad >= math.pi / 2:
        raise ValueError("slant-range formula is undefined at 90 deg elevation")
    gamma = coverage_half_angle(sat_altitude_m, earth_radius_m, elevation_rad)
    return ((earth_radius_m + sat_altitude_m) * math.sin(gamma)
            / math.cos(elevation_rad))


# ---------------------------------------------------------------------------
# channels and rates
# ---------------------------------------------------------------------------

def rician_fading_gain(k0: float, scatter):
    """Squared magnitude |G|^2 of a Rician small-scale coefficient built from
    a deterministic line-of-sight part and CN(0,1) scatter samples
    (elementwise over a complex array)."""
    if k0 < 0:
        raise ValueError("Rician factor must be >= 0")
    scatter = np.asarray(scatter, dtype=complex)
    los = math.sqrt(k0 / (1.0 + k0))
    amp = math.sqrt(1.0 / (1.0 + k0))
    return (los + amp * scatter.real) ** 2 + (amp * scatter.imag) ** 2


def device_uav_gain(distance_m, pathloss_coeff: float, pathloss_exp: float,
                    fading_gain=1.0):
    """Device-to-UAV power gain: distance-power-law large-scale loss times the
    squared-magnitude small-scale fading gain."""
    d = np.asarray(distance_m, dtype=float)
    if np.any(d <= 0.0):
        raise ValueError("device-UAV distance must be > 0")
    return pathloss_coeff * d ** (-pathloss_exp) * np.asarray(fading_gain, dtype=float)


def device_uav_rate(power_w, gain, noise_w: float, bandwidth_share_hz: float,
                    group_size: int):
    """Shannon rate (bit/s) of one device on an equal FDMA share of its group's
    band slice. ``bandwidth_share_hz`` is the slice for the whole group."""
    if group_size <= 0:
        raise ValueError("group_size must be >= 1")
    snr = np.asarray(power_w, dtype=float) * np.asarray(gain, dtype=float) / noise_w
    return (bandwidth_share_hz / group_size) * np.log2(1.0 + snr)


def uav_leo_gain(distance_m: float, ref_gain: float, antenna_gain: float,
                 ref_distance_m: float = 1.0) -> float:
    """UAV-to-satellite power gain: reference gain at ``ref_distance_m`` with
    inverse-square rolloff, times the antenna gain."""
    if distance_m <= 0:
        raise ValueError("satellite distance must be > 0")
    return ref_gain * antenna_gain * (ref_distance_m / distance_m) ** 2


def uav_leo_rate(power_w, gain, noise_w: float, leo_bandwidth_hz: float,
                 num_uavs: int):
    """Shannon rate (bit/s) of one UAV on its equal share of the satellite band."""
    if num_uavs <= 0:
        raise ValueError("num_uavs must be >= 1")
    snr = np.asarray(power_w, dtype=float) * np.asarray(gain, dtype=float) / noise_w
    return (leo_bandwidth_hz / num_uavs) * np.log2(1.0 + snr)


# ---------------------------------------------------------------------------
# per-slot context and decisions
# ---------------------------------------------------------------------------

@dataclass
class SlotContext:
    """Everything the slot optimizers need, pre-evaluated for one slot.

    Arrays are indexed by UAV. Storage is per UAV: ``storage_free`` is the
    unused buffer space at the start of the slot.
    """

    slot_seconds: float
    omega: float
    sum_d: np.ndarray            # total fresh DS bits per UAV
    l_off: np.ndarray            # slowest device upload time per UAV (s)
    dt_dev_rate_sum: np.ndarray  # aggregate device->UAV DT rate (bit/s)
    r_tol_leo: np.ndarray        # UAV->LEO DT rate at the fixed DT power (bit/s)
    sat_gain: np.ndarray         # UAV->LEO power gain
    l_prop: float                # one-way UAV->LEO propagation delay (s)
    leo_bandwidth_hz: float
    noise_w: float
    pmax_w: float
    dt_uplink_power_w: float
    cycles_per_bit: float
    uav_cpu_hz: float
    leo_cpu_hz: float
    switch_cap: float
    storage_free: np.ndarray     # bits
    storage_capacity: float      # bits

    @property
    def num_uavs(self) -> int:
        return len(self.sum_d)

    def ds_rate(self, power_w):
        """UAV->LEO rate (bit/s) for the DS stream at the given power(s)."""
        return uav_leo_rate(power_w, self.sat_gain, self.noise_w,
                            self.leo_bandwidth_hz, self.num_uavs)


@dataclass
class SlotDecision:
    """One slot's control variables, one entry per UAV."""

    power: np.ndarray       # UAV DS-uplink transmit power (W)
    f_leo: np.ndarray       # satellite compute share (cycles/s)
    delta_tol: np.ndarray   # DT forwarding start time inside the slot (s)
    gamma: np.ndarray       # offloaded fraction of the DS load, in [0, 1]


# ---------------------------------------------------------------------------
# delays
# ---------------------------------------------------------------------------

def local_compute_time(sum_d, gamma, cycles_per_bit: float, uav_cpu_hz: float):
    return cycles_per_bit * (1.0 - np.asarray(gamma)) * np.asarray(sum_d) / uav_cpu_hz


def transmit_time(ctx: SlotContext, power, gamma):
    """Seconds the DS uplink takes to carry the offloaded bits gamma*sum_d at
    the given power; +inf where the rate is zero."""
    rate = ctx.ds_rate(power)
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(rate > 0.0, gamma * ctx.sum_d / np.maximum(rate, 1e-300), np.inf)


def remote_compute_time(ctx: SlotContext, f_leo, gamma):
    """Seconds the satellite compute share f_leo takes to process the
    offloaded bits; +inf where the share is zero."""
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(f_leo > 0.0, ctx.cycles_per_bit * gamma * ctx.sum_d
                        / np.maximum(f_leo, 1e-300), np.inf)


def satellite_branch_time(ctx: SlotContext, power, f_leo, gamma):
    """Transmit + remote compute + round-trip propagation for the offloaded
    share. Zero where nothing is offloaded; +inf where gamma > 0 but the
    link or the compute allocation cannot carry it."""
    gamma = np.asarray(gamma, dtype=float)
    active = (gamma > 0.0) & (ctx.sum_d > 0.0)
    return np.where(active, transmit_time(ctx, power, gamma)
                    + remote_compute_time(ctx, f_leo, gamma)
                    + 2.0 * ctx.l_prop, 0.0)


def ds_completion_time(ctx: SlotContext, decision: SlotDecision) -> np.ndarray:
    """End-to-end DS task completion time per UAV: slowest device upload, then
    the longer of the local branch and the satellite branch."""
    gamma = decision.gamma
    active = (gamma > 0.0) & (ctx.sum_d > 0.0)
    if np.any(active):
        rate = ctx.ds_rate(decision.power)
        if np.any(active & (rate <= 0.0)):
            raise ValueError("offloading with zero DS uplink rate")
        if np.any(active & (decision.f_leo <= 0.0)):
            raise ValueError("offloading with zero satellite compute share")
    return completion_time(ctx, decision.power, decision.f_leo, gamma)


def deadline_lower_bounds(ctx: SlotContext, power, f_leo, gamma):
    """Smallest delta_tol satisfying each completion branch:
    (local) upload + on-board compute, (satellite) upload + transmit +
    remote compute + round trip. The satellite bound is l_off where nothing
    is offloaded, +inf where offloading is impossible."""
    local = ctx.l_off + local_compute_time(ctx.sum_d, gamma,
                                           ctx.cycles_per_bit, ctx.uav_cpu_hz)
    sat = ctx.l_off + satellite_branch_time(ctx, power, f_leo, gamma)
    return local, sat


def completion_time(ctx: SlotContext, power, f_leo, gamma):
    """DS completion time per UAV, the later of the two deadline_lower_bounds:
    the smallest delta_tol meeting the deadline. +inf where gamma > 0 but
    the link or the compute share cannot carry the offload."""
    return np.maximum(*deadline_lower_bounds(ctx, power, f_leo, gamma))


# ---------------------------------------------------------------------------
# storage dynamics
# ---------------------------------------------------------------------------

def storage_terms(ctx: SlotContext, delta_tol, storage_free):
    """Nominal storage terms of a forwarding start (elementwise): the bits
    devices deliver before ``delta_tol``, the bits the uplink would ship
    after it, and the bits the buffer can forward (this slot's collection
    plus the backlog already stored)."""
    collected = ctx.dt_dev_rate_sum * delta_tol
    nominal_up = ctx.r_tol_leo * np.clip(ctx.slot_seconds - delta_tol, 0.0, None)
    available = collected + (ctx.storage_capacity - storage_free)
    return collected, nominal_up, available


@dataclass
class CollectionStep:
    collected: np.ndarray   # bits gathered from DT devices this slot
    uplinked: np.ndarray    # bits actually forwarded to the satellite
    next_free: np.ndarray   # free buffer space at the next slot start
    overflow: np.ndarray    # requested collection exceeded the free space


def dt_collection_step(dev_rate_sum, delta_tol, slot_seconds: float,
                       r_tol_leo, storage_free, storage_capacity: float) -> CollectionStep:
    """Advance DT buffers across a slot, elementwise over broadcastable
    per-UAV (or per-genome) arrays.

    Devices deliver ``dev_rate_sum * delta_tol`` bits; a request beyond the
    free space is an overflow (flagged, then capped -- the buffer cannot
    physically exceed its capacity). The uplink forwards at ``r_tol_leo``
    for the remainder of the slot, bounded by what the buffer holds: this
    slot's collection plus the backlog already stored.
    """
    delta_tol = np.asarray(delta_tol, dtype=float)
    storage_free = np.asarray(storage_free, dtype=float)
    # min and max propagate NaN, which then fails the range checks
    if not (delta_tol.min() >= 0.0 and delta_tol.max() <= slot_seconds + 1e-12):
        raise ValueError("delta_tol must lie in [0, slot length]")
    if not (storage_free.min() >= 0.0 and storage_free.max() <= storage_capacity + 1e-9):
        raise ValueError("storage_free must lie in [0, capacity]")
    requested = dev_rate_sum * delta_tol
    overflow = requested > storage_free + 1e-9
    collected = np.minimum(requested, storage_free)
    backlog_cap = collected + (storage_capacity - storage_free)
    uplinked = np.minimum(r_tol_leo * (slot_seconds - delta_tol), backlog_cap)
    next_free = np.minimum(storage_free - collected + uplinked, storage_capacity)
    next_free = np.maximum(next_free, 0.0)
    return CollectionStep(collected, uplinked, next_free, overflow)


# ---------------------------------------------------------------------------
# energy and the slot objective
# ---------------------------------------------------------------------------

def slot_energy(ctx: SlotContext, decision: SlotDecision):
    """Per-UAV energy split: (radio, on-board compute, satellite compute), J.

    Radio energy covers the DS uplink for its transmit duration and the DT
    uplink for the whole forwarding window at the fixed DT power.
    """
    gamma = decision.gamma
    rate = ctx.ds_rate(decision.power)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # not transmit_time, which is +inf at zero rate: the rate floor of
        # 1e-300 bit/s keeps the energy finite, so the GA still ranks genomes
        # that offload over a dead link by how much they offload
        l_comm = np.where((gamma > 0.0) & (ctx.sum_d > 0.0),
                          gamma * ctx.sum_d / np.maximum(rate, 1e-300), 0.0)
        # an offload stream at zero power never transmits: the radio spends
        # nothing (the deadline bound is what rules the stream out)
        e_ds = np.where(decision.power > 0.0, decision.power * l_comm, 0.0)
    window = np.clip(ctx.slot_seconds - decision.delta_tol, 0.0, None)
    e_comm = e_ds + ctx.dt_uplink_power_w * window
    base = ctx.cycles_per_bit * ctx.switch_cap * ctx.sum_d
    e_uav = base * (1.0 - gamma) * ctx.uav_cpu_hz ** 2
    e_leo = base * gamma * decision.f_leo ** 2
    return e_comm, e_uav, e_leo


def objective_terms(ctx: SlotContext, decision: SlotDecision) -> np.ndarray:
    """Per-UAV slot-utility contributions: DT bits shipped to the satellite
    minus omega times the UAV's slot energy. The DT term here is the nominal
    rate-times-window volume; the storage caps are handled as constraints
    (and by the metering in dt_collection_step)."""
    e_comm, e_uav, e_leo = slot_energy(ctx, decision)
    window = np.clip(ctx.slot_seconds - decision.delta_tol, 0.0, None)
    dt_bits = ctx.r_tol_leo * window
    return dt_bits - ctx.omega * (e_comm + e_uav + e_leo)


def slot_objective_bits(ctx: SlotContext, decision: SlotDecision) -> float:
    """Slot utility the optimizers maximize (sum over UAVs)."""
    return float(np.sum(objective_terms(ctx, decision)))


def slot_objective_mbit(ctx: SlotContext, decision: SlotDecision) -> float:
    """Slot objective with the data term expressed in Mbit; the scale on which
    convergence thresholds and oracle tolerances operate."""
    return slot_objective_bits(ctx, decision) / 1e6


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------

@dataclass
class FeasibilityReport:
    box_ok: bool
    budget_ok: bool          # sum of satellite compute shares within the pool
    deadline_ok: bool        # completion time within delta_tol, every UAV
    storage_ok: bool         # collection fits the free space
    backlog_ok: bool         # nominal uplink volume within buffer contents
    violations: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (self.box_ok and self.budget_ok and self.deadline_ok
                and self.storage_ok and self.backlog_ok)


def check_feasible(ctx: SlotContext, decision: SlotDecision,
                   time_slack: float = 1e-9) -> FeasibilityReport:
    """Independent re-evaluation of every slot constraint on a decision."""
    d = decision
    viol = {}
    box_ok = True
    if np.any(d.gamma < -1e-12) or np.any(d.gamma > 1.0 + 1e-12):
        box_ok = False
        viol["gamma_box"] = float(np.max(np.abs(d.gamma - np.clip(d.gamma, 0, 1))))
    if np.any(d.delta_tol < -1e-12) or np.any(d.delta_tol > ctx.slot_seconds + 1e-9):
        box_ok = False
        viol["delta_box"] = True
    if np.any(d.f_leo < -1e-6) or np.any(d.f_leo > ctx.leo_cpu_hz * (1 + 1e-12) + 1e-6):
        box_ok = False
        viol["f_box"] = True
    if np.any(d.power < -1e-12) or np.any(d.power > ctx.pmax_w + 1e-9):
        box_ok = False
        viol["p_box"] = True

    budget = float(np.sum(d.f_leo))
    budget_ok = budget <= ctx.leo_cpu_hz * (1 + 1e-9) + 1e-6
    if not budget_ok:
        viol["budget"] = budget - ctx.leo_cpu_hz

    gap = completion_time(ctx, d.power, d.f_leo, d.gamma) - d.delta_tol
    deadline_ok = bool(np.all(gap <= time_slack))
    if not deadline_ok:
        viol["deadline"] = float(np.max(gap))

    collected, nominal_up, available = storage_terms(ctx, d.delta_tol, ctx.storage_free)
    storage_ok = bool(np.all(collected <= ctx.storage_free + 1e-3))
    if not storage_ok:
        viol["storage"] = float(np.max(collected - ctx.storage_free))

    backlog_ok = bool(np.all(nominal_up <= available + 1e-3))
    if not backlog_ok:
        viol["backlog"] = float(np.max(nominal_up - available))

    return FeasibilityReport(box_ok, budget_ok, deadline_ok, storage_ok,
                             backlog_ok, viol)


# ---------------------------------------------------------------------------
# slot metering
# ---------------------------------------------------------------------------

@dataclass
class SlotMetrics:
    """Physical outcome of one slot under a decision."""

    collected_bits: np.ndarray   # device->UAV DT bits per UAV
    uplinked_bits: np.ndarray    # UAV->LEO DT bits per UAV (storage-capped)
    energy_comm_j: np.ndarray
    energy_uav_comp_j: np.ndarray
    energy_leo_comp_j: np.ndarray
    ds_delay_s: np.ndarray       # completion time per UAV
    next_free: np.ndarray        # storage free space at next slot start
    overflow: np.ndarray         # bool per UAV: collection request was capped
    utility_bits: float          # capped DT volume minus omega * energy

    @property
    def total_energy_j(self) -> float:
        return float(np.sum(self.energy_comm_j + self.energy_uav_comp_j
                            + self.energy_leo_comp_j))

    @property
    def total_uplinked_bits(self) -> float:
        return float(np.sum(self.uplinked_bits))

    @property
    def mean_ds_delay_s(self) -> float:
        return float(np.mean(self.ds_delay_s))


def meter_slot(ctx: SlotContext, decision: SlotDecision) -> SlotMetrics:
    """Run the physical bookkeeping for one slot and price the utility from
    what actually moved (storage caps applied)."""
    step = dt_collection_step(ctx.dt_dev_rate_sum, decision.delta_tol, ctx.slot_seconds,
                              ctx.r_tol_leo, ctx.storage_free, ctx.storage_capacity)
    e_comm, e_uav, e_leo = slot_energy(ctx, decision)
    delay = ds_completion_time(ctx, decision)
    utility = float(np.sum(step.uplinked) - ctx.omega * np.sum(e_comm + e_uav + e_leo))
    return SlotMetrics(step.collected, step.uplinked, e_comm, e_uav, e_leo, delay,
                       step.next_free, step.overflow, utility)
