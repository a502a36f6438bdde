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
from dataclasses import dataclass, fields
from functools import cached_property

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

def rician_fading_gain(k0: float, real, imag):
    """Squared magnitude |G|^2 of a Rician small-scale coefficient built from
    a deterministic line-of-sight part and a CN(0,1) scatter sample given by
    its real and imaginary parts (elementwise over arrays)."""
    if k0 < 0:
        raise ValueError("Rician factor must be >= 0")
    los = math.sqrt(k0 / (1.0 + k0))
    amp = math.sqrt(1.0 / (1.0 + k0))
    return (los + amp * real) ** 2 + (amp * imag) ** 2


def device_uav_gain(distance_m, pathloss_coeff: float, pathloss_exp: float, fading_gain):
    """Device-to-UAV power gain: distance-power-law large-scale loss times the
    squared-magnitude small-scale fading gain."""
    d = np.asarray(distance_m, dtype=float)
    if np.any(d <= 0.0):
        raise ValueError("device-UAV distance must be > 0")
    return pathloss_coeff * d ** (-pathloss_exp) * np.asarray(fading_gain, dtype=float)


def uav_leo_gain(distance_m: float, ref_gain: float, antenna_gain: float,
                 ref_distance_m: float) -> float:
    """UAV-to-satellite power gain: reference gain at ``ref_distance_m`` with
    inverse-square rolloff, times the antenna gain."""
    if distance_m <= 0:
        raise ValueError("satellite distance must be > 0")
    return ref_gain * antenna_gain * (ref_distance_m / distance_m) ** 2


def shannon_rate(power_w, gain, noise_w: float, band_hz, shares: int):
    """Shannon rate (bit/s) on an equal FDMA share of a band: a device on
    its group's slice of the UAV band, or a UAV on the satellite band."""
    if shares <= 0:
        raise ValueError("shares must be >= 1")
    snr = np.asarray(power_w, dtype=float) * np.asarray(gain, dtype=float) / noise_w
    return (band_hz / shares) * np.log2(1.0 + snr)


# ---------------------------------------------------------------------------
# per-slot context and decisions
# ---------------------------------------------------------------------------

@dataclass
class SlotContext:
    """Everything the slot optimizers need, pre-evaluated for one slot.

    Arrays are indexed by UAV. Storage is per UAV: ``storage_free`` is the
    unused buffer space at the start of the slot.

    A stacked context (see ``stack``) holds the same slot of B cells: its
    arrays are (B, U), and a scalar that differs between rows is a (B, 1)
    column, so every function of this module works row by row.
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
        return self.sum_d.shape[-1]

    @classmethod
    def stack(cls, contexts: list) -> "SlotContext":
        """One (B, U) context from B 1-D contexts that share U. A scalar
        that every row holds bit for bit stays the first row's scalar, so
        it computes as in a 1-D context; one that differs becomes a (B, 1)
        column."""
        out = {}
        for f in fields(cls):
            values = [getattr(c, f.name) for c in contexts]
            if isinstance(values[0], np.ndarray):
                out[f.name] = np.stack(values)
                continue
            column = np.array(values, dtype=float)[:, None]
            bits = column.view(np.uint64)
            # bits, not ==: 0.0 and -0.0 are equal but may compute apart
            out[f.name] = values[0] if (bits == bits[0]).all() else column
        return cls(**out)

    def ds_rate(self, power_w):
        """UAV->LEO rate (bit/s) for the DS stream at the given power(s)."""
        return shannon_rate(power_w, self.sat_gain, self.noise_w,
                            self.leo_bandwidth_hz, self.num_uavs)

    @cached_property
    def storage_bounds(self):
        """(floor, ceiling) per UAV: the range the buffer leaves the DT
        forwarding start. The floor is the earliest start whose uplink the
        stored backlog plus this slot's collection can fill (0 where that
        never binds); the ceiling is the latest start whose collection
        still fits the free space (the slot end where that never binds).
        These are the only reads of ``storage_free`` a slot solve makes.
        Computed on first read; ``solver.run_horizons`` sets them on a
        context whose rows it solves ahead of their buffer state."""
        used = self.storage_capacity - self.storage_free
        denom = self.r_tol_leo + self.dt_dev_rate_sum
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            backlog_lo = np.where(denom > 0.0,
                                  (self.r_tol_leo * self.slot_seconds - used)
                                  / np.maximum(denom, 1e-300),
                                  -np.inf)
            storage_hi = np.where(self.dt_dev_rate_sum > 0.0,
                                  self.storage_free / np.maximum(self.dt_dev_rate_sum, 1e-300),
                                  np.inf)
        return np.maximum(0.0, backlog_lo), np.minimum(self.slot_seconds, storage_hi)

    # constants of the slot that the block solves read on every pass,
    # computed on first read

    @cached_property
    def loaded(self):
        """UAVs with a positive DS load."""
        return self.sum_d > 0.0

    @cached_property
    def sum_d_mbit(self):
        """The DS load in Mbit."""
        return self.sum_d / 1e6

    @cached_property
    def loaded_mbit(self):
        """UAVs whose DS load is positive in Mbit (not only in bits)."""
        return self.sum_d_mbit > 0.0

    @cached_property
    def sat_gain_per_noise(self):
        """The UAV->LEO power gain over the noise power, 1/W."""
        return self.sat_gain / self.noise_w

    @cached_property
    def load_seconds_floor(self):
        """On-board seconds of the whole DS load, floored at 1e-300 s."""
        return np.maximum(self.cycles_per_bit * self.sum_d / self.uav_cpu_hz, 1e-300)

    @cached_property
    def cycle_cap(self):
        """Switched capacitance per bit: cycles_per_bit * switch_cap."""
        return self.cycles_per_bit * self.switch_cap

    @cached_property
    def cpu_squared(self):
        """The on-board clock squared, rounded like the scalar ``x ** 2``
        (libm pow) for a float and for a stacked column alike; numpy
        squares an array as x * x, which differs from pow in the last bit
        now and then."""
        return np.float_power(self.uav_cpu_hz, 2)

    @cached_property
    def waiting_pays(self):
        """Where a later DT forwarding start raises the objective: the
        energy price of forwarding is at least the forwarding rate."""
        return self.omega * self.dt_uplink_power_w - self.r_tol_leo >= 0.0

    @cached_property
    def l_off_prop(self):
        """The slowest upload plus the one-way propagation delay, s."""
        return self.l_off + self.l_prop


@dataclass
class SlotDecision:
    """One slot's control variables, one entry per UAV."""

    power: np.ndarray       # UAV DS-uplink transmit power (W)
    f_leo: np.ndarray       # satellite compute share (cycles/s)
    delta_tol: np.ndarray   # DT forwarding start time inside the slot (s)
    gamma: np.ndarray       # offloaded fraction of the DS load, in [0, 1]

    def row(self, b: int) -> "SlotDecision":
        """Row ``b`` of a stacked decision, as a 1-D decision of its own."""
        return SlotDecision(self.power[b].copy(), self.f_leo[b].copy(),
                            self.delta_tol[b].copy(), self.gamma[b].copy())


# ---------------------------------------------------------------------------
# one evaluation of a decision
# ---------------------------------------------------------------------------

class _Part:
    """A part of an Evaluation that depends on the named decision
    variables: computed on its first read, then kept on the instance."""

    def __init__(self, *depends):
        self.depends = frozenset(depends)

    def __call__(self, compute):
        self.compute = compute
        self.__doc__ = compute.__doc__
        return self

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, ev, owner=None):
        if ev is None:
            return self
        value = ev.__dict__[self.name] = self.compute(ev)
        return value


class Evaluation:
    """The model terms of one decision on one context, per UAV (and per row
    of a stacked context). Each part is computed on its first read and
    then kept; the slot's energy, completion time, deadline bounds and
    objective terms, and every read of them in ``solver``, are reads of it.
    A decision variable that no part read may be None, such as the start
    time for the deadline bounds.

    ``replace`` evaluates a decision that differs in some variables and
    shares every computed part that depends on none of them; ``merged``
    joins two evaluations UAV by UAV. Both are exact, since every part is
    elementwise, so the slot solver carries its incumbent's evaluation
    through the blocks and recomputes only what a block changes."""

    VARIABLES = ("power", "f_leo", "delta_tol", "gamma")

    def __init__(self, ctx: SlotContext, power, f_leo, delta_tol, gamma):
        self.ctx = ctx
        self.power = _float_array(power)
        self.f_leo = _float_array(f_leo)
        self.delta_tol = _float_array(delta_tol)
        self.gamma = _float_array(gamma)

    @classmethod
    def of(cls, ctx: SlotContext, decision: "SlotDecision") -> "Evaluation":
        return cls(ctx, decision.power, decision.f_leo, decision.delta_tol, decision.gamma)

    def replace(self, **changed) -> "Evaluation":
        """This decision with the given variables changed. The computed
        parts that depend on none of them are shared, not recomputed."""
        new = Evaluation.__new__(Evaluation)
        state = new.__dict__
        state.update(self.__dict__)
        for name, value in changed.items():
            state[name] = _float_array(value)
            for part in _REACHES[name]:
                state.pop(part, None)
        return new

    def merged(self, keep, other: "Evaluation") -> "Evaluation":
        """This evaluation where ``keep`` holds and ``other``, of the same
        context, elsewhere: the decision and each part both have computed,
        taken as it is where the two share it. A part only one of them has
        is left to be computed from the merged decision when read."""
        if keep.all():
            return self
        if not keep.any():
            return other
        new = Evaluation.__new__(Evaluation)
        theirs = other.__dict__
        for name, mine in self.__dict__.items():
            if name in theirs:
                new.__dict__[name] = (mine if mine is theirs[name]
                                      else np.where(keep, mine, theirs[name]))
        return new

    # the DS uplink

    @_Part("gamma")
    def active(self):
        """Offloading: a positive ratio of a positive DS load."""
        return (self.gamma > 0.0) & self.ctx.loaded

    @_Part("power")
    def rate(self):
        """The DS uplink rate, bit/s."""
        return self.ctx.ds_rate(self.power)

    @_Part("power", "gamma")
    def quotient(self):
        """The offloaded bits over the rate floored at 1e-300 bit/s."""
        with np.errstate(divide="ignore", over="ignore"):
            return self.gamma * self.ctx.sum_d / np.maximum(self.rate, 1e-300)

    @_Part("power", "gamma")
    def transmit(self):
        """Seconds the DS uplink takes to carry the offloaded bits; +inf
        where the rate is zero."""
        return np.where(self.rate > 0.0, self.quotient, np.inf)

    @_Part("power", "gamma")
    def l_comm(self):
        """The DS uplink time the radio pays for: 0 where not offloading.
        Not ``transmit``, which is +inf at zero rate: the rate floor keeps
        it finite, so the GA still ranks genomes that offload over a dead
        link by how much they offload."""
        return np.where(self.active, self.quotient, 0.0)

    # the deadline bounds: the smallest start times meeting each branch

    @_Part("f_leo", "gamma")
    def remote(self):
        """Seconds the satellite compute share takes to process the
        offloaded bits; +inf where the share is zero."""
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(self.f_leo > 0.0, self.ctx.cycles_per_bit * self.gamma * self.ctx.sum_d
                            / np.maximum(self.f_leo, 1e-300), np.inf)

    @_Part("gamma")
    def local(self):
        """On-board branch: upload, then on-board compute."""
        ctx = self.ctx
        return ctx.l_off + ctx.cycles_per_bit * (1.0 - self.gamma) * ctx.sum_d / ctx.uav_cpu_hz

    @_Part("power", "f_leo", "gamma")
    def sat(self):
        """Satellite branch: upload, then transmit, remote compute and the
        round trip. l_off where nothing is offloaded, +inf where the link
        or the compute share cannot carry the offload."""
        ctx = self.ctx
        return ctx.l_off + np.where(self.active, self.transmit + self.remote
                                    + 2.0 * ctx.l_prop, 0.0)

    @_Part("power", "f_leo", "gamma")
    def need(self):
        """DS completion time: the later bound."""
        return np.maximum(self.local, self.sat)

    # energy and the objective

    @_Part("delta_tol")
    def window(self):
        """The DT forwarding window."""
        return np.maximum(self.ctx.slot_seconds - self.delta_tol, 0.0)

    @_Part("power", "gamma")
    def e_ds(self):
        """DS uplink energy. A stream at zero power never transmits, so the
        radio spends nothing (the deadline bound rules the stream out)."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.where(self.power > 0.0, self.power * self.l_comm, 0.0)

    @_Part("power", "delta_tol", "gamma")
    def e_comm(self):
        """Radio energy: the DS uplink, and the DT uplink at its fixed power
        for the whole forwarding window."""
        return self.e_ds + self.ctx.dt_uplink_power_w * self.window

    @_Part()
    def cycle_energy(self):
        """Switching energy of the whole DS load per squared clock."""
        return self.ctx.cycle_cap * self.ctx.sum_d

    @_Part("gamma")
    def e_uav(self):
        """On-board compute energy."""
        return self.cycle_energy * (1.0 - self.gamma) * self.ctx.cpu_squared

    @_Part("f_leo", "gamma")
    def e_leo(self):
        """Satellite compute energy."""
        return self.cycle_energy * self.gamma * self.f_leo ** 2

    @_Part("power", "f_leo", "delta_tol", "gamma")
    def terms(self):
        """Per-UAV slot-utility contributions: the nominal DT bits the
        window ships minus omega times the slot energy."""
        ctx = self.ctx
        return ctx.r_tol_leo * self.window - ctx.omega * (self.e_comm + self.e_uav + self.e_leo)


# decision variable -> the parts of an Evaluation that depend on it
_REACHES = {variable: [name for name, part in vars(Evaluation).items()
                       if isinstance(part, _Part) and variable in part.depends]
            for variable in Evaluation.VARIABLES}


def _float_array(value):
    return None if value is None else np.asarray(value, dtype=float)


# ---------------------------------------------------------------------------
# storage dynamics
# ---------------------------------------------------------------------------

def storage_terms(ctx: SlotContext, delta_tol, storage_free):
    """Nominal storage terms of a forwarding start (elementwise): the bits
    devices deliver before ``delta_tol``, the bits the uplink would ship
    after it, and the bits the buffer can forward (this slot's collection
    plus the backlog already stored)."""
    collected = ctx.dt_dev_rate_sum * delta_tol
    nominal_up = ctx.r_tol_leo * np.maximum(ctx.slot_seconds - delta_tol, 0.0)
    available = collected + (ctx.storage_capacity - storage_free)
    return collected, nominal_up, available


@dataclass
class CollectionStep:
    collected: np.ndarray   # bits gathered from DT devices this slot
    uplinked: np.ndarray    # bits actually forwarded to the satellite
    next_free: np.ndarray   # free buffer space at the next slot start


def dt_collection_step(dev_rate_sum, delta_tol, slot_seconds: float,
                       r_tol_leo, storage_free, storage_capacity: float) -> CollectionStep:
    """Advance DT buffers across a slot, elementwise over broadcastable
    per-UAV (or per-genome) arrays. ``slot_seconds`` and
    ``storage_capacity`` may be (B, 1) columns of a stacked context (see
    ``check_buffer_ranges``).

    Devices deliver ``dev_rate_sum * delta_tol`` bits, capped at the free
    space (the buffer cannot physically exceed its capacity). The uplink
    forwards at ``r_tol_leo`` for the remainder of the slot, bounded by what
    the buffer holds: this slot's collection plus the backlog already
    stored.
    """
    delta_tol = np.asarray(delta_tol, dtype=float)
    storage_free = np.asarray(storage_free, dtype=float)
    check_buffer_ranges(delta_tol, slot_seconds, storage_free, storage_capacity)
    collected, uplinked, next_free = buffer_transition(
        dev_rate_sum * delta_tol, r_tol_leo * (slot_seconds - delta_tol), storage_free,
        storage_capacity)
    return CollectionStep(collected, uplinked, next_free)


def check_buffer_ranges(delta_tol: np.ndarray, slot_seconds, storage_free: np.ndarray,
                        storage_capacity) -> None:
    """Raise ValueError unless every forwarding start lies in [0, slot
    length] and every free buffer space in [0, capacity]. The upper bounds
    may be (B, 1) columns of a stacked context, so they are compared
    element by element; min propagates NaN and every comparison with NaN
    is False, so NaN fails both checks."""
    if not (delta_tol.min() >= 0.0 and (delta_tol <= slot_seconds + 1e-12).all()):
        raise ValueError("delta_tol must lie in [0, slot length]")
    if not (storage_free.min() >= 0.0 and (storage_free <= storage_capacity + 1e-9).all()):
        raise ValueError("storage_free must lie in [0, capacity]")


def buffer_transition(requested, nominal_up, storage_free, storage_capacity):
    """The buffer transition of ``dt_collection_step``, without its range
    checks (``check_buffer_ranges``): (collected, uplinked, next_free)
    from the bits the devices request and the bits the uplink would ship
    over its window."""
    collected = np.minimum(requested, storage_free)
    backlog_cap = collected + (storage_capacity - storage_free)
    uplinked = np.minimum(nominal_up, backlog_cap)
    next_free = np.minimum(storage_free - collected + uplinked, storage_capacity)
    return collected, uplinked, np.maximum(next_free, 0.0)


# ---------------------------------------------------------------------------
# energy and the slot objective
# ---------------------------------------------------------------------------

def objective_terms(ctx: SlotContext, decision: SlotDecision) -> np.ndarray:
    """Per-UAV slot-utility contributions: DT bits shipped to the satellite
    minus omega times the UAV's slot energy. The DT term here is the nominal
    rate-times-window volume; the storage caps are handled as constraints
    (and by the metering in dt_collection_step)."""
    return Evaluation.of(ctx, decision).terms


def slot_objective_mbit(ctx: SlotContext, decision: SlotDecision):
    """Slot utility the optimizers maximize (sum over UAVs; one per row of a
    stacked context), with the data term in Mbit: the scale on which
    convergence thresholds and oracle tolerances operate."""
    return np.sum(objective_terms(ctx, decision), axis=-1) / 1e6


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------

@dataclass
class FeasibilityReport:
    """Whether a decision meets every slot constraint: a bool for a 1-D
    context, one per row for a stacked one. ``violations`` names each
    failed constraint with its worst excess; on a stacked context its
    values are per row, NaN (or False for a flag) on the rows that meet
    it."""

    ok: bool
    violations: dict

    def row_violations(self, rows):
        """The violations of each row that ``rows`` (one bool per row)
        selects, as a dict of its own: constraint name -> worst excess, or
        True for a flag. Rows not selected get {}. A 1-D report gives one
        dict."""
        if np.ndim(rows) == 0:
            return dict(self.violations) if rows else {}
        out = [{} for _ in rows]
        for name, values in self.violations.items():
            flag = values.dtype == bool
            for b in np.flatnonzero(rows & (values if flag else ~np.isnan(values))):
                out[b][name] = True if flag else float(values[b])
        return out


# the slacks within which a decision meets the deadline (seconds) and the
# buffer's storage and backlog bounds (bits), here and in the grid oracle
TIME_SLACK = 1e-9
BITS_SLACK = 1e-3


def check_feasible(ctx: SlotContext, decision: SlotDecision) -> FeasibilityReport:
    """Independent re-evaluation of every slot constraint on a decision,
    reduced over the UAV axis only."""
    d = decision
    stacked = d.gamma.ndim > 1
    viol = {}

    def holds(name, bad, excess=None):
        # per row: no UAV fails ``bad``; a failure is recorded with the
        # worst ``excess``, or as a flag without one
        row_bad = bad.any(axis=-1)
        if row_bad.any():
            if excess is None:
                viol[name] = row_bad if stacked else True
            else:
                worst = excess.max(axis=-1)
                viol[name] = np.where(row_bad, worst, np.nan) if stacked else float(worst)
        return ~row_bad if stacked else not row_bad

    budget = d.f_leo.sum(axis=-1, keepdims=True)
    gap = Evaluation.of(ctx, d).need - d.delta_tol
    collected, nominal_up, available = storage_terms(ctx, d.delta_tol, ctx.storage_free)
    ok = (holds("gamma_box", (d.gamma < -1e-12) | (d.gamma > 1.0 + 1e-12),
                np.abs(d.gamma - np.clip(d.gamma, 0, 1)))
          & holds("delta_box", (d.delta_tol < -1e-12)
                  | (d.delta_tol > ctx.slot_seconds + 1e-9))
          & holds("f_box", (d.f_leo < -1e-6)
                  | (d.f_leo > ctx.leo_cpu_hz * (1 + 1e-12) + 1e-6))
          & holds("p_box", (d.power < -1e-12) | (d.power > ctx.pmax_w + 1e-9))
          & holds("budget", ~(budget <= ctx.leo_cpu_hz * (1 + 1e-9) + 1e-6),
                  budget - ctx.leo_cpu_hz)
          & holds("deadline", ~(gap <= TIME_SLACK), gap)
          & holds("storage", ~(collected <= ctx.storage_free + BITS_SLACK),
                  collected - ctx.storage_free)
          & holds("backlog", ~(nominal_up <= available + BITS_SLACK), nominal_up - available))
    return FeasibilityReport(ok, viol)


# ---------------------------------------------------------------------------
# slot metering
# ---------------------------------------------------------------------------

@dataclass
class SlotMetrics:
    """Physical outcome of one slot under a decision. Metered on a stacked
    context, its arrays are (B, U) and ``utility_bits`` and the totals
    below are (B,); ``row`` splits it per cell."""

    uplinked_bits: np.ndarray    # UAV->LEO DT bits per UAV (storage-capped)
    energy_j: np.ndarray         # comm + on-board + satellite compute, per UAV
    ds_delay_s: np.ndarray       # completion time per UAV
    next_free: np.ndarray        # storage free space at next slot start
    utility_bits: float          # capped DT volume minus omega * energy

    def row(self, b: int) -> "SlotMetrics":
        """Row ``b`` of stacked metrics, as the metrics of one cell."""
        arrays = {f.name: getattr(self, f.name)[b].copy() for f in fields(self)
                  if f.name != "utility_bits"}
        return SlotMetrics(**arrays, utility_bits=float(self.utility_bits[b]))

    # the slot figures, reduced over the UAV axis: a float for one cell,
    # one per row of stacked metrics

    @property
    def total_energy_j(self):
        return _per_row(np.sum(self.energy_j, axis=-1))

    @property
    def total_uplinked_bits(self):
        return _per_row(np.sum(self.uplinked_bits, axis=-1))

    @property
    def mean_ds_delay_s(self):
        return _per_row(np.mean(self.ds_delay_s, axis=-1))


def _per_row(value):
    """A per-row reduction: a float for a 1-D context, else the (B,) array."""
    return float(value) if np.ndim(value) == 0 else value


def meter_slot(ctx: SlotContext, decision: SlotDecision) -> SlotMetrics:
    """Run the physical bookkeeping for one slot and price the utility from
    what actually moved (storage caps applied). Row by row on a stacked
    context, where the utility is one float per row; a 1-D context gives
    a float. A decision that offloads over a zero rate or a zero compute
    share cannot execute and raises ValueError."""
    step = dt_collection_step(ctx.dt_dev_rate_sum, decision.delta_tol, ctx.slot_seconds,
                              ctx.r_tol_leo, ctx.storage_free, ctx.storage_capacity)
    ev = Evaluation.of(ctx, decision)
    if np.any(ev.active & (ev.rate <= 0.0)):
        raise ValueError("offloading with zero DS uplink rate")
    if np.any(ev.active & (ev.f_leo <= 0.0)):
        raise ValueError("offloading with zero satellite compute share")
    energy = ev.e_comm + ev.e_uav + ev.e_leo
    # keepdims: a (B, 1) omega column multiplies (B, 1) sums, never (B,) ones
    utility = (np.sum(step.uplinked, axis=-1, keepdims=True)
               - ctx.omega * np.sum(energy, axis=-1, keepdims=True))[..., 0]
    return SlotMetrics(step.uplinked, energy, ev.need, step.next_free, _per_row(utility))
