"""Deterministic scenario generation.

A scenario fixes everything random for a whole run up front: device
counts and placement, per-slot small-scale fading draws, and per-slot DS
task sizes. Each UAV's devices lie in a disc around it and every UAV sees
the satellite at the same slant range, so a UAV's position enters no link
and is not drawn. The same (config, seed) pair always produces
bit-identical draws; sweep axes that only rescale parameters (bandwidths,
the Rician factor, task-size ranges, powers) leave the underlying draws
untouched so paired comparisons stay paired.

The device-to-UAV links are evaluated once per scenario, into (T, U)
tables; assembling a slot's context takes a row of each and adds the
buffer state. The tables are read-only, since every algorithm of a sweep
or comparison runs on the same scenario. A stack of B cells joins its
scenarios' tables into (T, B, U) ones once (``ContextStack``), and a slot's
stacked context is made of row views of those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import model
from .config import LIGHT_SPEED, ScenarioConfig


@dataclass
class NetworkState:
    """Immutable random inputs of one run, and the device-link tables
    derived from them. None of the tables depends on the buffer state;
    every array is read-only."""

    n_sens: np.ndarray            # (U,) DS device counts
    n_tol: np.ndarray             # (U,) DT device counts
    sum_d: np.ndarray             # (T, U) DS bits per UAV and slot
    l_off: np.ndarray             # (T, U) slowest DS device-to-UAV upload, s
    dt_dev_rate_sum: np.ndarray   # (T, U) summed DT device-to-UAV rates, bit/s
    sat_distance_m: float
    sat_gain: float


def _blocks(flat: np.ndarray, starts: np.ndarray, shape: tuple) -> np.ndarray:
    """Stack equal-shape segments of a flat draw: row i is the C-order
    ``shape`` block that begins at ``flat[starts[i]]``."""
    size = math.prod(shape)
    return flat[starts[:, None] + np.arange(size)].reshape(len(starts), *shape)


def generate_scenario(cfg: ScenarioConfig, seed: int) -> NetworkState:
    """Draw one scenario. RNG order (fixed): device counts, device offsets,
    fading per slot, task sizes per slot. Within each draw kind the devices
    go UAV by UAV, the DS devices of every UAV before the DT devices; each
    kind is one RNG call, which PCG64 makes equal to one call per UAV in
    that order."""
    rng = np.random.default_rng(seed)
    u = cfg.num_uavs
    t = cfg.num_slots
    n_sens = rng.integers(cfg.k_sens_min, cfg.k_sens_max + 1, size=u)
    n_tol = rng.integers(cfg.k_tol_min, cfg.k_tol_max + 1, size=u)
    counts = np.concatenate([n_sens, n_tol])   # DS links of each UAV, then DT
    first = np.cumsum(counts) - counts         # index of each one's first device
    n_dev = int(counts.sum())

    # uniform in the disc around the UAV ground projection; 3-D range to
    # the UAV includes the altitude
    r = cfg.device_disc_radius_m * np.sqrt(rng.uniform(size=n_dev))
    dist = np.sqrt(r ** 2 + cfg.uav_altitude_m ** 2)

    # CN(0,1) scatter, per UAV a (T, K) real block then a (T, K) imaginary
    # one; the Rician mixing happens here so the underlying draws are shared
    # across rician_k0 sweep values
    normals = rng.normal(0.0, math.sqrt(0.5), size=2 * t * n_dev)
    imag = np.repeat(np.tile([False, True], counts.size), np.repeat(t * counts, 2))
    scatter = np.empty(t * n_dev, dtype=complex)
    scatter.real = normals[~imag]
    scatter.imag = normals[imag]
    # flat; a (T, K) block per UAV and link kind, at t * first
    fade = model.rician_fading_gain(cfg.rician_k0, scatter)

    lo, hi = cfg.ds_size_min_bits, cfg.ds_size_max_bits
    # flat; a (T, K) block per UAV at t * first
    bits = lo + rng.uniform(size=t * int(n_sens.sum())) * (hi - lo)

    def rates(links, k, power_w, band_hz):
        # (U_k, T, K) device-to-UAV rates of the K-device links whose first
        # devices are ``links``
        gain = model.device_uav_gain(_blocks(dist, links, (1, k)), cfg.pathloss_coeff,
                                     cfg.pathloss_exp, _blocks(fade, t * links, (t, k)))
        return model.device_uav_rate(power_w, gain, cfg.noise_w, band_hz, k)

    # one block per device count K: a row reduces over its K devices
    # exactly as that UAV's 1-D array would, which zero padding to the
    # largest K would not (numpy's pairwise sum unrolls from 8 terms on)
    sum_d = np.empty((t, u))
    l_off = np.empty((t, u))
    dt_rate_sum = np.empty((t, u))
    for k in range(cfg.k_sens_min, cfg.k_sens_max + 1):
        idx = np.flatnonzero(n_sens == k)
        if idx.size:
            rate = rates(first[idx], k, cfg.device_power_sens_w,
                         cfg.beta * cfg.uav_bandwidth_hz)
            block = _blocks(bits, t * first[idx], (t, k))
            sum_d[:, idx] = block.sum(axis=-1).T
            with np.errstate(divide="ignore"):
                upload = np.where(block > 0, block / np.maximum(rate, 1e-300), 0.0)
            l_off[:, idx] = upload.max(axis=-1).T
    for k in range(cfg.k_tol_min, cfg.k_tol_max + 1):
        idx = np.flatnonzero(n_tol == k)
        if idx.size:
            rate = rates(first[u + idx], k, cfg.device_power_tol_w,
                         (1.0 - cfg.beta) * cfg.uav_bandwidth_hz)
            dt_rate_sum[:, idx] = rate.sum(axis=-1).T

    d_sat = model.uav_sat_distance(cfg.sat_altitude_m, cfg.earth_radius_m,
                                   cfg.elevation_rad)
    g_sat = model.uav_leo_gain(d_sat, cfg.ref_gain, cfg.antenna_gain,
                               cfg.sat_ref_distance_m)

    return NetworkState(*map(_read_only, (n_sens, n_tol, sum_d, l_off, dt_rate_sum)),
                        d_sat, g_sat)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def build_slot_context(cfg: ScenarioConfig, state: NetworkState, slot: int,
                       storage_free: np.ndarray) -> model.SlotContext:
    """One slot's context: that slot's row of the scenario's device-link
    tables, the current buffer state and the config scalars."""
    u = cfg.num_uavs
    sat_gain = np.full(u, state.sat_gain)
    r_tol_leo = model.uav_leo_rate(cfg.dt_uplink_power_w, sat_gain, cfg.noise_w,
                                   cfg.leo_bandwidth_hz, u)
    return model.SlotContext(
        slot_seconds=cfg.slot_seconds,
        omega=cfg.omega,
        sum_d=state.sum_d[slot].copy(),
        l_off=state.l_off[slot].copy(),
        dt_dev_rate_sum=state.dt_dev_rate_sum[slot].copy(),
        r_tol_leo=np.asarray(r_tol_leo, dtype=float),
        sat_gain=sat_gain,
        l_prop=state.sat_distance_m / LIGHT_SPEED,
        leo_bandwidth_hz=cfg.leo_bandwidth_hz,
        noise_w=cfg.noise_w,
        pmax_w=cfg.pmax_w,
        dt_uplink_power_w=cfg.dt_uplink_power_w,
        cycles_per_bit=cfg.cycles_per_bit,
        uav_cpu_hz=cfg.uav_cpu_hz,
        leo_cpu_hz=cfg.leo_cpu_hz,
        switch_cap=cfg.switch_cap,
        storage_free=np.asarray(storage_free, dtype=float).copy(),
        storage_capacity=cfg.storage_capacity_bits,
    )


class ContextStack:
    """The slot contexts of B cells that share ``num_uavs`` and
    ``num_slots``, solved as one stack. The scenarios' device-link tables
    are joined into read-only (T, B, U) tables, and the config scalars,
    ``sat_gain`` and ``r_tol_leo`` are stacked, once per stack: from the
    cells' slot-0 contexts through ``SlotContext.stack``, so a scalar that
    every row shares stays a scalar. Slot t's context is row t of each
    table, as read-only views, plus the carried (B, U) buffer state."""

    def __init__(self, cfgs: list, states: list):
        u = cfgs[0].num_uavs
        base = model.SlotContext.stack(
            [build_slot_context(c, s, 0, np.full(u, c.storage_initial_free_bits))
             for c, s in zip(cfgs, states)])
        for array in (base.sat_gain, base.r_tol_leo, base.storage_free):
            _read_only(array)
        self.base = base
        self.tables = {name: _read_only(np.stack([getattr(s, name) for s in states], axis=1))
                       for name in ("sum_d", "l_off", "dt_dev_rate_sum")}

    @property
    def initial_free(self) -> np.ndarray:
        """(B, U) free buffer space at the first slot start."""
        return self.base.storage_free

    def slot(self, t: int, storage_free: np.ndarray) -> model.SlotContext:
        """Slot ``t``'s stacked context at the given (B, U) buffer state,
        which it takes as a read-only view."""
        return replace(self.base, storage_free=_read_only(storage_free.view()),
                       **{name: table[t] for name, table in self.tables.items()})
