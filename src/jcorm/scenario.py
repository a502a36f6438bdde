"""Deterministic scenario generation.

A scenario fixes everything random for a whole run up front: device
counts and placement, per-slot small-scale fading draws, and per-slot DS
task sizes. Each UAV's devices lie in a disc around it and every UAV sees
the satellite at the same slant range, so a UAV's position enters no link
and is not drawn. The same (config, seed) pair always produces
bit-identical draws; sweep axes that only rescale parameters (bandwidths,
the Rician factor, task-size ranges, powers) leave the underlying draws
untouched so paired comparisons stay paired.

Scenarios that differ only in the seed are drawn as one batch
(``generate_scenarios``), each seed from its own generator. The
device-to-UAV links are evaluated once per batch, one block per device
count, into (T, U) tables per scenario; assembling a slot's context takes
a row of each and adds the buffer state. The tables are read-only, since
every algorithm of a sweep or comparison runs on the same scenario. A
stack of B cells joins its scenarios' tables into (T, B, U) ones once
(``ContextStack``), and a slot's stacked context is made of row views of
those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import model
from .config import DEVICE_LINK_KEYS, LIGHT_SPEED, ConfigError, ScenarioConfig


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


# most device-slots (devices x slots) whose draws a batch holds at once,
# and whose links one block evaluates at once. Generation and the stacks
# that run on its scenarios come one after the other, so peak memory is
# the larger of the two. A device-slot's draws and link temporaries take
# about 34 B, a UAV-slot of a part about 100 B (README, "Parts and
# batches"), so bounding the device-slots by the same count as the
# harness bounds a part's UAV-slots keeps the draws below what a full
# part holds.
BATCH_DEVICE_SLOTS = 1 << 16


def _blocks(flat: np.ndarray, starts: np.ndarray, shape: tuple) -> np.ndarray:
    """Stack equal-shape segments of a flat draw: row i is the C-order
    ``shape`` block that begins at ``flat[starts[i]]``. The rows are
    gathered from a view of every window of ``flat``, so ``starts`` is the
    only index array."""
    size = math.prod(shape)
    windows = np.ndarray((flat.size - size + 1, size), dtype=flat.dtype, buffer=flat,
                         strides=(flat.itemsize, flat.itemsize))
    return windows[starts].reshape(len(starts), *shape)


# config fields that generate_scenarios does not read: cells that differ
# only in these draw the same scenario
UNREAD_FIELDS = {"slot_seconds", "sat_speed_mps", "leo_bandwidth_hz", "pmax_w",
                 "dt_uplink_power_w", "cycles_per_bit", "uav_cpu_hz", "leo_cpu_hz",
                 "switch_cap", "storage_capacity_bits", "storage_initial_free_bits",
                 "omega", "algo", "solver_mode", "tol", "ga"}


def generate_scenario(cfg: ScenarioConfig, seed: int) -> NetworkState:
    """Draw one scenario: a batch of one (see ``generate_scenarios``)."""
    return generate_scenarios(cfg, [seed])[0]


def generate_scenarios(cfg: ScenarioConfig, seeds) -> list:
    """Draw the scenario of ``cfg`` under each seed, as one batch; each
    comes out bit for bit as if drawn alone.

    Each seed has its own generator, called in a fixed order: device
    counts, device offsets, fading per slot, task sizes per slot. Within
    each draw kind the devices go UAV by UAV, the DS devices of every UAV
    before the DT devices; each kind is one RNG call, which PCG64 makes
    equal to one call per UAV in that order. The device counts of every
    seed are drawn first. The seeds are then drawn and evaluated in
    near-equal chunks of at most ``BATCH_DEVICE_SLOTS`` device-slots
    (devices x slots), which bounds the draws held at once (see
    ``_draw_links``); the chunks write into the batch's (T, B U) tables,
    of which each seed's (T, U) tables are read-only views."""
    seeds = list(seeds)
    if not seeds:
        return []
    u, t, b = cfg.num_uavs, cfg.num_slots, len(seeds)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    # (B, 2U): the DS links of each UAV of a seed, then its DT links
    counts = _read_only(np.array([
        np.concatenate([rng.integers(cfg.k_sens_min, cfg.k_sens_max + 1, size=u),
                        rng.integers(cfg.k_tol_min, cfg.k_tol_max + 1, size=u)])
        for rng in rngs]))
    tables = np.empty((3, t, b * u))   # sum_d, l_off, dt_dev_rate_sum
    chunks = -(-t * int(counts.sum()) // BATCH_DEVICE_SLOTS)
    for chunk in np.array_split(np.arange(b), min(max(chunks, 1), b)):
        _draw_links(cfg, [rngs[i] for i in chunk], counts[chunk],
                    tables[:, :, chunk[0] * u:(chunk[-1] + 1) * u])
    _read_only(tables)

    d_sat = model.uav_sat_distance(cfg.sat_altitude_m, cfg.earth_radius_m,
                                   cfg.elevation_rad)
    g_sat = model.uav_leo_gain(d_sat, cfg.ref_gain, cfg.antenna_gain,
                               cfg.sat_ref_distance_m)
    return [NetworkState(counts[i, :u], counts[i, u:], *tables[:, :, i * u:(i + 1) * u],
                         d_sat, g_sat)
            for i in range(b)]


def _draw_links(cfg: ScenarioConfig, rngs: list, counts: np.ndarray,
                out: np.ndarray) -> None:
    """Draw the device offsets, fading and DS task sizes of a chunk of
    seeds from their generators, and write the chunk's (T, n U) link
    tables into ``out`` (sum_d, l_off, dt_dev_rate_sum). The draws of the
    seeds lie end to end in one flat array per kind, and the links of every
    UAV of the chunk with K devices are evaluated in blocks of at most
    ``BATCH_DEVICE_SLOTS`` device-slots (see ``_link_blocks``), which
    bounds the link temporaries."""
    u, t = cfg.num_uavs, cfg.num_slots
    links = counts.ravel()
    first = (np.cumsum(links) - links).reshape(counts.shape)   # each link's first device
    # the ends of each seed's devices and DS devices in the chunk
    dev_end = np.cumsum(counts.sum(axis=1))
    ds_end = np.cumsum(counts[:, :u].sum(axis=1))
    unit = np.empty(dev_end[-1])
    normals = np.empty(2 * t * dev_end[-1])
    bits = np.empty(t * ds_end[-1])
    for rng, d0, d1, s0, s1 in zip(rngs, np.r_[0, dev_end[:-1]], dev_end,
                                   np.r_[0, ds_end[:-1]], ds_end):
        rng.random(out=unit[d0:d1])
        # CN(0,1) scatter: per UAV and link kind, a (T, K) real block then a
        # (T, K) imaginary one, so a link's real block starts at 2 T first
        rng.standard_normal(out=normals[2 * t * d0:2 * t * d1])
        rng.random(out=bits[t * s0:t * s1])
    # uniform in the disc around the UAV ground projection; 3-D range to
    # the UAV includes the altitude
    r = cfg.device_disc_radius_m * np.sqrt(unit)
    dist = np.sqrt(r ** 2 + cfg.uav_altitude_m ** 2)
    # random() and standard_normal() x sqrt(0.5) are the bits of uniform()
    # and normal(0, sqrt(0.5)), up to the sign of an exact zero
    normals *= math.sqrt(0.5)
    lo, hi = cfg.ds_size_min_bits, cfg.ds_size_max_bits
    bits *= hi - lo
    bits += lo       # lo + uniform * (hi - lo); a (T, K) block per DS link

    def rates(link_first, k, power_w, band_hz):
        # (n, T, K) device-to-UAV rates of the K-device links whose first
        # devices are ``link_first``; the Rician mixing happens here, so
        # the draws are shared across rician_k0 sweep values
        real = 2 * t * link_first
        fade = model.rician_fading_gain(cfg.rician_k0, _blocks(normals, real, (t, k)),
                                        _blocks(normals, real + t * k, (t, k)))
        with np.errstate(over="ignore", invalid="ignore"):
            gain = model.device_uav_gain(_blocks(dist, link_first, (1, k)), cfg.pathloss_coeff,
                                         cfg.pathloss_exp, fade)
            rate = model.shannon_rate(power_w, gain, cfg.noise_w, band_hz, k)
        if not np.isfinite(rate).all():
            # validate() checks the closest link at unit fading only
            raise ConfigError(f"{DEVICE_LINK_KEYS}: a device link's gain or SNR overflows")
        return rate

    # one block per device count K: a row reduces over its K devices
    # exactly as that UAV's 1-D array would, which zero padding to the
    # largest K would not (numpy's pairwise sum unrolls from 8 terms on)
    sum_d, l_off, dt_rate_sum = out
    n_sens = counts[:, :u].ravel()
    ds_first = first[:, :u].ravel()
    ds_bits_first = np.cumsum(n_sens) - n_sens
    ds_band = cfg.beta * cfg.uav_bandwidth_hz
    for k, idx in _link_blocks(n_sens, t):
        rate = rates(ds_first[idx], k, cfg.device_power_sens_w, ds_band)
        block = _blocks(bits, t * ds_bits_first[idx], (t, k))
        if ds_band > 0.0 and np.any((block > 0) & (rate <= 0.0)):
            # a device with spectrum whose rate underflows would never
            # finish its upload, and the delays would overflow
            raise ConfigError("a DS device's rate to its UAV underflows to 0 under a DS "
                              "load; raise device_power_sens_w or pathloss_coeff, or "
                              "lower pathloss_exp")
        sum_d[:, idx] = block.sum(axis=-1).T
        with np.errstate(divide="ignore"):
            upload = np.where(block > 0, block / np.maximum(rate, 1e-300), 0.0)
        l_off[:, idx] = upload.max(axis=-1).T
    n_tol = counts[:, u:].ravel()
    dt_first = first[:, u:].ravel()
    for k, idx in _link_blocks(n_tol, t):
        rate = rates(dt_first[idx], k, cfg.device_power_tol_w,
                     (1.0 - cfg.beta) * cfg.uav_bandwidth_hz)
        dt_rate_sum[:, idx] = rate.sum(axis=-1).T


def _link_blocks(counts: np.ndarray, t: int):
    """(K, links) for each block of the links with K devices: the links of
    each device count in order, in row chunks of at most
    ``BATCH_DEVICE_SLOTS`` device-slots and at least one link. A row's
    values do not depend on the chunk it is evaluated in."""
    for k in np.flatnonzero(np.bincount(counts)).tolist():
        idx = np.flatnonzero(counts == k)
        step = max(1, BATCH_DEVICE_SLOTS // max(1, t * k))
        for start in range(0, len(idx), step):
            yield k, idx[start:start + step]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def build_slot_context(cfg: ScenarioConfig, state: NetworkState, slot: int,
                       storage_free: np.ndarray) -> model.SlotContext:
    """One slot's context: that slot's row of the scenario's device-link
    tables, the current buffer state and the config scalars."""
    u = cfg.num_uavs
    sat_gain = np.full(u, state.sat_gain)
    r_tol_leo = model.shannon_rate(cfg.dt_uplink_power_w, sat_gain, cfg.noise_w,
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

    def rows(self, slots: np.ndarray, cells: np.ndarray) -> model.SlotContext:
        """One stacked context of the rows (slots[i], cells[i]), without a
        buffer state: its ``storage_free`` is NaN, so a solve on it must
        be given its ``storage_bounds``."""
        picked = {f.name: value[cells] for f in fields(self.base)
                  if isinstance(value := getattr(self.base, f.name), np.ndarray)}
        picked.update({name: table[slots, cells] for name, table in self.tables.items()})
        picked["storage_free"] = np.full(picked["sum_d"].shape, np.nan)
        return replace(self.base, **picked)
