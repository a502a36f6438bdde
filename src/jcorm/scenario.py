"""Deterministic scenario generation.

A scenario fixes everything random for a whole run up front: UAV and
device placement, per-slot small-scale fading draws, and per-slot DS task
sizes. The same (config, seed) pair always produces bit-identical draws;
sweep axes that only rescale parameters (bandwidths, the Rician factor,
task-size ranges, powers) leave the underlying draws untouched so paired
comparisons stay paired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .config import LIGHT_SPEED, ScenarioConfig


@dataclass
class NetworkState:
    """Immutable random inputs of one run."""

    uav_xy: np.ndarray            # (U, 2) positions, m
    n_sens: np.ndarray            # (U,) DS device counts
    n_tol: np.ndarray             # (U,) DT device counts
    sens_dist: list               # per UAV: (K_sens,) 3-D device-UAV distances
    tol_dist: list                # per UAV: (K_tol,) distances
    sens_fade: list               # per UAV: (T, K_sens) squared fading gains
    tol_fade: list                # per UAV: (T, K_tol) squared fading gains
    ds_bits: list                 # per UAV: (T, K_sens) task volumes, bits
    sat_distance_m: float
    sat_gain: float
    num_slots: int


def _grid_positions(num: int, ax: float, ay: float) -> np.ndarray:
    cols = int(math.ceil(math.sqrt(num * ax / ay))) if ay > 0 else num
    cols = max(cols, 1)
    rows = int(math.ceil(num / cols))
    xs = (np.arange(cols) + 0.5) * (ax / cols)
    ys = (np.arange(rows) + 0.5) * (ay / rows)
    pts = [(x, y) for y in ys for x in xs]
    return np.array(pts[:num])


def generate_scenario(cfg: ScenarioConfig, seed: int) -> NetworkState:
    """Draw one scenario. RNG order (fixed): placement, device counts,
    device offsets, fading per slot, task sizes per slot."""
    rng = np.random.default_rng(seed)
    u = cfg.num_uavs
    t = cfg.num_slots

    if cfg.uav_placement == "grid":
        xy = _grid_positions(u, cfg.area_x_m, cfg.area_y_m)
        if cfg.placement_jitter_m > 0:
            xy = xy + rng.uniform(-cfg.placement_jitter_m, cfg.placement_jitter_m,
                                  size=xy.shape)
            xy[:, 0] = np.clip(xy[:, 0], 0, cfg.area_x_m)
            xy[:, 1] = np.clip(xy[:, 1], 0, cfg.area_y_m)
    else:
        xy = np.column_stack([rng.uniform(0, cfg.area_x_m, u),
                              rng.uniform(0, cfg.area_y_m, u)])

    n_sens = rng.integers(cfg.k_sens_min, cfg.k_sens_max + 1, size=u)
    n_tol = rng.integers(cfg.k_tol_min, cfg.k_tol_max + 1, size=u)

    def disc_distances(count: int) -> np.ndarray:
        # uniform in the disc around the UAV ground projection; 3-D range to
        # the UAV includes the altitude
        r = cfg.device_disc_radius_m * np.sqrt(rng.uniform(size=count))
        return np.sqrt(r ** 2 + cfg.uav_altitude_m ** 2)

    sens_dist = [disc_distances(int(n)) for n in n_sens]
    tol_dist = [disc_distances(int(n)) for n in n_tol]

    def fading(count: int) -> np.ndarray:
        # CN(0,1) scatter component; the Rician mixing happens here so the
        # underlying draws are shared across rician_k0 sweep values
        scatter = np.empty((t, count), dtype=complex)
        scatter.real = rng.normal(0.0, math.sqrt(0.5), size=(t, count))
        scatter.imag = rng.normal(0.0, math.sqrt(0.5), size=(t, count))
        return model.rician_fading_gain(cfg.rician_k0, scatter)

    sens_fade = [fading(int(n)) for n in n_sens]
    tol_fade = [fading(int(n)) for n in n_tol]

    ds_bits = []
    lo, hi = cfg.ds_size_min_bits, cfg.ds_size_max_bits
    for n in n_sens:
        raw = rng.uniform(size=(t, int(n)))
        ds_bits.append(lo + raw * (hi - lo))

    d_sat = model.uav_sat_distance(cfg.sat_altitude_m, cfg.earth_radius_m,
                                   cfg.elevation_rad)
    g_sat = model.uav_leo_gain(d_sat, cfg.ref_gain, cfg.antenna_gain,
                               cfg.sat_ref_distance_m)

    return NetworkState(xy, n_sens, n_tol, sens_dist, tol_dist,
                        sens_fade, tol_fade, ds_bits, d_sat, g_sat, t)


def build_slot_context(cfg: ScenarioConfig, state: NetworkState, slot: int,
                       storage_free: np.ndarray) -> model.SlotContext:
    """Evaluate rates/loads for one slot given the current buffer state."""
    u = cfg.num_uavs
    sum_d = np.zeros(u)
    l_off = np.zeros(u)
    dt_rate_sum = np.zeros(u)
    for i in range(u):
        g_sens = model.device_uav_gain(state.sens_dist[i], cfg.pathloss_coeff,
                                       cfg.pathloss_exp, state.sens_fade[i][slot])
        r_sens = model.device_uav_rate(cfg.device_power_sens_w, g_sens, cfg.noise_w,
                                       cfg.beta * cfg.uav_bandwidth_hz,
                                       int(state.n_sens[i]))
        bits = state.ds_bits[i][slot]
        sum_d[i] = float(np.sum(bits))
        with np.errstate(divide="ignore"):
            upload = np.where(bits > 0, bits / np.maximum(r_sens, 1e-300), 0.0)
        l_off[i] = float(np.max(upload)) if len(bits) else 0.0

        g_tol = model.device_uav_gain(state.tol_dist[i], cfg.pathloss_coeff,
                                      cfg.pathloss_exp, state.tol_fade[i][slot])
        r_tol = model.device_uav_rate(cfg.device_power_tol_w, g_tol, cfg.noise_w,
                                      (1.0 - cfg.beta) * cfg.uav_bandwidth_hz,
                                      int(state.n_tol[i]))
        dt_rate_sum[i] = float(np.sum(r_tol))

    sat_gain = np.full(u, state.sat_gain)
    r_tol_leo = model.uav_leo_rate(cfg.dt_uplink_power_w, sat_gain, cfg.noise_w,
                                   cfg.leo_bandwidth_hz, u)
    return model.SlotContext(
        slot_seconds=cfg.slot_seconds,
        omega=cfg.omega,
        sum_d=sum_d,
        l_off=l_off,
        dt_dev_rate_sum=dt_rate_sum,
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
