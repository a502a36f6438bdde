"""Scenario generation against a per-UAV reference: the draws made one RNG
call per UAV, and each slot's context assembled by a loop over the UAVs.
The batched generator and its device-link tables must reproduce both
exactly, field by field."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcorm import model, scenario
from jcorm.config import LIGHT_SPEED, ScenarioConfig
from jcorm.scenario import build_slot_context, generate_scenario, generate_scenarios


def reference_draws(cfg, seed):
    """Per-UAV draws in the generator's RNG order."""
    rng = np.random.default_rng(seed)
    u, t = cfg.num_uavs, cfg.num_slots
    n_sens = rng.integers(cfg.k_sens_min, cfg.k_sens_max + 1, size=u)
    n_tol = rng.integers(cfg.k_tol_min, cfg.k_tol_max + 1, size=u)

    def disc_distances(count):
        r = cfg.device_disc_radius_m * np.sqrt(rng.uniform(size=count))
        return np.sqrt(r ** 2 + cfg.uav_altitude_m ** 2)

    sens_dist = [disc_distances(int(n)) for n in n_sens]
    tol_dist = [disc_distances(int(n)) for n in n_tol]

    def fading(count):
        real = rng.normal(0.0, math.sqrt(0.5), size=(t, count))
        imag = rng.normal(0.0, math.sqrt(0.5), size=(t, count))
        return model.rician_fading_gain(cfg.rician_k0, real, imag)

    sens_fade = [fading(int(n)) for n in n_sens]
    tol_fade = [fading(int(n)) for n in n_tol]
    lo, hi = cfg.ds_size_min_bits, cfg.ds_size_max_bits
    ds_bits = [lo + rng.uniform(size=(t, int(n))) * (hi - lo) for n in n_sens]
    d_sat = model.uav_sat_distance(cfg.sat_altitude_m, cfg.earth_radius_m,
                                   cfg.elevation_rad)
    g_sat = model.uav_leo_gain(d_sat, cfg.ref_gain, cfg.antenna_gain,
                               cfg.sat_ref_distance_m)
    return dict(n_sens=n_sens, n_tol=n_tol, sens_dist=sens_dist,
                tol_dist=tol_dist, sens_fade=sens_fade, tol_fade=tol_fade,
                ds_bits=ds_bits, sat_distance_m=d_sat, sat_gain=g_sat)


def reference_context(cfg, ref, slot, storage_free):
    """One slot's context, evaluating every UAV's device links in a loop."""
    u = cfg.num_uavs
    sum_d = np.zeros(u)
    l_off = np.zeros(u)
    dt_rate_sum = np.zeros(u)
    for i in range(u):
        g_sens = model.device_uav_gain(ref["sens_dist"][i], cfg.pathloss_coeff,
                                       cfg.pathloss_exp, ref["sens_fade"][i][slot])
        r_sens = model.device_uav_rate(cfg.device_power_sens_w, g_sens, cfg.noise_w,
                                       cfg.beta * cfg.uav_bandwidth_hz,
                                       int(ref["n_sens"][i]))
        bits = ref["ds_bits"][i][slot]
        sum_d[i] = float(np.sum(bits))
        with np.errstate(divide="ignore"):
            upload = np.where(bits > 0, bits / np.maximum(r_sens, 1e-300), 0.0)
        l_off[i] = float(np.max(upload)) if len(bits) else 0.0
        g_tol = model.device_uav_gain(ref["tol_dist"][i], cfg.pathloss_coeff,
                                      cfg.pathloss_exp, ref["tol_fade"][i][slot])
        r_tol = model.device_uav_rate(cfg.device_power_tol_w, g_tol, cfg.noise_w,
                                      (1.0 - cfg.beta) * cfg.uav_bandwidth_hz,
                                      int(ref["n_tol"][i]))
        dt_rate_sum[i] = float(np.sum(r_tol))
    sat_gain = np.full(u, ref["sat_gain"])
    r_tol_leo = model.uav_leo_rate(cfg.dt_uplink_power_w, sat_gain, cfg.noise_w,
                                   cfg.leo_bandwidth_hz, u)
    return model.SlotContext(
        slot_seconds=cfg.slot_seconds, omega=cfg.omega, sum_d=sum_d, l_off=l_off,
        dt_dev_rate_sum=dt_rate_sum, r_tol_leo=np.asarray(r_tol_leo, dtype=float),
        sat_gain=sat_gain, l_prop=ref["sat_distance_m"] / LIGHT_SPEED,
        leo_bandwidth_hz=cfg.leo_bandwidth_hz, noise_w=cfg.noise_w, pmax_w=cfg.pmax_w,
        dt_uplink_power_w=cfg.dt_uplink_power_w, cycles_per_bit=cfg.cycles_per_bit,
        uav_cpu_hz=cfg.uav_cpu_hz, leo_cpu_hz=cfg.leo_cpu_hz, switch_cap=cfg.switch_cap,
        storage_free=np.asarray(storage_free, dtype=float).copy(),
        storage_capacity=cfg.storage_capacity_bits)


def assert_identical(a, b, what):
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray), what
        assert a.dtype == b.dtype, what
        assert np.array_equal(a, b), what
    else:
        assert type(a) is type(b), what
        assert a == b, what


EQUIVALENCE_CASES = [
    dict(),
    dict(num_uavs=96),
    # groups of 8 and more devices take numpy's unrolled pairwise sum
    dict(num_uavs=17, k_tol_max=40, k_sens_max=12),
    dict(beta=0.0),
    dict(beta=1.0),
    dict(ds_size_min_bits=0.0, ds_size_max_bits=0.0),
    dict(pathloss_exp=3.3, rician_k0=0.0, uav_bandwidth_hz=2e5),
]


class TestMatchesPerUavReference:
    @pytest.mark.parametrize("overrides", EQUIVALENCE_CASES,
                             ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()) or "defaults")
    def test_state_and_every_context_field(self, overrides):
        cfg = ScenarioConfig(**overrides)
        for seed in (0, 1, 7):
            state = generate_scenario(cfg, seed)
            ref = reference_draws(cfg, seed)
            for name in ("n_sens", "n_tol", "sat_distance_m", "sat_gain"):
                assert_identical(getattr(state, name), ref[name], name)
            free = np.linspace(0.0, cfg.storage_capacity_bits, cfg.num_uavs)
            for slot in range(cfg.num_slots):
                ctx = build_slot_context(cfg, state, slot, free)
                expected = reference_context(cfg, ref, slot, free)
                for f in dataclasses.fields(model.SlotContext):
                    assert_identical(getattr(ctx, f.name), getattr(expected, f.name),
                                     f"seed {seed} slot {slot} {f.name}")

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(u=st.integers(1, 20), t=st.sampled_from([0, 1, 3]),
           k_sens=st.sampled_from([(1, 5), (3, 3)]), k_tol=st.sampled_from([(5, 10), (9, 9)]),
           rician_k0=st.sampled_from([0.0, 1e6]), beta=st.sampled_from([0.0, 0.5, 1.0]),
           ds_bits=st.sampled_from([(0.0, 0.0), (1e6, 5e6)]),
           seeds=st.lists(st.integers(0, 2 ** 32), min_size=1, max_size=4, unique=True),
           batch_device_slots=st.sampled_from([1, 40, 1 << 30]))
    def test_every_seed_of_a_batch(self, u, t, k_sens, k_tol, rician_k0, beta, ds_bits,
                                   seeds, batch_device_slots):
        # the batch is drawn in chunks of at most batch_device_slots
        cfg = ScenarioConfig(num_uavs=u, num_slots=t, k_sens_min=k_sens[0],
                             k_sens_max=k_sens[1], k_tol_min=k_tol[0], k_tol_max=k_tol[1],
                             rician_k0=rician_k0, beta=beta, ds_size_min_bits=ds_bits[0],
                             ds_size_max_bits=ds_bits[1])
        real = scenario.BATCH_DEVICE_SLOTS
        scenario.BATCH_DEVICE_SLOTS = batch_device_slots
        try:
            states = generate_scenarios(cfg, seeds)
        finally:
            scenario.BATCH_DEVICE_SLOTS = real
        assert len(states) == len(seeds)
        free = np.linspace(0.0, cfg.storage_capacity_bits, u)
        for seed, state in zip(seeds, states):
            ref = reference_draws(cfg, seed)
            for name, value in vars(state).items():
                if isinstance(value, np.ndarray):
                    assert not value.flags.writeable, name
            for name in ("n_sens", "n_tol", "sat_distance_m", "sat_gain"):
                assert_identical(getattr(state, name), ref[name], name)
            assert state.sum_d.shape == state.l_off.shape == state.dt_dev_rate_sum.shape == (t, u)
            for slot in range(t):
                ctx = build_slot_context(cfg, state, slot, free)
                expected = reference_context(cfg, ref, slot, free)
                for f in dataclasses.fields(model.SlotContext):
                    assert_identical(getattr(ctx, f.name), getattr(expected, f.name),
                                     f"seed {seed} slot {slot} {f.name}")

    def test_empty_horizon(self):
        cfg = ScenarioConfig(num_slots=0, num_uavs=4)
        state = generate_scenario(cfg, 3)
        ref = reference_draws(cfg, 3)
        assert_identical(state.n_tol, ref["n_tol"], "n_tol")
        assert state.sum_d.shape == state.l_off.shape == state.dt_dev_rate_sum.shape == (0, 4)

    def test_context_owns_its_arrays(self):
        cfg = ScenarioConfig()
        state = generate_scenario(cfg, 0)
        ctx = build_slot_context(cfg, state, 2, np.zeros(cfg.num_uavs))
        ctx.sum_d[:] = -1.0
        ctx.l_off[:] = -1.0
        ctx.dt_dev_rate_sum[:] = -1.0
        assert np.all(state.sum_d[2] > 0)
        assert np.all(state.l_off[2] > 0)
        assert np.all(state.dt_dev_rate_sum[2] > 0)


class TestDeviceLinkEvaluations:
    """The device links are evaluated once per scenario, one block per
    device count, never per UAV or per slot."""

    def test_gain_calls_per_scenario_and_per_context(self, monkeypatch):
        calls = []
        gain = model.device_uav_gain

        def counted(*args, **kwargs):
            calls.append(1)
            return gain(*args, **kwargs)

        monkeypatch.setattr(model, "device_uav_gain", counted)
        cfg = ScenarioConfig(num_uavs=96)
        state = generate_scenario(cfg, 0)
        groups = ((cfg.k_sens_max - cfg.k_sens_min + 1)
                  + (cfg.k_tol_max - cfg.k_tol_min + 1))
        assert 0 < len(calls) <= groups
        calls.clear()
        free = np.full(cfg.num_uavs, cfg.storage_initial_free_bits)
        for slot in range(cfg.num_slots):
            build_slot_context(cfg, state, slot, free)
        assert calls == []


class TestLinkBlockChunks:
    """Each device count's links are evaluated in row chunks of at most
    ``BATCH_DEVICE_SLOTS`` device-slots, which bounds the link temporaries
    and leaves every table bit-identical."""

    TABLES = ("n_sens", "n_tol", "sum_d", "l_off", "dt_dev_rate_sum")

    @pytest.mark.parametrize("cap", [1, 50, 1000])
    def test_tables_do_not_depend_on_the_chunks(self, monkeypatch, cap):
        # 96 UAVs with 1-9 devices each: about ten links per device count
        cfg = ScenarioConfig(num_uavs=96, k_sens_min=1, k_sens_max=9, k_tol_min=5,
                             k_tol_max=12)
        want = generate_scenarios(cfg, [0, 1, 2])
        chunks = []
        real = scenario._link_blocks

        def counted(counts, t):
            for k, idx in real(counts, t):
                assert len(idx) == 1 or len(idx) * t * k <= cap
                chunks.append(len(idx))
                yield k, idx

        monkeypatch.setattr(scenario, "BATCH_DEVICE_SLOTS", cap)
        monkeypatch.setattr(scenario, "_link_blocks", counted)
        got = generate_scenarios(cfg, [0, 1, 2])
        assert len(chunks) > 2 * (9 + 8)     # more than one chunk per device count
        for a, b in zip(want, got):
            for name in self.TABLES:
                assert_identical(getattr(b, name), getattr(a, name), name)

    def test_cap_scenario_peak_memory(self):
        # at the device-slot cap, 2,096,000 device-slots: the draws take
        # about 44 MB, and the link temporaries of one K = 1048 block
        # took about 63 MB more before the blocks were chunked
        cfg = ScenarioConfig(num_uavs=100, num_slots=10, k_sens_min=1048, k_sens_max=1048,
                             k_tol_min=1048, k_tol_max=1048)
        cfg.validate()
        tracemalloc.start()
        try:
            generate_scenario(cfg, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
