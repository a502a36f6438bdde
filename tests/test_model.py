"""Physical-model unit tests: geometry, channels, delays, storage dynamics,
energy, and the feasibility checker. Fixture numbers were derived with an
independent high-precision evaluation of the same formulas before being
frozen here."""

import math

import numpy as np
import pytest

from jcorm import model
from jcorm.model import SlotContext, SlotDecision


def make_ctx(**overrides) -> SlotContext:
    """Small hand-built two-UAV context with controlled numbers."""
    base = dict(
        slot_seconds=10.0,
        omega=10.0,
        sum_d=np.array([6e6, 4e6]),
        l_off=np.array([0.5, 0.4]),
        dt_dev_rate_sum=np.array([2e7, 1.5e7]),
        r_tol_leo=np.array([5e7, 5e7]),
        sat_gain=np.array([3.3339e-9, 3.3339e-9]),
        l_prop=0.00577,
        leo_bandwidth_hz=40e6,
        noise_w=1e-11,
        pmax_w=1.0,
        dt_uplink_power_w=1.0,
        cycles_per_bit=400.0,
        uav_cpu_hz=2e9,
        leo_cpu_hz=10e9,
        switch_cap=1e-28,
        storage_free=np.array([8e9, 8e9]),
        storage_capacity=1.2e10,
    )
    base.update(overrides)
    return SlotContext(**base)


# ---------------------------------------------------------------------------
# satellite geometry
# ---------------------------------------------------------------------------

class TestGeometry:
    H, RE = 780e3, 6371e3

    def test_visibility_window_at_20_deg(self):
        t_v = model.visibility_window(self.H, self.RE, math.radians(20.0), 7500.0)
        assert t_v == pytest.approx(437.824980250, rel=1e-9)

    def test_visibility_window_at_zero_elevation(self):
        gamma = model.coverage_half_angle(self.H, self.RE, 0.0)
        assert gamma == pytest.approx(0.471419878371, rel=1e-9)
        t_v = model.visibility_window(self.H, self.RE, 0.0, 7500.0)
        assert t_v == pytest.approx(898.966280061, rel=1e-9)

    def test_zenith_gives_zero_window(self):
        assert model.coverage_half_angle(self.H, self.RE, math.pi / 2) == pytest.approx(0.0, abs=1e-12)
        assert model.visibility_window(self.H, self.RE, math.pi / 2, 7500.0) == pytest.approx(0.0, abs=1e-9)

    def test_slant_range_and_propagation_delay(self):
        d = model.uav_sat_distance(self.H, self.RE, math.radians(20.0))
        assert d == pytest.approx(1731903.374930, abs=1e-3)
        assert d / 3e8 == pytest.approx(0.005773011250, rel=1e-9)

    def test_slant_range_rejects_zenith(self):
        with pytest.raises(ValueError):
            model.uav_sat_distance(self.H, self.RE, math.pi / 2)

    def test_slant_range_agrees_with_law_of_cosines(self):
        for deg in (5.0, 20.0, 45.0, 80.0):
            el = math.radians(deg)
            d = model.uav_sat_distance(self.H, self.RE, el)
            exact = (-self.RE * math.sin(el)
                     + math.sqrt((self.RE * math.sin(el)) ** 2
                                 + self.H ** 2 + 2 * self.RE * self.H))
            assert d == pytest.approx(exact, rel=1e-12)


# ---------------------------------------------------------------------------
# channels and rates
# ---------------------------------------------------------------------------

class TestChannels:
    def test_rician_gain_pure_los(self):
        # huge Rician factor suppresses the scatter term entirely
        assert model.rician_fading_gain(1e12, 1.0, 1.0) == pytest.approx(1.0, rel=1e-5)

    def test_rician_gain_zero_scatter_sample(self):
        assert model.rician_fading_gain(10.0, 0.0, 0.0) == pytest.approx(10.0 / 11.0, rel=1e-12)

    def test_rician_gain_elementwise(self):
        scatter = np.array([[0.3 - 1.2j, 0.0], [-2.0 + 0.5j, 1.0 + 1.0j]])
        gains = model.rician_fading_gain(4.0, scatter.real, scatter.imag)
        assert gains.shape == scatter.shape
        for s, g in zip(scatter.ravel(), gains.ravel()):
            assert g == model.rician_fading_gain(4.0, s.real, s.imag)

    def test_rician_gain_unit_mean(self):
        rng = np.random.default_rng(7)
        scatter = (rng.normal(0, math.sqrt(0.5), 200_000)
                   + 1j * rng.normal(0, math.sqrt(0.5), 200_000))
        gains = [model.rician_fading_gain(3.0, s.real, s.imag) for s in scatter[:5000]]
        assert np.mean(gains) == pytest.approx(1.0, abs=0.05)

    def test_device_gain_pure_pathloss(self):
        assert model.device_uav_gain(500.0, 1.0, 2.0, 1.0) == pytest.approx(4e-6, rel=1e-12)

    def test_device_gain_slant(self):
        d = math.sqrt(500.0 ** 2 + 500.0 ** 2)
        assert model.device_uav_gain(d, 1.0, 2.0, 1.0) == pytest.approx(2e-6, rel=1e-12)
        assert model.device_uav_gain(d, 1.0, 2.0, 0.5) == pytest.approx(1e-6, rel=1e-12)

    def test_device_gain_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            model.device_uav_gain(0.0, 1.0, 2.0)

    def test_device_rate_zero_power(self):
        assert model.device_uav_rate(0.0, 1e-9, 1e-11, 6e6, 3) == 0.0

    def test_device_rate_snr_15_db(self):
        # 2 MHz per-device share, SNR exactly 10^1.5
        gain = 10.0 ** 1.5 * 1e-11 / 0.3
        rate = model.device_uav_rate(0.3, gain, 1e-11, 6e6, 3)
        assert rate == pytest.approx(10055615.346701, abs=1e-3)

    def test_device_rate_zero_band_share(self):
        # beta=1 leaves the DT side with no spectrum at all
        assert model.device_uav_rate(0.3, 1e-9, 1e-11, 0.0, 5) == 0.0

    def test_sat_gain_default_reference(self):
        d = 1731903.374930
        g = model.uav_leo_gain(d, 1e-3, 10.0, 1000.0)
        assert g == pytest.approx(3.333900874286e-9, rel=1e-9)

    def test_sat_gain_unit_reference(self):
        g = model.uav_leo_gain(4.162e6, 1e-3, 10.0, 1.0)
        assert g == pytest.approx(5.772924108447e-16, rel=1e-9)

    def test_sat_gain_inverse_square(self):
        g1 = model.uav_leo_gain(2e6, 1e-3, 10.0, 1000.0)
        g2 = model.uav_leo_gain(4e6, 1e-3, 10.0, 1000.0)
        assert g1 == pytest.approx(4.0 * g2, rel=1e-12)

    def test_sat_rate_fixture(self):
        g = model.uav_leo_gain(1731903.374930, 1e-3, 10.0, 1000.0)
        snr = 1.0 * g / 1e-11
        assert snr == pytest.approx(333.390087429, rel=1e-9)
        rate = model.uav_leo_rate(1.0, g, 1e-11, 40e6, 6)
        assert rate == pytest.approx(55902588.473046, abs=1e-3)

    def test_sat_rate_zero_power(self):
        assert model.uav_leo_rate(0.0, 3.3e-9, 1e-11, 40e6, 6) == 0.0

    def test_sat_rate_decreases_with_distance(self):
        rates = [model.uav_leo_rate(1.0, model.uav_leo_gain(d, 1e-3, 10.0, 1000.0),
                                    1e-11, 40e6, 6)
                 for d in np.linspace(1e6, 3e6, 9)]
        assert all(a > b for a, b in zip(rates, rates[1:]))


# ---------------------------------------------------------------------------
# delays
# ---------------------------------------------------------------------------

class TestDelays:
    def test_local_compute_fixture(self):
        # half of 6 Mbit on a 2 GHz CPU at 400 cycles/bit, after no upload
        ctx = make_ctx(sum_d=np.array([6e6]), l_off=np.array([0.0]))
        t = model.Evaluation(ctx, None, None, None, 0.5).local
        assert t == pytest.approx(0.6, rel=1e-12)

    def test_completion_all_local(self):
        ctx = make_ctx()
        dec = SlotDecision(np.zeros(2), np.zeros(2), np.full(2, 5.0), np.zeros(2))
        t = model.meter_slot(ctx, dec).ds_delay_s
        local = model.Evaluation.of(ctx, dec).local - ctx.l_off
        assert np.allclose(t, ctx.l_off + local)

    def test_completion_all_offloaded(self):
        ctx = make_ctx()
        dec = SlotDecision(np.full(2, 0.5), np.full(2, 5e9), np.full(2, 5.0),
                           np.ones(2))
        rate = ctx.ds_rate(dec.power)
        expect = (ctx.l_off + ctx.sum_d / rate
                  + 400.0 * ctx.sum_d / 5e9 + 2 * ctx.l_prop)
        assert np.allclose(model.meter_slot(ctx, dec).ds_delay_s, expect)

    def test_branch_terms_elementwise(self):
        ctx = make_ctx()
        power = np.array([0.5, 0.0])
        f_leo = np.array([5e9, 0.0])
        gamma = np.array([0.3, 0.3])
        ev = model.Evaluation(ctx, power, f_leo, None, gamma)
        t_tx, t_cmp = ev.transmit, ev.remote
        assert t_tx[0] == pytest.approx(0.3 * ctx.sum_d[0] / ctx.ds_rate(0.5)[0], rel=1e-12)
        assert t_cmp[0] == pytest.approx(400.0 * 0.3 * ctx.sum_d[0] / 5e9, rel=1e-12)
        assert t_tx[1] == np.inf and t_cmp[1] == np.inf   # no rate, no share
        assert np.all(model.Evaluation(ctx, np.full(2, 0.5), None, None,
                                       np.zeros(2)).transmit == 0.0)

    def test_completion_takes_slower_branch(self):
        ctx = make_ctx()
        dec = SlotDecision(np.full(2, 0.5), np.full(2, 5e9), np.full(2, 5.0),
                           np.full(2, 0.3))
        ev = model.Evaluation.of(ctx, dec)
        local, sat = ev.local, ev.sat
        assert np.allclose(model.meter_slot(ctx, dec).ds_delay_s, np.maximum(local, sat))

    def test_offloading_without_rate_rejected(self):
        ctx = make_ctx()
        dec = SlotDecision(np.zeros(2), np.full(2, 5e9), np.full(2, 5.0), np.ones(2))
        with pytest.raises(ValueError):
            model.meter_slot(ctx, dec)

    def test_offloading_without_compute_rejected(self):
        ctx = make_ctx()
        dec = SlotDecision(np.full(2, 0.5), np.zeros(2), np.full(2, 5.0), np.ones(2))
        with pytest.raises(ValueError):
            model.meter_slot(ctx, dec)

    def test_completion_time_matches_checked_completion(self):
        ctx = make_ctx()
        rng = np.random.default_rng(5)
        compared = 0
        for _ in range(300):
            p = rng.choice([0.0, 1e-6, 0.5, 1.0], 2)
            f = rng.choice([0.0, 1e8, 5e9, 1e10], 2)
            gm = rng.choice([0.0, 0.3, 1.0], 2)
            dec = SlotDecision(p, f, np.full(2, 5.0), gm)
            try:
                expect = model.meter_slot(ctx, dec).ds_delay_s
            except ValueError:
                continue
            compared += 1
            got = model.Evaluation(ctx, p, f, None, gm).need
            assert np.array_equal(got, expect)
        assert compared > 50

    def test_completion_time_infinite_without_power(self):
        ctx = make_ctx()
        t = model.Evaluation(ctx, np.zeros(2), np.full(2, 5e9), None, np.array([0.4, 0.0])).need
        assert t[0] == np.inf and np.isfinite(t[1])

    def test_deadline_bounds_no_offload_branch(self):
        ctx = make_ctx()
        ev = model.Evaluation(ctx, np.zeros(2), np.zeros(2), None, np.zeros(2))
        local, sat = ev.local, ev.sat
        assert np.allclose(sat, ctx.l_off)  # vacuous satellite branch


# ---------------------------------------------------------------------------
# storage dynamics
# ---------------------------------------------------------------------------

class TestStorage:
    def test_collection_only(self):
        # forwarding never starts: storage fills, nothing is uplinked
        step = model.dt_collection_step(1e8, 10.0, 10.0, 3e8, 8e9, 1.2e10)
        assert step.uplinked == 0.0
        assert step.collected == pytest.approx(1e9)
        assert step.next_free == pytest.approx(8e9 - 1e9)

    def test_uplink_only(self):
        # forwarding from the start: backlog-limited uplink, no collection
        step = model.dt_collection_step(1e8, 0.0, 10.0, 3e8, 8e9, 1.2e10)
        assert step.collected == 0.0
        assert step.uplinked == pytest.approx(min(3e9, 1.2e10 - 8e9))
        assert step.next_free == pytest.approx(8e9 + step.uplinked)

    def test_gigabyte_trace(self):
        # 1.5 GB capacity, 1 GB free, collect 0.1 GB, uplink capacity 0.2 GB
        gb = 8e9
        step = model.dt_collection_step(1.6e8, 5.0, 10.0, 3.2e8, 1.0 * gb, 1.5 * gb)
        assert step.collected == pytest.approx(0.1 * gb)
        # backlog cap is collected + already-stored = 0.1 + 0.5 GB
        assert step.uplinked == pytest.approx(0.2 * gb)
        assert step.next_free == pytest.approx(1.1 * gb)

    def test_collection_capped_by_free_space(self):
        step = model.dt_collection_step(1e9, 10.0, 10.0, 0.0, 5e8, 1.2e10)
        assert step.collected == pytest.approx(5e8)
        assert step.next_free == pytest.approx(0.0)

    def test_uplink_capped_by_backlog(self):
        # huge uplink rate cannot ship more than collected + stored
        step = model.dt_collection_step(1e7, 2.0, 10.0, 1e10, 1.15e10, 1.2e10)
        backlog = step.collected + (1.2e10 - 1.15e10)
        assert step.uplinked == pytest.approx(backlog)

    def test_state_fuzz(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            cap = rng.uniform(1e8, 2e10)
            free = rng.uniform(0.0, cap)
            slot = rng.uniform(1.0, 20.0)
            step = model.dt_collection_step(rng.uniform(0, 1e9),
                                            rng.uniform(0, slot), slot,
                                            rng.uniform(0, 1e9), free, cap)
            assert 0.0 <= step.next_free <= cap + 1e-6
            assert step.collected <= free + 1e-6
            assert step.uplinked <= step.collected + (cap - free) + 1e-6

    def test_bad_state_rejected(self):
        with pytest.raises(ValueError):
            model.dt_collection_step(1e8, 5.0, 10.0, 3e8, 2e10, 1.2e10)

    def test_population_step_equals_scalar_steps(self):
        # a (pop, U) block advances exactly like one scalar call per element
        rng = np.random.default_rng(23)
        cap, slot = 1.2e10, 10.0
        pop, n = 40, 6
        rate = rng.uniform(0.0, 2e9, n)
        r_tol = rng.uniform(0.0, 2e9, n)
        free = rng.uniform(0.0, cap, (pop, n))
        free[::4] = cap    # empty buffers
        free[1::4] = 0.0   # full buffers
        dt = rng.uniform(0.0, slot, (pop, n))
        dt[2::5] = 0.0
        dt[3::5] = slot
        step = model.dt_collection_step(rate, dt, slot, r_tol, free, cap)
        assert step.next_free.shape == (pop, n)
        for i in range(pop):
            for u in range(n):
                ref = model.dt_collection_step(float(rate[u]), float(dt[i, u]), slot,
                                               float(r_tol[u]), float(free[i, u]), cap)
                assert step.collected[i, u] == ref.collected
                assert step.uplinked[i, u] == ref.uplinked
                assert step.next_free[i, u] == ref.next_free
        # the elements fall on both sides of the free-space cap
        capped = step.collected < rate * dt
        assert np.any(capped) and not np.all(capped)

    def test_nan_state_rejected(self):
        dt = np.array([5.0, np.nan])
        free = np.array([1e9, np.nan])
        with pytest.raises(ValueError):
            model.dt_collection_step(1e8, dt, 10.0, 3e8, 1e9, 1.2e10)
        with pytest.raises(ValueError):
            model.dt_collection_step(1e8, 5.0, 10.0, 3e8, free, 1.2e10)
        with pytest.raises(ValueError):
            model.dt_collection_step(1e8, math.nan, 10.0, 3e8, 1e9, 1.2e10)
        with pytest.raises(ValueError):
            model.dt_collection_step(1e8, 5.0, 10.0, 3e8, math.nan, 1.2e10)


# ---------------------------------------------------------------------------
# energy and the objective
# ---------------------------------------------------------------------------

class TestEnergy:
    def test_no_offload_means_no_leo_energy(self):
        ctx = make_ctx()
        dec = SlotDecision(np.zeros(2), np.zeros(2), np.full(2, 5.0), np.zeros(2))
        e_leo = model.Evaluation.of(ctx, dec).e_leo
        assert np.all(e_leo == 0.0)

    def test_full_slot_collection_means_no_dt_comm_energy(self):
        ctx = make_ctx()
        dec = SlotDecision(np.zeros(2), np.zeros(2), np.full(2, 10.0), np.zeros(2))
        e_comm = model.Evaluation.of(ctx, dec).e_comm
        assert np.all(e_comm == 0.0)

    def test_leo_compute_energy_fixture(self):
        # 6 Mbit fully offloaded to a 10 GHz share
        ctx = make_ctx(sum_d=np.array([6e6, 0.0]))
        dec = SlotDecision(np.array([0.5, 0.0]), np.array([1e10, 0.0]),
                           np.full(2, 10.0), np.array([1.0, 0.0]))
        e_leo = model.Evaluation.of(ctx, dec).e_leo
        assert e_leo[0] == pytest.approx(24.0, rel=1e-12)
        assert e_leo[1] == 0.0

    def test_uav_compute_energy_formula(self):
        ctx = make_ctx()
        dec = SlotDecision(np.zeros(2), np.zeros(2), np.full(2, 10.0),
                           np.array([0.25, 0.0]))
        e_uav = model.Evaluation.of(ctx, dec).e_uav
        expect = 400.0 * 1e-28 * ctx.sum_d * (1.0 - dec.gamma) * (2e9) ** 2
        assert np.allclose(e_uav, expect)

    def test_objective_terms_sum_to_slot_objective(self):
        ctx = make_ctx()
        dec = SlotDecision(np.full(2, 0.3), np.full(2, 3e9), np.full(2, 4.0),
                           np.full(2, 0.4))
        terms = model.objective_terms(ctx, dec)
        bits = np.sum(model.Evaluation.of(ctx, dec).terms)
        assert float(np.sum(terms)) == pytest.approx(bits)
        assert model.slot_objective_mbit(ctx, dec) == pytest.approx(bits / 1e6)

    def test_objective_prices_window_and_energy(self):
        ctx = make_ctx()
        dec = SlotDecision(np.zeros(2), np.zeros(2), np.array([4.0, 10.0]), np.zeros(2))
        terms = model.objective_terms(ctx, dec)
        ev = model.Evaluation.of(ctx, dec)
        e = ev.e_comm, ev.e_uav, ev.e_leo
        expect = ctx.r_tol_leo * np.clip(10.0 - dec.delta_tol, 0, None) \
            - 10.0 * (e[0] + e[1] + e[2])
        assert np.allclose(terms, expect)


# ---------------------------------------------------------------------------
# feasibility and metering
# ---------------------------------------------------------------------------

class TestFeasibility:
    def feasible_decision(self, ctx):
        return SlotDecision(np.full(2, 0.5), np.full(2, 4e9), np.full(2, 5.0),
                            np.full(2, 0.5))

    def test_reports_ok_on_feasible_point(self):
        ctx = make_ctx()
        rep = model.check_feasible(ctx, self.feasible_decision(ctx))
        assert rep.ok, rep.violations

    def test_detects_deadline_violation(self):
        ctx = make_ctx()
        dec = self.feasible_decision(ctx)
        dec.delta_tol = np.full(2, 0.1)
        rep = model.check_feasible(ctx, dec)
        assert not rep.ok and "deadline" in rep.violations

    def test_detects_budget_violation(self):
        ctx = make_ctx()
        dec = self.feasible_decision(ctx)
        dec.f_leo = np.full(2, 6e9)
        rep = model.check_feasible(ctx, dec)
        assert not rep.ok and "budget" in rep.violations

    def test_detects_storage_violation(self):
        ctx = make_ctx(storage_free=np.array([1e7, 8e9]))
        dec = self.feasible_decision(ctx)
        rep = model.check_feasible(ctx, dec)
        assert not rep.ok and "storage" in rep.violations

    def test_detects_box_violations(self):
        ctx = make_ctx()
        dec = self.feasible_decision(ctx)
        dec.gamma = np.array([1.5, 0.5])
        rep = model.check_feasible(ctx, dec)
        assert not rep.ok and "gamma_box" in rep.violations
        dec = self.feasible_decision(ctx)
        dec.power = np.array([2.0, 0.5])
        rep = model.check_feasible(ctx, dec)
        assert not rep.ok and "p_box" in rep.violations

    def test_meter_prices_what_moved(self):
        ctx = make_ctx()
        dec = self.feasible_decision(ctx)
        metrics = model.meter_slot(ctx, dec)
        e_total = metrics.total_energy_j
        assert metrics.utility_bits == pytest.approx(
            metrics.total_uplinked_bits - ctx.omega * e_total)
        assert np.all(metrics.next_free >= 0.0)
        assert np.all(metrics.next_free <= ctx.storage_capacity + 1e-6)
