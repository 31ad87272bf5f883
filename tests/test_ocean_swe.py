"""Shallow-water solver: conservation, stability, boundary behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ocean import (
    OceanConfig,
    RomsLikeModel,
    SWEConfig,
    ShallowWaterSolver,
    ShallowWaterState,
    TidalForcing,
    cfl_number,
    energy,
    make_charlotte_grid,
    synth_estuary_bathymetry,
    volume_budget,
    wet_mask,
)


@pytest.fixture(scope="module")
def closed_solver():
    """No forcing, no river, no sponge: a strictly closed basin."""
    g = make_charlotte_grid(20, 24, 20_000.0, 24_000.0)
    h = synth_estuary_bathymetry(g)
    cfg = SWEConfig(river_discharge=0.0, sponge_strength=0.0)
    return ShallowWaterSolver(g, h, forcing=None, config=cfg)


@pytest.fixture(scope="module")
def forced_solver():
    g = make_charlotte_grid(20, 24, 20_000.0, 24_000.0)
    h = synth_estuary_bathymetry(g)
    return ShallowWaterSolver(g, h, TidalForcing(), SWEConfig())


def _perturbed_state(solver, rng, amp=0.05):
    st = solver.initial_state()
    st.zeta[solver.wet] = amp * rng.normal(size=int(solver.wet.sum()))
    return st


class TestSetup:
    def test_depth_shape_validated(self):
        g = make_charlotte_grid(10, 10, 1e4, 1e4)
        with pytest.raises(ValueError, match="depth shape"):
            ShallowWaterSolver(g, np.ones((5, 5)))

    def test_wet_mask_excludes_land(self, closed_solver):
        assert closed_solver.wet.sum() < closed_solver.wet.size
        assert closed_solver.wet.sum() > 0

    def test_dt_respects_cfl(self, closed_solver):
        st = closed_solver.initial_state()
        assert cfl_number(closed_solver, st) <= 1.0

    def test_closed_faces_have_no_flow(self, closed_solver, rng):
        st = _perturbed_state(closed_solver, rng)
        st = closed_solver.step(st)
        assert np.all(st.u[~closed_solver.u_open] == 0.0)
        assert np.all(st.v[~closed_solver.v_open] == 0.0)

    def test_land_cells_stay_zero(self, forced_solver):
        st = forced_solver.initial_state()
        for _ in range(20):
            st = forced_solver.step(st)
        assert np.all(st.zeta[~forced_solver.wet] == 0.0)


class TestConservation:
    def test_one_step_volume_budget_closes(self, closed_solver, rng):
        s0 = _perturbed_state(closed_solver, rng)
        s1 = closed_solver.step(s0)
        vb = volume_budget(closed_solver, s0, s1)
        assert vb.relative_residual < 1e-9

    def test_closed_basin_volume_constant_long_run(self, closed_solver, rng):
        s = _perturbed_state(closed_solver, rng)
        v0 = closed_solver.total_volume(s)
        for _ in range(200):
            s = closed_solver.step(s)
        v1 = closed_solver.total_volume(s)
        assert abs(v1 - v0) / v0 < 1e-12

    def test_river_adds_exact_volume(self, rng):
        g = make_charlotte_grid(20, 24, 20_000.0, 24_000.0)
        h = synth_estuary_bathymetry(g)
        cfg = SWEConfig(river_discharge=500.0, sponge_strength=0.0)
        solver = ShallowWaterSolver(g, h, forcing=None, config=cfg)
        s = solver.initial_state()
        v0 = solver.total_volume(s)
        n = 50
        for _ in range(n):
            s = solver.step(s)
        v1 = solver.total_volume(s)
        np.testing.assert_allclose(v1 - v0, 500.0 * n * solver.dt, rtol=1e-9)

    @given(st.floats(0.01, 0.10), st.integers(1, 5))
    @settings(max_examples=15, deadline=None)
    def test_volume_conservation_property(self, amp, steps):
        """Conservation holds for any perturbation amplitude/duration."""
        g = make_charlotte_grid(12, 14, 12_000.0, 14_000.0)
        h = synth_estuary_bathymetry(g)
        cfg = SWEConfig(river_discharge=0.0, sponge_strength=0.0)
        solver = ShallowWaterSolver(g, h, forcing=None, config=cfg)
        rng = np.random.default_rng(42)
        s = solver.initial_state()
        s.zeta[solver.wet] = amp * rng.normal(size=int(solver.wet.sum()))
        v0 = solver.total_volume(s)
        for _ in range(steps):
            s = solver.step(s)
        assert abs(solver.total_volume(s) - v0) / v0 < 1e-11


class TestDynamics:
    def test_gravity_wave_spreads_disturbance(self, closed_solver):
        """A local bump must radiate outward at finite speed."""
        s = closed_solver.initial_state()
        wet = closed_solver.wet
        jj, ii = np.argwhere(wet)[len(np.argwhere(wet)) // 2]
        s.zeta[jj, ii] = 0.3
        far_mask = wet.copy()
        far_mask[max(jj - 3, 0):jj + 4, max(ii - 3, 0):ii + 4] = False
        s1 = closed_solver.step(s)
        # immediately after one short step the far field is untouched
        assert np.abs(s1.zeta[far_mask]).max() < 1e-12
        for _ in range(300):
            s1 = closed_solver.step(s1)
        assert np.abs(s1.zeta[far_mask]).max() > 1e-6

    def test_friction_damps_energy_in_closed_basin(self, closed_solver, rng):
        s = _perturbed_state(closed_solver, rng, amp=0.1)
        for _ in range(50):
            s = closed_solver.step(s)
        e_mid = energy(closed_solver, s)["total"]
        for _ in range(2000):
            s = closed_solver.step(s)
        e_end = energy(closed_solver, s)["total"]
        assert e_end < e_mid

    def test_tide_enters_through_boundary(self, forced_solver):
        s = forced_solver.initial_state()
        for _ in range(500):
            s = forced_solver.step(s)
        # interior surface must respond to the forcing (nonzero signal)
        interior = s.zeta[:, forced_solver.cfg.sponge_cells + 2:]
        wet_int = forced_solver.wet[:, forced_solver.cfg.sponge_cells + 2:]
        assert np.abs(interior[wet_int]).max() > 0.01

    def test_velocities_remain_physical(self, forced_solver):
        """Long tidal run stays bounded (no numerical blow-up)."""
        s = forced_solver.initial_state()
        for _ in range(3000):
            s = forced_solver.step(s)
        assert np.abs(s.u).max() < 3.0       # m/s — estuarine currents
        assert np.abs(s.zeta).max() < 2.0    # m — tidal range bound
        assert np.isfinite(s.zeta).all()

    def test_advection_option_stable(self, rng):
        g = make_charlotte_grid(14, 16, 14_000.0, 16_000.0)
        h = synth_estuary_bathymetry(g)
        solver = ShallowWaterSolver(g, h, TidalForcing(),
                                    SWEConfig(advection=True))
        s = solver.initial_state()
        for _ in range(500):
            s = solver.step(s)
        assert np.isfinite(s.zeta).all()
        assert np.abs(s.u).max() < 5.0

    def test_run_advances_time(self, forced_solver):
        s = forced_solver.initial_state()
        out = forced_solver.run(s, 600.0)
        n = max(1, int(round(600.0 / forced_solver.dt)))
        np.testing.assert_allclose(out.t, s.t + n * forced_solver.dt)


class TestCoriolis:
    def test_f_positive_northern_hemisphere(self):
        assert SWEConfig().coriolis_f > 0

    def test_f_scales_with_latitude(self):
        low = SWEConfig(latitude_deg=10.0).coriolis_f
        high = SWEConfig(latitude_deg=60.0).coriolis_f
        assert high > low


class TestBathymetry:
    def test_wet_mask_helper(self):
        h = np.array([[1.0, -1.0], [0.0, 2.0]])
        np.testing.assert_array_equal(
            wet_mask(h), [[True, False], [False, True]])

    def test_estuary_has_inlets(self):
        g = make_charlotte_grid(40, 60, 40_000.0, 60_000.0)
        h = synth_estuary_bathymetry(g)
        # a barrier column must contain both land and deep inlet water
        from repro.ocean.bathymetry import BathymetryConfig
        bx = int(BathymetryConfig().barrier_x_frac * g.nx)
        col = h[:, bx]
        assert (col < 0).any(), "barrier island missing"
        assert (col > 5.0).any(), "inlet channel missing"

    def test_bathymetry_deterministic(self):
        g = make_charlotte_grid(20, 20, 2e4, 2e4)
        np.testing.assert_array_equal(synth_estuary_bathymetry(g),
                                      synth_estuary_bathymetry(g))


class TestBatchedStepping:
    """A stacked state steps exactly as its members do one by one."""

    @staticmethod
    def _members(solver, rng, n=3):
        out = []
        for k in range(n):
            # distinct clocks, so each member sees its own tide
            s = solver.initial_state(t0=1_234.5 * k)
            s.zeta[solver.wet] += 0.05 * rng.normal(
                size=int(solver.wet.sum()))
            s.u[solver.u_open] = 0.1 * rng.normal(
                size=int(solver.u_open.sum()))
            s.v[solver.v_open] = 0.1 * rng.normal(
                size=int(solver.v_open.sum()))
            out.append(s)
        return out

    def test_tide_broadcasts_per_member(self):
        tide = TidalForcing()
        t = np.array([0.0, 5_000.0, 12_345.0])
        y = np.linspace(0.0, 20_000.0, 7)
        batched = tide.elevation(t[:, None], y)
        assert batched.shape == (3, 7)
        for k in range(3):
            assert np.array_equal(batched[k], tide.elevation(t[k], y))

    def test_stack_unstack_roundtrip(self, forced_solver, rng):
        members = self._members(forced_solver, rng)
        stacked = ShallowWaterState.stack(members)
        assert stacked.zeta.shape == (3,) + members[0].zeta.shape
        assert stacked.t.shape == (3,)
        for a, b in zip(stacked.unstack(), members):
            assert a.t == b.t
            for f in ("zeta", "u", "v"):
                assert np.array_equal(getattr(a, f), getattr(b, f))

    @pytest.mark.parametrize("advection", [False, True])
    def test_step_matches_per_member(self, rng, advection):
        g = make_charlotte_grid(14, 15, 14_000.0, 15_000.0)
        h = synth_estuary_bathymetry(g)
        solver = ShallowWaterSolver(
            g, h, TidalForcing(),
            SWEConfig(advection=advection, river_discharge=500.0))
        assert solver.river_mask.any()
        members = self._members(solver, rng)
        batched = ShallowWaterState.stack(members)
        for _ in range(60):
            batched = solver.step(batched)
            members = [solver.step(s) for s in members]
        for a, b in zip(batched.unstack(), members):
            assert a.t == b.t
            for f in ("zeta", "u", "v"):
                assert np.array_equal(getattr(a, f), getattr(b, f))

    def test_forecast_matches_per_member(self):
        ocean = RomsLikeModel(OceanConfig(nx=14, ny=15, nz=6,
                                          length_x=14_000.0,
                                          length_y=15_000.0))
        spun = ocean.spinup(duration=3 * 3600.0)
        _, states, _ = ocean.simulate_with_states(spun, 4, every=2)
        batched = ocean.forecast(ShallowWaterState.stack(states), 2)
        for k, state in enumerate(states):
            for sb, sd in zip(batched, ocean.forecast(state, 2)):
                assert sb.t[k] == sd.t
                for f in ("u3", "v3", "w3", "zeta"):
                    assert np.array_equal(getattr(sb, f)[k],
                                          getattr(sd, f))
