"""Grid geometry: stretched axes, metrics, staggering operators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ocean import StretchedAxis, make_charlotte_grid


class TestStretchedAxis:
    def test_uniform_spacing_without_focus(self):
        ax = StretchedAxis(10, 100.0)
        np.testing.assert_allclose(ax.spacing, 10.0)

    def test_spacing_sums_to_length(self):
        ax = StretchedAxis(37, 1234.5, focus=(0.3, 0.7))
        assert abs(ax.spacing.sum() - 1234.5) < 1e-9

    def test_focus_refines_locally(self):
        ax = StretchedAxis(100, 100.0, focus=(0.5,), strength=3.0)
        mid = ax.spacing[45:55].mean()
        edge = ax.spacing[:10].mean()
        assert mid < edge

    def test_centers_inside_faces(self):
        ax = StretchedAxis(20, 50.0, focus=(0.2,))
        assert np.all(ax.centers > ax.faces[:-1])
        assert np.all(ax.centers < ax.faces[1:])

    def test_face_spacing_length(self):
        ax = StretchedAxis(10, 100.0)
        assert len(ax.face_spacing) == 11

    def test_from_spacing_preserves_origin(self):
        parent = StretchedAxis(10, 100.0, focus=(0.5,))
        sub = StretchedAxis.from_spacing(parent.spacing[3:7],
                                         origin=parent.faces[3])
        np.testing.assert_allclose(sub.centers, parent.centers[3:7])
        np.testing.assert_allclose(sub.spacing, parent.spacing[3:7])

    @given(st.integers(2, 40), st.floats(10.0, 1e5))
    @settings(max_examples=40, deadline=None)
    def test_spacing_positive_and_complete(self, n, length):
        ax = StretchedAxis(n, length, focus=(0.4,))
        assert np.all(ax.spacing > 0)
        assert abs(ax.spacing.sum() - length) < 1e-6 * length


class TestGridOperators:
    @pytest.fixture()
    def grid(self):
        return make_charlotte_grid(12, 10, 12_000.0, 10_000.0)

    def test_area_positive(self, grid):
        assert np.all(grid.area > 0)

    def test_center_to_u_constant_field(self, grid):
        c = np.full((grid.ny, grid.nx), 3.0)
        np.testing.assert_allclose(grid.center_to_u(c), 3.0)

    def test_center_to_v_constant_field(self, grid):
        c = np.full((grid.ny, grid.nx), -1.5)
        np.testing.assert_allclose(grid.center_to_v(c), -1.5)

    def test_u_to_center_inverse_of_constant(self, grid):
        u = np.full((grid.ny, grid.nx + 1), 2.0)
        np.testing.assert_allclose(grid.u_to_center(u), 2.0)

    def test_ddx_of_linear_field_is_constant(self, grid):
        # c = a·x ⇒ ∂c/∂x = a at every interior u face
        a = 0.003
        c = a * np.broadcast_to(grid.x_axis.centers[None, :],
                                (grid.ny, grid.nx))
        d = grid.ddx_at_u(c)
        np.testing.assert_allclose(d[:, 1:-1], a, rtol=1e-9)
        assert np.all(d[:, 0] == 0) and np.all(d[:, -1] == 0)

    def test_ddy_of_linear_field_is_constant(self, grid):
        a = -0.002
        c = a * np.broadcast_to(grid.y_axis.centers[:, None],
                                (grid.ny, grid.nx))
        d = grid.ddy_at_v(c)
        np.testing.assert_allclose(d[1:-1, :], a, rtol=1e-9)

    def test_flux_divergence_of_uniform_flux_is_zero(self, grid):
        fx = np.full((grid.ny, grid.nx + 1), 2.0)
        fy = np.zeros((grid.ny + 1, grid.nx))
        div = grid.flux_divergence(fx, fy)
        np.testing.assert_allclose(div, 0.0, atol=1e-12)

    def test_flux_divergence_units(self, grid):
        """A unit source at one west face raises exactly one cell."""
        fx = np.zeros((grid.ny, grid.nx + 1))
        fx[3, 0] = 1.0  # m²/s into cell (3, 0)
        div = grid.flux_divergence(fx, np.zeros((grid.ny + 1, grid.nx)))
        expected = -1.0 * grid.y_axis.spacing[3] / grid.area[3, 0]
        np.testing.assert_allclose(div[3, 0], expected, rtol=1e-12)
        assert np.count_nonzero(div) == 1

    def test_lonlat_nearest_cell_roundtrip(self, grid):
        lon, lat = grid.lonlat(5, 7)
        j, i = grid.nearest_cell(lon, lat)
        assert (j, i) == (5, 7)

    def test_min_spacing(self, grid):
        assert grid.min_spacing <= grid.x_axis.spacing.min() + 1e-12

    @pytest.mark.parametrize("op", ["ddx_at_u", "ddy_at_v",
                                    "center_to_u", "center_to_v"])
    def test_leading_axes_match_per_member(self, grid, op):
        """A batched centre field gives, member by member, exactly the
        single-field result (the batched solver relies on this)."""
        c = np.random.default_rng(3).normal(size=(2, 3, grid.ny, grid.nx))
        fn = getattr(grid, op)
        out = fn(c)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(out[idx], fn(c[idx]))


class TestCharlotteGrid:
    def test_default_dimensions(self):
        g = make_charlotte_grid()
        assert (g.ny, g.nx) == (90, 60)

    def test_refinement_near_inlets(self):
        g = make_charlotte_grid()
        # x refinement near fractions 0.35 and 0.65
        mid = int(0.35 * g.nx)
        assert g.x_axis.spacing[mid] < g.x_axis.spacing[2]
