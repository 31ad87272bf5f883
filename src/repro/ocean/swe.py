"""Split-explicit barotropic shallow-water stepper on the Arakawa-C grid.

This is the computational core of the ROMS-like substrate: the
free-surface / depth-averaged momentum system that carries the tidal
wave through the estuary.  ROMS integrates this "barotropic mode" with
a short explicit time step inside each baroclinic step (paper §II-B);
here the barotropic mode *is* the model, and the baroclinic vertical
structure is diagnosed by :mod:`repro.ocean.sigma`.

Discretisation
--------------
* forward-backward scheme: ζ is advanced first from the flux divergence,
  then momentum uses the *new* ζ — neutrally stable for gravity waves at
  CFL < 1 and the standard choice for split-explicit barotropic modes.
* quadratic bottom friction, Coriolis, lateral viscosity, optional
  first-order upwind momentum advection.
* open west boundary with a nudging (sponge) zone clamped to the tidal
  elevation; solid walls elsewhere; optional river inflow at the
  northern river mouth.

The stepper conserves water volume exactly (up to float64 round-off)
in a closed basin — the invariant the paper's verification module
checks on the AI side, and one of our property tests.

Batching
--------
Every field may carry leading batch axes: ``zeta`` is ``(…, ny, nx)``,
``u`` ``(…, ny, nx+1)``, ``v`` ``(…, ny+1, nx)`` and ``t`` a scalar or
an array of shape ``(…)`` (one clock per member, so the tide is
evaluated per member).  :meth:`ShallowWaterState.stack` builds such a
state from single ones and :meth:`ShallowWaterState.unstack` splits it
again.  A batched step applies the same element-wise operations in the
same order as a single-state step, so every member is bitwise equal to
stepping it alone; the single state is simply the unbatched case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .grid import CurvilinearGrid
from .tides import TidalForcing

__all__ = ["SWEConfig", "ShallowWaterState", "ShallowWaterSolver"]

GRAVITY = 9.81
OMEGA_EARTH = 7.2921e-5


@dataclass(frozen=True)
class SWEConfig:
    """Physical and numerical parameters of the barotropic solver."""

    drag_coefficient: float = 2.5e-3      # quadratic bottom drag C_d
    viscosity: float = 12.0               # lateral eddy viscosity [m²/s]
    latitude_deg: float = 26.6            # for the Coriolis parameter
    cfl: float = 0.45                     # fraction of the gravity-wave limit
    min_total_depth: float = 0.05         # wetting floor [m]
    sponge_cells: int = 4                 # nudging-zone width at the open bdry
    sponge_strength: float = 0.5          # max nudging weight per step
    advection: bool = False               # upwind momentum advection
    river_discharge: float = 120.0        # [m³/s] into the northern river arm

    @property
    def coriolis_f(self) -> float:
        return 2.0 * OMEGA_EARTH * np.sin(np.deg2rad(self.latitude_deg))


@dataclass
class ShallowWaterState:
    """Prognostic fields at one instant (or one per batch member)."""

    t: float | np.ndarray     # scalar, or (…) for a batched state
    zeta: np.ndarray          # (…, ny, nx) free surface [m]
    u: np.ndarray             # (…, ny, nx+1) east velocity at u faces [m/s]
    v: np.ndarray             # (…, ny+1, nx) north velocity at v faces [m/s]

    def copy(self) -> "ShallowWaterState":
        return ShallowWaterState(self.t, self.zeta.copy(),
                                 self.u.copy(), self.v.copy())

    @staticmethod
    def stack(states: Sequence["ShallowWaterState"]) -> "ShallowWaterState":
        """One batched state whose leading axis runs over ``states``."""
        return ShallowWaterState(
            np.array([s.t for s in states], dtype=np.float64),
            np.stack([s.zeta for s in states]),
            np.stack([s.u for s in states]),
            np.stack([s.v for s in states]))

    def unstack(self) -> List["ShallowWaterState"]:
        """Split a batched state along its leading axis (copies)."""
        return [ShallowWaterState(self.t[k], self.zeta[k].copy(),
                                  self.u[k].copy(), self.v[k].copy())
                for k in range(len(self.zeta))]


class ShallowWaterSolver:
    """Barotropic tide solver over a masked, non-uniform C-grid.

    Parameters
    ----------
    grid: horizontal grid and metrics.
    depth: (ny, nx) bathymetry, positive down; ≤0 marks land.
    forcing: tidal boundary forcing applied along the open west edge.
    config: physics/numerics configuration.
    """

    def __init__(self, grid: CurvilinearGrid, depth: np.ndarray,
                 forcing: Optional[TidalForcing] = None,
                 config: SWEConfig = SWEConfig()):
        if depth.shape != (grid.ny, grid.nx):
            raise ValueError(
                f"depth shape {depth.shape} != grid ({grid.ny}, {grid.nx})")
        self.grid = grid
        self.depth = np.asarray(depth, dtype=np.float64)
        self.forcing = forcing
        self.cfg = config

        self.wet = self.depth > 0.0
        self._build_face_masks()
        self._build_sponge()
        self.dt = self.stable_dt()

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def _build_face_masks(self) -> None:
        ny, nx = self.grid.ny, self.grid.nx
        wet = self.wet
        self.u_open = np.zeros((ny, nx + 1), dtype=bool)
        self.u_open[:, 1:-1] = wet[:, :-1] & wet[:, 1:]
        # west edge is the open ocean boundary wherever the edge cell is
        # wet; with no tidal forcing the basin is fully closed
        if self.forcing is not None:
            self.u_open[:, 0] = wet[:, 0]
        self.v_open = np.zeros((ny + 1, nx), dtype=bool)
        self.v_open[1:-1, :] = wet[:-1, :] & wet[1:, :]
        # outflow condition applies on the open west faces of the domain
        self.west_outflow = self.u_open[:, 0].copy()
        # river inflow cells on the northern edge (wet cells of the river
        # arm at j = ny−1); discharge is split evenly per cell and stored
        # per cell so subdomain solvers inherit the global share
        self.river_mask = np.zeros((ny, nx), dtype=bool)
        xf = self.grid.x_axis.centers / self.grid.x_axis.length
        self.river_mask[-1, :] = wet[-1, :] & (xf > 0.5)
        n_river = int(self.river_mask.sum())
        self.river_cell_discharge = (
            self.cfg.river_discharge / n_river if n_river else 0.0)

    def _build_sponge(self) -> None:
        """Nudging weights decaying inland from the west boundary."""
        ny, nx = self.grid.ny, self.grid.nx
        w = np.zeros((ny, nx), dtype=np.float64)
        n = self.cfg.sponge_cells
        for i in range(min(n, nx)):
            w[:, i] = self.cfg.sponge_strength * (1.0 - i / n) ** 2
        w[~self.wet] = 0.0
        self.sponge = w

    def stable_dt(self) -> float:
        """CFL-limited step for the fastest gravity wave on the grid."""
        hmax = float(self.depth[self.wet].max())
        c = np.sqrt(GRAVITY * hmax)
        return self.cfg.cfl * self.grid.min_spacing / (c * np.sqrt(2.0))

    def initial_state(self, t0: float = 0.0) -> ShallowWaterState:
        ny, nx = self.grid.ny, self.grid.nx
        zeta = np.zeros((ny, nx))
        if self.forcing is not None:
            # start from the equilibrium boundary level to avoid a shock
            zeta[self.wet] = float(
                np.mean(self.forcing.elevation(t0, self.grid.y_axis.centers)))
        return ShallowWaterState(
            t0, zeta, np.zeros((ny, nx + 1)), np.zeros((ny + 1, nx)))

    # ------------------------------------------------------------------
    # dynamics
    # ------------------------------------------------------------------
    def total_depth(self, zeta: np.ndarray) -> np.ndarray:
        H = self.depth + zeta
        return np.maximum(H, self.cfg.min_total_depth)

    def _face_depths(self, zeta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        H = self.total_depth(zeta)
        Hu = self.grid.center_to_u(H)
        Hv = self.grid.center_to_v(H)
        return Hu, Hv

    def volume_fluxes(self, state: ShallowWaterState
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-face transports (H·u, H·v), zeroed at closed faces."""
        Hu, Hv = self._face_depths(state.zeta)
        fx = Hu * state.u
        fy = Hv * state.v
        fx[..., ~self.u_open] = 0.0
        fy[..., ~self.v_open] = 0.0
        return fx, fy

    def step(self, state: ShallowWaterState) -> ShallowWaterState:
        """Advance one barotropic time step (forward-backward).

        ``state`` may be batched (see the module docstring); every
        member advances by the same ``dt`` from its own ``t``.
        """
        g = GRAVITY
        f = self.cfg.coriolis_f
        dt = self.dt
        grid = self.grid
        cfg = self.cfg

        # ---- continuity: ζⁿ⁺¹ = ζⁿ − Δt ∇·(H u) -------------------------
        fx, fy = self.volume_fluxes(state)
        div = grid.flux_divergence(fx, fy)
        zeta_new = state.zeta - dt * div
        # river discharge enters through the northern edge
        if self.river_cell_discharge > 0.0:
            zeta_new[..., self.river_mask] += (
                dt * self.river_cell_discharge / grid.area[self.river_mask])
        zeta_new[..., ~self.wet] = 0.0

        # ---- open-boundary nudging to the tide --------------------------
        if self.forcing is not None:
            t_new = np.asarray(state.t + dt)[..., None]
            tide = self.forcing.elevation(
                t_new, self.grid.y_axis.centers)[..., None]
            zeta_new = zeta_new + self.sponge * (tide - zeta_new)

        # ---- momentum (uses ζⁿ⁺¹: the "backward" part) -------------------
        Hu, Hv = self._face_depths(zeta_new)
        dzdx = grid.ddx_at_u(zeta_new)
        dzdy = grid.ddy_at_v(zeta_new)

        v_at_u = self._v_at_u(state.v)
        u_at_v = self._u_at_v(state.u)

        speed_u = np.sqrt(state.u ** 2 + v_at_u ** 2)
        speed_v = np.sqrt(state.v ** 2 + u_at_v ** 2)

        du = (-g * dzdx + f * v_at_u
              - cfg.drag_coefficient * speed_u * state.u / Hu
              + cfg.viscosity * self._laplacian_u(state.u))
        dv = (-g * dzdy - f * u_at_v
              - cfg.drag_coefficient * speed_v * state.v / Hv
              + cfg.viscosity * self._laplacian_v(state.v))

        if cfg.advection:
            du -= self._upwind_advect_u(state.u, v_at_u)
            dv -= self._upwind_advect_v(state.v, u_at_v)

        u_new = state.u + dt * du
        v_new = state.v + dt * dv
        u_new[..., ~self.u_open] = 0.0
        v_new[..., ~self.v_open] = 0.0
        # zero-gradient outflow at the open west faces keeps the boundary
        # transparent to the nudged surface signal
        u_new[..., 0] = np.where(self.west_outflow, u_new[..., 1],
                                 u_new[..., 0])

        return ShallowWaterState(state.t + dt, zeta_new, u_new, v_new)

    # ------------------------------------------------------------------
    # stencil helpers
    # ------------------------------------------------------------------
    # Every helper indexes the two trailing (grid) axes only, so leading
    # batch axes pass through; metric arrays broadcast against them.
    def _v_at_u(self, v: np.ndarray) -> np.ndarray:
        ny, nx = self.grid.ny, self.grid.nx
        vc = 0.5 * (v[..., :-1, :] + v[..., 1:, :])        # v at centres
        out = np.zeros(v.shape[:-2] + (ny, nx + 1))
        out[..., 1:-1] = 0.5 * (vc[..., :-1] + vc[..., 1:])
        out[..., 0] = vc[..., 0]
        out[..., -1] = vc[..., -1]
        return out

    def _u_at_v(self, u: np.ndarray) -> np.ndarray:
        ny, nx = self.grid.ny, self.grid.nx
        uc = 0.5 * (u[..., :-1] + u[..., 1:])              # u at centres
        out = np.zeros(u.shape[:-2] + (ny + 1, nx))
        out[..., 1:-1, :] = 0.5 * (uc[..., :-1, :] + uc[..., 1:, :])
        out[..., 0, :] = uc[..., 0, :]
        out[..., -1, :] = uc[..., -1, :]
        return out

    def _laplacian_u(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)
        dx = self.grid.dxu
        dyc = self.grid.y_axis.spacing[:, None]
        out[..., 1:-1] += (u[..., 2:] - 2 * u[..., 1:-1] + u[..., :-2]) \
            / dx[:, 1:-1] ** 2
        out[..., 1:-1, :] += (u[..., 2:, :] - 2 * u[..., 1:-1, :]
                              + u[..., :-2, :]) / dyc[1:-1] ** 2
        out[..., ~self.u_open] = 0.0
        return out

    def _laplacian_v(self, v: np.ndarray) -> np.ndarray:
        out = np.zeros_like(v)
        dxc = self.grid.x_axis.spacing
        out[..., 1:-1] += (v[..., 2:] - 2 * v[..., 1:-1] + v[..., :-2]) \
            / dxc[1:-1] ** 2
        out[..., 1:-1, :] += (v[..., 2:, :] - 2 * v[..., 1:-1, :]
                              + v[..., :-2, :]) / self.grid.dyv[1:-1, :] ** 2
        out[..., ~self.v_open] = 0.0
        return out

    def _upwind_advect_u(self, u: np.ndarray, v_at_u: np.ndarray) -> np.ndarray:
        """First-order upwind u·∇u at u faces."""
        adv = np.zeros_like(u)
        dx = self.grid.dxu
        dudx_m = np.zeros_like(u)
        dudx_p = np.zeros_like(u)
        dudx_m[..., 1:] = (u[..., 1:] - u[..., :-1]) / dx[:, 1:]
        dudx_p[..., :-1] = (u[..., 1:] - u[..., :-1]) / dx[:, 1:]
        adv += np.where(u > 0, u * dudx_m, u * dudx_p)
        dyc = self.grid.y_axis.spacing[:, None]
        dudy_m = np.zeros_like(u)
        dudy_p = np.zeros_like(u)
        dudy_m[..., 1:, :] = (u[..., 1:, :] - u[..., :-1, :]) / dyc[1:]
        dudy_p[..., :-1, :] = (u[..., 1:, :] - u[..., :-1, :]) / dyc[1:]
        adv += np.where(v_at_u > 0, v_at_u * dudy_m, v_at_u * dudy_p)
        adv[..., ~self.u_open] = 0.0
        return adv

    def _upwind_advect_v(self, v: np.ndarray, u_at_v: np.ndarray) -> np.ndarray:
        adv = np.zeros_like(v)
        dy = self.grid.dyv
        dvdy_m = np.zeros_like(v)
        dvdy_p = np.zeros_like(v)
        dvdy_m[..., 1:, :] = (v[..., 1:, :] - v[..., :-1, :]) / dy[1:, :]
        dvdy_p[..., :-1, :] = (v[..., 1:, :] - v[..., :-1, :]) / dy[1:, :]
        adv += np.where(v > 0, v * dvdy_m, v * dvdy_p)
        dxc = self.grid.x_axis.spacing
        dvdx_m = np.zeros_like(v)
        dvdx_p = np.zeros_like(v)
        dvdx_m[..., 1:] = (v[..., 1:] - v[..., :-1]) / dxc[1:]
        dvdx_p[..., :-1] = (v[..., 1:] - v[..., :-1]) / dxc[1:]
        adv += np.where(u_at_v > 0, u_at_v * dvdx_m, u_at_v * dvdx_p)
        adv[..., ~self.v_open] = 0.0
        return adv

    # ------------------------------------------------------------------
    # integration helpers
    # ------------------------------------------------------------------
    def run(self, state: ShallowWaterState, duration: float
            ) -> ShallowWaterState:
        """Advance ``state`` by ``duration`` seconds (whole steps)."""
        n = max(1, int(round(duration / self.dt)))
        for _ in range(n):
            state = self.step(state)
        return state

    def total_volume(self, state: ShallowWaterState) -> float:
        """Water volume above the bed over wet cells [m³]."""
        H = self.total_depth(state.zeta)
        return float((H * self.grid.area)[self.wet].sum())
