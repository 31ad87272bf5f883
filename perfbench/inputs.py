"""Seeded workload inputs.

Everything the program receives is built here from the ``--seed``
argument alone, through the repository's own generators: the surrogate
weights (``SurrogateConfig.seed``), the estuary reference run
(``RomsLikeModel.simulate_with_states``), and the multi-basin traffic
trace (``ScenarioFactory``, ``TrafficModel``, ``simulate_trace``).  The
same seed gives bitwise-identical inputs.  None of this is timed: the
benchmark hands the program only the finished windows, requests and
solver states.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.data import Normalizer
from repro.ocean import OceanConfig, RomsLikeModel
from repro.ocean.swe import ShallowWaterState
from repro.physics import Verifier
from repro.scenario import (ScenarioFactory, StormSpike, TrafficModel,
                            simulate_trace)
from repro.swin import CoastalSurrogate, SurrogateConfig
from repro.workflow import FieldWindow, ForecastEngine, GradientRequest
from repro.workflow.sensitivity import StormOverlay

VARS = ("u3", "v3", "w3", "zeta")

#: The serving-scale surrogate (``bench_batched_inference.SERVING``):
#: 16x16x6 padded mesh, T=4.  Untrained: timing does not depend on skill.
SERVING = SurrogateConfig(
    mesh=(16, 16, 6), time_steps=4,
    patch3d=(4, 4, 2), patch2d=(4, 4),
    embed_dim=8, num_heads=(2, 4, 8), depths=(2, 2, 2),
    window_first=(2, 2, 2, 2), window_rest=(2, 2, 2, 2),
)
T = SERVING.time_steps

#: The 14x15x6 estuary of the tests and the hybrid example.
ESTUARY = OceanConfig(nx=14, ny=15, nz=6, length_x=14_000.0,
                      length_y=15_000.0)

# hybrid_rollout shape: 8 scenarios x 12 chained episodes
N_SCENARIOS = 8
N_EPISODES = 12
#: fallback episodes per episode index: 10 of 96 (about one in ten), in
#: a fixed placement so that every seed dispatches the same solver work
FALLBACK_PATTERN = (4, 4, 2) + (0,) * 9
#: scenario draws tried before giving up on a seed
MAX_DRAWS = 512
#: scenario start snapshots are drawn from [0, START_SPAN)
START_SPAN = 24
SPINUP_S = 0.25 * 86400.0
#: gates at or below this would also fail surrogate-chained episodes
#: (their residual is ~5e-7), which the sweep does not model
MIN_THRESHOLD = 5e-6

# serving traffic
#: mean offered arrivals per second, all basins, for serve_storm: 1185
#: requests in a 30 s run, so the forecast p99 and the gradient p90 each
#: have ten samples beyond them.  Most are cache hits; on a 2-vCPU host
#: the engine replica was busy about a tenth of the time.
OFFERED_RATE = 39.5
#: the same for serve_unique_process, where every request is a forward
#: on one child replica: 39.5/s kept it ~45% busy on a 2-vCPU host and
#: its median latency swung from 15 to 25 ms with host load; 20/s gives
#: 600 requests in 30 s, so the tail reported is p98
UNIQUE_RATE = 20.0
#: serve_unique_process arrivals come in bursts of this many, each burst
#: due at its first member's trace time, so every micro-batch is a full
#: bucket.  Sent one at a time, each request paid its own thread and
#: process wake-ups, and the median latency moved 15 -> 22 ms between
#: quiet and busy phases of a shared 2-vCPU host.
UNIQUE_BURST = 8
#: share of serve_storm arrivals turned into gradient requests
GRAD_SHARE = 0.1
#: share of serve_storm arrivals that are cache-busting unique windows
STORM_UNIQUE = 0.1
#: rolling windows slide one model step this often [s] per basin
ADVANCE_EVERY_S = 3.0


def surrogate(seed: int) -> CoastalSurrogate:
    """The untrained serving-scale surrogate, weights from ``seed``."""
    return CoastalSurrogate(replace(SERVING, seed=int(seed) % (2 ** 31)))


def normalizer() -> Normalizer:
    return Normalizer({v: 0.0 for v in VARS}, {v: 1.0 for v in VARS})


def slice_window(window: FieldWindow, lo: int, hi: int) -> FieldWindow:
    return FieldWindow(window.u3[lo:hi].copy(), window.v3[lo:hi].copy(),
                       window.w3[lo:hi].copy(), window.zeta[lo:hi].copy())


# ----------------------------------------------------------------------
# hybrid_rollout
# ----------------------------------------------------------------------
@dataclass
class HybridInputs:
    references: List[FieldWindow]                 # one per scenario
    states: List[List[ShallowWaterState]]         # per scenario, per episode
    threshold: float                              # verifier gate [m/s]
    predicted_fallbacks: int                      # from the residual sweep


def _run_length(first: float, rest: Sequence[float], thr: float) -> int:
    """Leading episodes that fail the gate ``residual < thr``.

    Episode 0 starts from the reference state; after a fallback the next
    episode starts from the solver's output, and after a pass from the
    surrogate's own output, whose residual (~5e-7) sits far below any
    threshold the sweep picks — so a scenario falls back for a leading
    run of episodes and then stays on the surrogate.
    """
    if first < thr:
        return 0
    n = 1
    for r in rest:
        if r < thr:
            break
        n += 1
    return n


def hybrid_inputs(seed: int, engine: ForecastEngine) -> HybridInputs:
    """Reference horizon, fallback states and verifier threshold.

    One spun-up estuary run supplies every scenario; scenario *i* starts
    at snapshot ``starts[i]`` (drawn from the seed), so the scenarios
    sit at different tidal phases.  The threshold is chosen from the
    surrogate's residuals so that the fallbacks per episode index match
    :data:`FALLBACK_PATTERN`: the sweep forecasts every window from a
    reference initial condition and from the solver output a fallback
    would leave behind (``engine`` must be bitwise-equal to the one
    under test — an untimed compiled copy is).  Start draws that admit
    no threshold giving the pattern are redrawn from the same seeded
    stream.
    """
    rng = np.random.default_rng((int(seed), 0x4859))
    ocean = RomsLikeModel(ESTUARY)
    horizon = N_EPISODES * T
    n_snap = START_SPAN + horizon
    spun = ocean.spinup(duration=SPINUP_S)
    snaps, states, _ = ocean.simulate_with_states(spun, n_snap, every=1)
    x3, x2 = ocean.stack_fields(snaps)
    full = FieldWindow(np.moveaxis(x3[0], -1, 0), np.moveaxis(x3[1], -1, 0),
                       np.moveaxis(x3[2], -1, 0), np.moveaxis(x2[0], -1, 0))

    # residual of the window starting at snapshot s, from the reference
    # IC (episode 0) and from a fallback's last snapshot, snaps[s - 2]
    # (the solver re-runs states[s - T] for T - 1 snapshots)
    starts_all = range(n_snap - T + 1)
    windows, keys = [], []
    for s in starts_all:
        windows.append(slice_window(full, s, s + T))
        keys.append(("ref", s))
        if s >= 2:
            w = slice_window(full, s, s + T)
            for var in VARS:
                getattr(w, var)[0] = getattr(full, var)[s - 2]
            windows.append(w)
            keys.append(("fb", s))
    verifier = Verifier(ocean.grid, ocean.depth,
                        dt=ESTUARY.snapshot_interval)
    resid: Dict[tuple, float] = {}
    for lo in range(0, len(windows), 8):
        res = engine.forecast_batch(windows[lo:lo + 8])
        ver = verifier.verify_batch([r.fields.zeta for r in res],
                                    [r.fields.u3 for r in res],
                                    [r.fields.v3 for r in res])
        for key, v in zip(keys[lo:lo + 8], ver):
            resid[key] = v.mean_residual

    for _ in range(MAX_DRAWS):
        starts = sorted(int(s) for s in
                        rng.choice(START_SPAN, N_SCENARIOS, replace=False))
        firsts = [resid[("ref", s)] for s in starts]
        rests = [[resid[("fb", s + ep * T)] for ep in range(1, N_EPISODES)]
                 for s in starts]
        # candidate gates: midway between adjacent residuals, so no
        # residual sits near the gate; keep the loosest giving the pattern
        values = sorted(set(firsts) | {v for r in rests for v in r})
        cands = [0.5 * (a + b) for a, b in zip(values, values[1:])]
        for thr in reversed(cands):
            if thr <= MIN_THRESHOLD:
                break
            runs = [_run_length(f, r, thr) for f, r in zip(firsts, rests)]
            pattern = tuple(sum(n > ep for n in runs)
                            for ep in range(N_EPISODES))
            if pattern == FALLBACK_PATTERN:
                references = [slice_window(full, s, s + horizon)
                              for s in starts]
                scen_states = [[states[s + ep * T]
                                for ep in range(N_EPISODES)]
                               for s in starts]
                return HybridInputs(references, scen_states, float(thr),
                                    sum(runs))
    raise RuntimeError(
        f"seed {seed}: no scenario draw admits the fallback pattern "
        f"{FALLBACK_PATTERN}")


# ----------------------------------------------------------------------
# serve_storm / serve_unique_process
# ----------------------------------------------------------------------
@dataclass
class Arrival:
    """One generated request: due time, what to send, and its content
    id (equal ids are byte-identical requests)."""

    due: float                      # seconds after the run starts
    basin: str
    kind: str                       # "forecast" | "gradient"
    window: FieldWindow
    content: tuple
    grad: Optional[GradientRequest] = None


def _storm_for(basin, rng) -> StormOverlay:
    """A storm hypothesis over one basin, jittered from the seed."""
    spec = basin.spec
    return StormOverlay(
        x0=float(rng.uniform(0.3, 0.7)) * spec.length_x,
        y0=float(rng.uniform(0.3, 0.7)) * spec.length_y,
        vx=500.0, vy=300.0, max_wind=float(rng.uniform(40.0, 60.0)),
        radius_max_wind=8000.0,
        central_pressure_drop=float(rng.uniform(1.0e4, 2.0e4)),
        spacing=(spec.length_y / spec.ny, spec.length_x / spec.nx),
        dt=3.0)


def serve_arrivals(seed: int, seconds: float,
                   unique_only: bool) -> List[Arrival]:
    """The open-loop request sequence of one serving run.

    A storm-spike trace over the four default basins at a mean of
    :data:`OFFERED_RATE` (``unique_only``: :data:`UNIQUE_RATE`)
    arrivals/s, cut after exactly ``round(rate * seconds)`` requests so
    that every seed offers the same count (the run lasts ``seconds``
    give or take the Poisson spread of the arrival times).  With
    ``unique_only`` every arrival is a fresh window
    (``unique_fraction=1.0``), none is a gradient, and arrivals come in
    bursts of :data:`UNIQUE_BURST`; otherwise :data:`STORM_UNIQUE` of
    them are fresh, the rest repeat their basin's rolling "current"
    window, and exactly
    ``round(GRAD_SHARE * n)`` arrivals, picked by the seed, become
    ``GradientRequest(wrt=("fields", "storm"))`` on the same window.
    """
    factory = ScenarioFactory(seed=int(seed), time_steps=T)
    names = factory.basin_names
    # two basins spike mid-run (A=1.5, sigma = run/8): the mean rate over
    # the run is 1 + A*sqrt(2*pi)/8 ~ 1.47x the base on those basins
    spike = StormSpike(center_s=0.5 * seconds, width_s=seconds / 8.0,
                       amplitude=1.5)
    spikes = {names[0]: spike, names[1]: spike}
    spike_mean = 1.0 + spike.amplitude * np.sqrt(2.0 * np.pi) / 8.0
    offered = sum(s.weight * (spike_mean if s.name in spikes else 1.0)
                  for s in factory.specs)
    rate = UNIQUE_RATE if unique_only else OFFERED_RATE
    base = rate / offered
    model = TrafficModel.from_factory(
        factory, base_rate=base,
        unique_fraction=1.0 if unique_only else STORM_UNIQUE,
        advance_every_s=0.0 if unique_only else ADVANCE_EVERY_S,
        spikes=spikes)
    n_req = int(round(rate * seconds))
    # a longer trace, cut at the n-th request: the count never falls short
    trace = simulate_trace(model, 1.5 * seconds, seed=int(seed))
    events, count = [], 0
    for event in trace.events:
        if count == n_req:
            break
        events.append(event)
        count += event.is_request
    if count < n_req:
        raise RuntimeError(f"seed {seed}: trace holds only {count} of "
                           f"{n_req} requests")

    rng = np.random.default_rng((int(seed), 0x5354))
    storms = {name: _storm_for(factory.basin(name), rng) for name in names}
    grad_ids = set() if unique_only else set(
        rng.choice(n_req, int(round(GRAD_SHARE * n_req)),
                   replace=False).tolist())

    rolls = {name: factory.rolling(name) for name in names}
    version = {name: 0 for name in names}
    out: List[Arrival] = []
    for event in events:
        if event.kind == "advance":
            rolls[event.basin].advance()
            version[event.basin] += 1
            continue
        if event.kind == "unique":
            window = factory.basin(event.basin).window(event.param)
            content = ("unique", len(out))
        else:
            window = rolls[event.basin].current
            content = ("current", event.basin, version[event.basin])
        if len(out) in grad_ids:
            req = GradientRequest(window, wrt=("fields", "storm"),
                                  storm=storms[event.basin])
            out.append(Arrival(event.t, event.basin, "gradient", window,
                               ("grad",) + content, req))
        else:
            out.append(Arrival(event.t, event.basin, "forecast", window,
                               content))
    if unique_only:
        for k, a in enumerate(out):
            a.due = out[k - k % UNIQUE_BURST].due
    return out


def warmup_windows(seed: int, n: int) -> List[FieldWindow]:
    """Windows no arrival uses (negative times), for untimed warm-up."""
    factory = ScenarioFactory(seed=int(seed), time_steps=T)
    name = factory.basin_names[0]
    return [factory.basin(name).window(-1.0e5 * (k + 1)) for k in range(n)]
