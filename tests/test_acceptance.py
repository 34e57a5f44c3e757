"""Acceptance suite: one test per numbered criterion.

Run with -v to get one pass/fail line per criterion.  Criteria 5 and 11
share a 5-trial ensemble fixture and criteria 8 and 9 share a coupled
versus uncoupled comparison fixture; both fixtures are module scoped
because they carry minutes of simulation.  The comparison runs in a
worker process beside the rest of the suite (see conftest).  The two
coupled-crossing tests after criterion 8 share a third, a seed-0 run at
n = 4096 started from initial fields on file.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from bchsim.config import SolverConfig
from bchsim.energy import energy_scale, period_from_energy, plateau_slope_bound
from bchsim.ensemble import (
    compare_coupled,
    detect_energy_drops,
    first_crossing,
    run_ensemble,
    uncoupled_twin,
)
from bchsim.evans import evans, leading_eigenvalue, monodromy, rescale_table
from bchsim.grid import Field, Grid
from bchsim.initial import build_initial_fields
from bchsim.io import write_snapshot
from bchsim.predictors import fit_pfit, p_fit
from bchsim.series import TimeSeries
from bchsim.solver import Snapshot, Stepper, run
from bchsim.waves import Params, period_of_amplitude


@pytest.fixture(scope="module")
def ensemble5(eig_table):
    """Five uncoupled trials to T = 100 with predictor overlays.

    record_every = 5 puts the record spacing at 0.005, which pins the
    handshake time to within half a record of the spinodal crossing.
    """
    cfg = SolverConfig(
        coupling="uncoupled",
        n=2048,
        kappa=1e-3,
        t_final=100.0,
        dt=1e-3,
        record_every=5,
        seed=0,
    )
    return run_ensemble(cfg, trials=5, overlays=True, eig_table=eig_table)


def speedup_configs() -> tuple[SolverConfig, SolverConfig]:
    """Coupled advective run and its uncoupled twin, same draw.

    t_final = 20 on the coupled side matches the fit window used by
    criterion 9; the twin horizon of 15 makes a >= 10x censored speedup
    bound measurable while leaving the t = 5 clause intact.
    """
    coupled = SolverConfig(
        coupling="advective",
        n=8192,
        kappa=1e-3,
        nu=6e-3,
        K=1.0,
        init_v="bump",
        seed=0,
        t_final=20.0,
        record_every=64,
    )
    return coupled, uncoupled_twin(coupled, t_final=15.0, dt=1e-3, record_every=10)


def timed_compare(coupled: SolverConfig, twin: SolverConfig):
    """compare_coupled(coupled, twin) and its wall time, measured where it runs."""
    start = time.perf_counter()
    report = compare_coupled(coupled, twin)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def speedup(speedup_job):
    """The comparison of speedup_configs, as timed_compare returns it.

    It carries minutes of simulation, so conftest submits it to a worker
    process when the session starts and runs the tests that use it last;
    its time is then taken while the rest of the suite shares the machine.
    A worker killed outright loses the job, so the wait is bounded by
    criterion 8's own time limit.
    """
    return speedup_job.get(timeout=1800.0)


def test_criterion_01_closed_form_period_matches_quadrature(params):
    # independent oracle: quarter-period integral against the first
    # integral of the wave ODE, substitution y = a - u^2 removes the
    # square-root endpoint singularity at y = a
    def oracle(a: float) -> float:
        fa = params.f(a)
        dfa = params.df(a)

        def integrand(u: float) -> float:
            y = a - u * u
            gap = params.f(y) - fa
            if gap <= 0.0:
                return 2.0 / math.sqrt(-dfa)
            return 2.0 * u / math.sqrt(gap)

        val, _ = quad(integrand, 0.0, math.sqrt(a), limit=300,
                      epsabs=1e-12, epsrel=1e-11)
        return 2.0 * math.sqrt(2.0 * params.kappa) * val

    amplitudes = np.linspace(0.02, 0.98, 50) * params.binodal
    start = time.perf_counter()
    worst = 0.0
    for a in amplitudes:
        closed = period_of_amplitude(float(a), params)
        reference = oracle(float(a))
        worst = max(worst, abs(closed - reference) / reference)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8, f"worst relative gap {worst:.3e}"
    assert elapsed < 5.0, f"50 amplitudes took {elapsed:.2f}s"


def test_criterion_02_small_amplitude_eigenvalue_hits_top_rate(params):
    start = time.perf_counter()
    lam = leading_eigenvalue(0.01, params)
    elapsed = time.perf_counter() - start
    top = params.lambda_top
    assert abs(lam - top) <= 0.01 * top, f"lambda = {lam}, expected {top} within 1%"
    assert elapsed < 60.0, f"eigenvalue solve took {elapsed:.1f}s"


def test_criterion_03_eigenvalue_table_rescales_across_kappa(eig_table):
    rescaled = rescale_table(eig_table, 1e-4)
    sharp = Params(kappa=1e-4)
    # Hill's method resolves the leading eigenvalue relatively on every row,
    # down to lambda ~ 3e-6 on the last one, so the picks span the whole table
    picks = np.unique(np.round(np.linspace(0, rescaled.lambda_max.size - 1, 10)).astype(int))
    assert picks.size == 10
    for i in picks:
        a = float(rescaled.amplitudes[i])
        expected = float(rescaled.lambda_max[i])
        direct = leading_eigenvalue(a, sharp)
        rel = abs(direct - expected) / expected
        assert rel <= 1e-3, f"a = {a}: direct {direct} vs rescaled {expected} (rel {rel:.2e})"


def test_criterion_04_monodromy_determinant_and_translation_root(params):
    # the monodromy norm grows exponentially toward the binodal; past
    # 0.9 of it the determinant's rounding floor alone exceeds 1e-8, so
    # the grid stops there
    amplitudes = np.linspace(0.05, 0.90, 10) * params.binodal
    lams = np.linspace(0.0, 1.2 * params.lambda_top, 10)
    rk_steps = 4096  # det drift at 2048 leaves ~4e-7 on this grid
    for a in amplitudes:
        for lam in lams:
            mono = monodromy(float(lam), float(a), params, rk_steps=rk_steps)
            assert abs(mono.det - 1.0) <= 1e-8, (
                f"a = {a:.3f}, lambda = {lam:.1f}: det = {mono.det}"
            )
            if lam == 0.0:
                d = evans(mono, 0.0)
                scale = (1.0 + np.linalg.norm(mono.matrix)) ** 4
                assert abs(d) <= 1e-6 * scale, (
                    f"a = {a:.3f}: D(0,0) = {d}, scale {scale:.3e}"
                )


def test_criterion_05_free_energy_drops_in_kink_quanta(params, ensemble5):
    scale = energy_scale(params)
    quantum = 2.0 * scale.e_min
    # the drop detector is calibrated for records 0.1 apart; the shared
    # fixture records at 0.005 for the handshake, so decimate by 20
    trials_with_drop = 0
    for series in ensemble5.trial_series:
        assert series is not None
        t = np.asarray(series["t"])[::20]
        e = np.asarray(series["free_energy"])[::20]
        drops = detect_energy_drops(t, e)
        if drops:
            trials_with_drop += 1
        for when, size in drops:
            assert abs(size - quantum) <= 0.15 * quantum, (
                f"drop of {size:.4f} at t = {when:.1f} vs quantum {quantum:.4f}"
            )
    assert trials_with_drop >= 3, f"only {trials_with_drop} of 5 trials show a drop"


def test_criterion_06_balance_residual_halves_and_lyapunov_decreases():
    base = dict(
        coupling="advective",
        n=1024,
        kappa=1e-3,
        nu=6e-3,
        K=1.0,
        init_v="bump",
        seed=3,
        t_final=0.01,
    )
    # matched record grids: both runs record every 1e-4 time units
    coarse = run(SolverConfig(**base, dt=2.5e-5, record_every=4))
    fine = run(SolverConfig(**base, dt=1.25e-5, record_every=8))
    r_coarse = np.abs(np.asarray(coarse.series["balance_residual"])[1:]).mean()
    r_fine = np.abs(np.asarray(fine.series["balance_residual"])[1:]).mean()
    ratio = r_coarse / r_fine
    assert 1.5 <= ratio <= 2.5, f"residual ratio {ratio:.3f} not consistent with first order"

    per_step = run(SolverConfig(**base, dt=2.5e-5, record_every=1))
    lyap = np.asarray(per_step.series["kinetic_energy"]) + base["K"] * np.asarray(
        per_step.series["free_energy"]
    )
    worst_rise = float(np.diff(lyap).max())
    assert worst_rise <= 1e-10, f"Lyapunov functional rose by {worst_rise:.3e} in one step"


def test_criterion_07_single_mode_growth_at_top_rate(params):
    grid = Grid(256)
    stepper = Stepper(grid, params, dt=2e-6, coupling_mode="uncoupled")
    # mode 7 is the grid wavenumber closest to the fastest-growing one
    phi_hat = stepper.spectral(1e-4 * np.cos(7.0 * math.pi * grid.x))
    start_amp = abs(phi_hat[7])
    steps = 1000  # t in [0, 0.002]
    for _ in range(steps):
        phi_hat, _ = stepper.advance(phi_hat, None)
    rate = math.log(abs(phi_hat[7]) / start_amp) / (steps * 2e-6)
    top = params.lambda_top
    assert abs(rate - top) <= 0.05 * top, f"measured rate {rate:.2f} vs {top}"


def test_criterion_08_coupled_run_accelerates_coarsening(speedup):
    report, elapsed = speedup
    assert report.thresholds[0] == 1.12
    assert elapsed <= 1800.0, f"comparison fixture took {elapsed:.0f}s"

    coupled_cross = report.coupled_crossings[0]
    assert coupled_cross is not None, "coupled run never reached period 1.12"

    # the uncoupled twin must not reach the threshold by t = 5
    tu = np.asarray(report.uncoupled.series["t"])
    pu = np.asarray(report.uncoupled.series["period"])
    early = tu <= 5.0
    assert first_crossing(tu[early], pu[early], 1.12) is None

    # censored speedup bound from the full twin horizon
    assert report.uncoupled_crossings[0] is None
    twin_horizon = float(tu[-1])
    bound = twin_horizon / coupled_cross
    assert bound >= 10.0, f"censored speedup bound {bound:.1f}x"

    # the acceleration is the flow carrying kinks into its shock, so the
    # crossing is due once the kinks present after the spinodal stage
    # (t = 0.1) have had time to ride their velocities there
    after_spinodal = run(replace(report.coupled.config, t_final=0.1)).final_state
    t_transport = kink_transport_time(after_spinodal)
    assert coupled_cross <= t_transport, (
        f"coupled run first reaches period 1.12 at t = {coupled_cross:.3f}, "
        f"later than t = {t_transport:.3f}, by which its flow at t = "
        f"{after_spinodal.t:.3f} carries all but two kinks into the shock"
    )


def kink_transport_time(state) -> float:
    """Time by which the flow has carried all but two kinks into its shock.

    Kinks are the zero crossings of phi.  The odd bump steepens into a
    shock at x = +-L; a kink at x moving outward at v(x) reaches it after
    (L - |x|) / |v(x)| if it keeps its speed, as a point riding a Burgers
    characteristic does, and a kink moving inward never does.  Kinks
    within L / 10 of the shock count as already in it.  Period 1.12 is
    crossed once at most two kinks are left, so the estimate is state.t
    plus the third-longest transit time.
    """
    grid = state.phi.grid
    L = grid.half_length
    phi, v = state.phi.values, state.v.values
    i = np.nonzero(np.sign(phi) != np.sign(np.roll(phi, -1)))[0]
    j = (i + 1) % grid.n
    x = grid.x[i] + grid.dx * phi[i] / (phi[i] - phi[j])
    vx = np.interp(x, grid.x, v)
    inner = np.abs(x) < 0.9 * L
    x, vx = x[inner], vx[inner]
    transit = np.full(x.shape, np.inf)
    out = x * vx > 0
    transit[out] = (L - np.abs(x[out])) / np.abs(vx[out])
    return state.t + float(np.sort(transit)[-3])


def _crossing(result) -> float | None:
    s = result.series
    return first_crossing(s["t"], s["period"], 1.12)


def _zero_pad(values: np.ndarray, n: int) -> np.ndarray:
    """Band-limited samples interpolated spectrally onto n points."""
    return np.fft.irfft(np.fft.rfft(values), n) * (n / values.size)


def _from_fields(cfg: SolverConfig, directory, phi: np.ndarray, v: np.ndarray,
                 **changes) -> SolverConfig:
    """``cfg`` started from (phi, v), written as a snapshot and read back."""
    grid = Grid(phi.size, cfg.L)
    snap = Snapshot(t=0.0, phi=Field(grid, phi), v=Field(grid, v))
    source = f"file:{write_snapshot(directory, snap)}"
    return replace(cfg, init_phi=source, init_v=source, **changes)


@pytest.fixture(scope="module")
def crossing_base(tmp_path_factory):
    """Criterion-8 run at n = 4096 started from initial fields on file.

    The seed-0 fields (noise draw, pre-evolution, unit bump) are built
    once; every variant in the refinement and mechanism tests reads its
    (phi, v) back through init_phi / init_v = file:, so each comparison
    starts from the identical state.
    """
    cfg = SolverConfig(
        coupling="advective",
        n=4096,
        kappa=1e-3,
        nu=6e-3,
        K=1.0,
        init_v="bump",
        seed=0,
        t_final=1.4,
        record_every=64,
    )
    phi, v = build_initial_fields(cfg, cfg.make_grid(), cfg.params)
    cfg = _from_fields(cfg, tmp_path_factory.mktemp("fields"), phi.values, v.values)
    return cfg, phi.values, v.values, run(cfg)


def test_coupled_crossing_converges_in_dt_and_n(crossing_base, tmp_path):
    cfg, phi, v, base = crossing_base
    t_dt = _crossing(base)
    assert t_dt is not None, "coupled run never reached period 1.12"

    # halved step on the same record times; the horizon covers a 5 % delay
    half = run(replace(cfg, dt=cfg.dt_eff / 2, record_every=2 * cfg.record_every,
                       t_final=1.06 * t_dt))
    t_half = _crossing(half)
    assert t_half is not None, f"dt/2 run never reached period 1.12 by t = {1.06 * t_dt:.3f}"
    shift = abs(t_half - t_dt) / t_dt
    assert shift <= 0.05, f"crossing moved from {t_dt:.4f} to {t_half:.4f} under dt/2"

    # the same fields on twice the points follow the same free-energy record
    # through the shock's formation and reach the same crossing
    n_fine = 2 * cfg.n
    spacing = cfg.record_every * cfg.dt_eff
    fine = run(_from_fields(cfg, tmp_path, _zero_pad(phi, n_fine), _zero_pad(v, n_fine),
                            n=n_fine, t_final=spacing * (math.ceil(t_dt / spacing) + 1)))
    t_fine = fine.series["t"]
    early = base.series["t"] <= t_fine[-1]
    assert np.array_equal(base.series["t"][early], t_fine)
    e_base = base.series["free_energy"][early]
    rel = float(np.max(np.abs(fine.series["free_energy"] - e_base) / np.abs(e_base)))
    assert rel <= 1e-9, f"n = {n_fine} free energy departs by {rel:.2e} relative"
    t_n = _crossing(fine)
    assert t_n is not None and abs(t_n - t_dt) <= 1e-9 * t_dt, (
        f"n = {n_fine} crossed at {t_n}, n = {cfg.n} at {t_dt:.6f}")


def test_coupled_crossing_is_carried_by_the_bump(crossing_base, tmp_path):
    """The crossing time is set by the prescribed flow, not by the feedback.

    K = 0 cuts the composition's force on the velocity and barely moves
    the crossing; doubling the bump's sup norm nearly halves it, since the
    kinks ride its characteristics into the shock at x = +-L.
    """
    cfg, phi, v, base = crossing_base
    t_unit = _crossing(base)
    assert t_unit is not None, "coupled run never reached period 1.12"

    passive = run(replace(cfg, K=0.0, t_final=1.04 * t_unit))
    t_passive = _crossing(passive)
    assert t_passive is not None, (
        f"K = 0 run never reached period 1.12 by t = {1.04 * t_unit:.3f}")
    change = abs(t_passive - t_unit) / t_unit
    assert change <= 0.03, f"K = 0 moved the crossing from {t_unit:.4f} to {t_passive:.4f}"

    doubled = run(_from_fields(cfg, tmp_path, phi, 2.0 * v, t_final=0.6 * t_unit))
    t_doubled = _crossing(doubled)
    assert t_doubled is not None and t_doubled <= 0.6 * t_unit, (
        f"doubled bump crossed at {t_doubled}, unit bump at {t_unit:.4f}"
    )


def test_criterion_09_fit_recovers_synthetic_and_brackets_real_run(params, speedup):
    t = np.linspace(0.0, 20.0, 401)
    synthetic = TimeSeries(t=t, period=p_fit(t, 3.0, 7.0, params))
    fit = fit_pfit(synthetic, params, t_max=20.0)
    assert abs(fit.c1 - 3.0) / 3.0 <= 1e-4
    assert abs(fit.c2 - 7.0) / 7.0 <= 1e-4

    report, _ = speedup
    real = report.coupled_fit
    assert real is not None
    # the accepted band is the reference fit value widened by half in
    # both directions, absorbing the draw-to-draw spread at desk scale
    assert 2.85 <= real.c1 <= 9.15, f"fitted c1 = {real.c1:.3f}"


def test_criterion_10_energy_period_pseudoinverse_properties(params, energy_table):
    # start strictly above the table floor; the floor itself is the
    # documented clamp edge
    energies = np.linspace(energy_table.e_floor, params.e_max, 201)[1:]
    periods = np.array([period_from_energy(float(e), energy_table) for e in energies])
    assert np.all(np.diff(periods) <= 1e-12), "pseudoinverse must fall as energy rises"

    at_top = period_from_energy(params.e_max, energy_table)
    resolution = float(energy_table.periods[1] - energy_table.periods[0])
    assert abs(at_top - params.p_min) <= resolution

    slopes = np.diff(energy_table.energies) / np.diff(energy_table.periods)
    mids = 0.5 * (energy_table.amplitudes[1:] + energy_table.amplitudes[:-1])
    rising = slopes > 0
    assert rising.any()
    bounds = np.array([plateau_slope_bound(float(a), params) for a in mids[rising]])
    assert np.all(slopes[rising] <= bounds * (1.0 + 1e-6))


def test_criterion_11_ensemble_mean_stays_in_predictor_band(params, ensemble5):
    rep = ensemble5
    assert not rep.failures
    assert rep.handshake is not None and rep.overlays is not None

    langer = np.asarray(rep.overlays["langer_energy"])
    live = ~np.isnan(langer)
    mean = np.asarray(rep.mean_free_energy)[live]
    cap = langer[live]
    floor = np.minimum(
        np.asarray(rep.overlays["eig_half_energy"])[live],
        np.asarray(rep.overlays["eig_full_energy"])[live],
    )

    scale = energy_scale(params)
    # a 5-trial mean of quantized staircases can lead or lag the smooth
    # predictions coherently by about one annihilation event, so the band
    # tolerance is one kink-pair quantum
    tol = 2.0 * scale.e_min
    assert np.all(mean >= scale.e_min), "mean energy fell below a single kink"
    worst_cap = float((mean - cap).max())
    assert worst_cap <= tol, f"mean exceeds the Langer cap by {worst_cap:.4f}"
    worst_floor = float((floor - mean).max())
    assert worst_floor <= tol, f"mean undercuts the eigenvalue floor by {worst_floor:.4f}"


def test_ensemble_mean_period_monotone_after_smoothing(ensemble5):
    window = 10
    smoothed = np.convolve(
        np.asarray(ensemble5.mean_period), np.ones(window) / window, mode="valid"
    )
    assert np.all(np.diff(smoothed) >= -1e-9)
