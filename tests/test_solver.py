import pickle
import re
from dataclasses import replace

import numpy as np
import pytest

import bchsim.initial as initial
import bchsim.solver as solver
from bchsim.config import COUPLINGS, SolverConfig
from bchsim.energy import free_energy
from bchsim.grid import Field, Grid
from bchsim.solver import (
    Snapshot,
    SolverError,
    Stepper,
    energy_balance_residual,
    resolution_check,
    run,
    run_batch,
)
from bchsim.waves import Params


def _uncoupled_state(values):
    g = Grid(len(values))
    return Snapshot(t=0.0, phi=Field(g, np.asarray(values, dtype=float)), v=None)


def _coupled_state(phi_vals, v_vals):
    g = Grid(len(phi_vals))
    return Snapshot(t=0.0, phi=Field(g, np.asarray(phi_vals, dtype=float)),
                    v=Field(g, np.asarray(v_vals, dtype=float)))


def _run_steps(state, dt, n, mode="uncoupled"):
    """The state after n steps of a default-parameter Stepper, through band spectra."""
    grid = state.phi.grid
    stepper = Stepper(grid, Params(), dt, mode)
    phi_hat = grid.spectral(state.phi.values)
    v_hat = None if state.v is None else grid.spectral(state.v.values)
    for _ in range(n):
        phi_hat, v_hat = stepper.advance(phi_hat, v_hat)
    v = None if v_hat is None else Field(grid, grid.physical(v_hat))
    return Snapshot(t=state.t + n * dt, phi=Field(grid, grid.physical(phi_hat)), v=v)


def test_zero_state_is_fixed():
    s = _uncoupled_state(np.zeros(64))
    s2 = _run_steps(s, 1e-3, 1)
    assert np.array_equal(s2.phi.values, np.zeros(64))


def test_binodal_state_is_fixed():
    params = Params()
    s = _uncoupled_state(np.full(64, params.binodal))
    s2 = _run_steps(s, 1e-3, 1)
    assert np.allclose(s2.phi.values, params.binodal, atol=1e-13)


def _noise_band_limited(g, seed, scale=0.1):
    rng = np.random.default_rng(seed)
    hat = np.fft.rfft(rng.standard_normal(g.n) * scale)
    hat[g.n // 4:] = 0.0
    return np.fft.irfft(hat, n=g.n)


def test_mass_conservation_by_mode():
    g = Grid(256)
    phi0 = _noise_band_limited(g, 1)
    v0 = 0.2 * np.sin(np.pi * g.x)
    masses = {}
    for mode in ("div1", "div2", "advective"):
        s = _coupled_state(phi0, v0)
        m0 = s.phi.mean()
        s = _run_steps(s, 1e-5, 100, mode)
        masses[mode] = abs(s.phi.mean() - m0)
    # divergence forms conserve the mean exactly; plain advection does not
    assert masses["div1"] < 1e-15
    assert masses["div2"] < 1e-15
    assert masses["advective"] > 1e-12


def test_uncoupled_mass_conserved():
    s = _uncoupled_state(_noise_band_limited(Grid(256), 3))
    m0 = s.phi.mean()
    s = _run_steps(s, 1e-4, 200)
    assert s.phi.mean() == pytest.approx(m0, abs=1e-15)


def test_uncoupled_energy_dissipates():
    params = Params()
    s = _uncoupled_state(_noise_band_limited(Grid(512), 5))
    energies = [free_energy(s.phi, params)]
    for _ in range(50):
        s = _run_steps(s, 1e-4, 1)
        energies.append(free_energy(s.phi, params))
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-12)
    assert energies[-1] < energies[0]


def test_cfl_guard_trips():
    g = Grid(256)
    s = _coupled_state(_noise_band_limited(g, 7), np.full(256, 2.0))
    with pytest.raises(SolverError, match="CFL"):
        _run_steps(s, 2.0 * g.dx, 1, "advective")


def test_uncoupled_ignores_cfl():
    # the uncoupled scheme has no transport term, so a large dt is legal
    s = _uncoupled_state(_noise_band_limited(Grid(2048), 11))
    out = _run_steps(s, 1e-3, 1)
    assert np.all(np.isfinite(out.phi.values))


def test_stepper_rejects_bad_arguments():
    g = Grid(64)
    with pytest.raises(ValueError):
        Stepper(g, Params(), -1e-3, "uncoupled")
    with pytest.raises(ValueError):
        Stepper(g, Params(), 1e-3, "nonsense")


def test_resolution_check_flags_tail_content():
    # n = 256 is the smallest grid used in real runs; below that the
    # double-transform roundoff tail can graze machine epsilon.
    g = Grid(256)
    clean = _uncoupled_state(_noise_band_limited(g, 13))
    ok, tail = resolution_check(clean)
    assert ok
    assert tail < 2.3e-16
    dirty_vals = clean.phi.values + 1e-3 * np.cos(np.pi * (g.n // 3) * g.x)
    dirty = _uncoupled_state(dirty_vals)
    ok2, tail2 = resolution_check(dirty)
    assert not ok2
    assert tail2 > 1e-6


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="needs an extended-precision long double")
def test_resolution_check_ignores_its_own_transform_roundoff():
    # a float64 rfft of this band-limited field reports 2.8e-16 above n/4,
    # past machine epsilon; the field itself holds 1.6e-16 there
    vals = _noise_band_limited(Grid(8192), 0)
    ok, tail = resolution_check(_uncoupled_state(vals))
    assert ok
    assert tail < 2.0e-16


def test_energy_balance_residual_shape():
    t = np.array([0.0, 0.1, 0.2, 0.3])
    q = np.array([1.0, 0.9, 0.82, 0.76])
    d = np.array([1.0, 0.95, 0.7, 0.5])
    r = energy_balance_residual(t, q, d)
    assert r[0] == 0.0
    assert r[1] == pytest.approx((0.9 - 1.0) / 0.1 + 0.5 * (1.0 + 0.95))
    with pytest.raises(ValueError):
        energy_balance_residual(t, q[:-1], d)


def test_run_records_series_and_snapshots():
    cfg = SolverConfig(n=256, t_final=0.01, dt=1e-4, record_every=20, seed=2,
                       coupling="uncoupled", snapshot_times=(0.0, 0.005))
    res = run(cfg)
    s = res.series
    assert s.names == ("t", "free_energy", "kinetic_energy", "h1_phi", "h1_v",
                       "period", "balance_residual")
    assert s["t"][0] == 0.0
    assert s["t"][-1] == pytest.approx(0.01)
    assert len(s) == 6  # t = 0, 4 interior records, final
    assert s["balance_residual"][0] == 0.0
    assert np.all(s["kinetic_energy"] == 0.0)
    assert np.all(s["h1_v"] == 0.0)
    assert [snap.t for snap in res.snapshots] == [0.0, pytest.approx(0.005)]
    assert res.snapshots[0].v is None
    assert res.resolution_ok


def test_run_is_deterministic():
    cfg = SolverConfig(n=256, t_final=0.01, dt=1e-4, record_every=10, seed=77,
                       coupling="div2", init_v="fourier")
    a = run(cfg)
    b = run(cfg)
    for name in a.series.names:
        assert np.array_equal(a.series[name], b.series[name])
    assert np.array_equal(a.final_state.phi.values, b.final_state.phi.values)
    assert np.array_equal(a.final_state.v.values, b.final_state.v.values)


def test_runs_differ_across_seeds():
    base = dict(n=256, t_final=0.002, dt=1e-4, record_every=10, coupling="uncoupled")
    a = run(SolverConfig(seed=1, **base))
    b = run(SolverConfig(seed=2, **base))
    assert not np.array_equal(a.final_state.phi.values, b.final_state.phi.values)


def test_lyapunov_never_increases_in_coupled_modes():
    for mode in ("advective", "div1", "div2"):
        cfg = SolverConfig(n=256, t_final=0.005, dt=1e-5, record_every=1, seed=4,
                           coupling=mode, init_v="fourier")
        res = run(cfg)
        q = res.series["kinetic_energy"] + cfg.K * res.series["free_energy"]
        assert np.all(np.diff(q) <= 1e-10), mode


def test_single_mode_growth_rate():
    # a tiny perturbation of the flat state grows at the dispersion rate
    # of its own wavenumber while nonlinear terms stay negligible
    params = Params()
    g = Grid(256)
    j = 7
    k = np.pi * j / g.half_length
    eps = 1e-4
    s = _uncoupled_state(eps * np.cos(k * g.x))
    t_final, dt = 1e-3, 1e-5
    amp0 = abs(np.fft.rfft(s.phi.values)[j])
    s = _run_steps(s, dt, round(t_final / dt))
    amp1 = abs(np.fft.rfft(s.phi.values)[j])
    rate = np.log(amp1 / amp0) / t_final
    expected = params.beta * k**2 - params.kappa * k**4
    assert rate == pytest.approx(expected, rel=0.02)


def test_nan_velocity_raises_at_its_step():
    g = Grid(256)
    stepper = Stepper(g, Params(), 1e-4, "advective")
    phi_hat = g.spectral(_noise_band_limited(g, 17))
    v_hat = g.spectral(0.2 * np.sin(np.pi * g.x))
    v_hat[5] = np.nan
    with pytest.raises(SolverError, match="non-finite velocity"):
        stepper.advance(phi_hat, v_hat)


def test_run_rejects_snapshot_after_last_step():
    # 0.01 / 9.7656e-5 rounds to 102 steps, so the run would stop at
    # t = 0.009961; the config refuses the snapshot before any run starts
    with pytest.raises(ValueError, match=r"snapshot_times 0\.01 .* t = 0\.00996"):
        SolverConfig(n=1024, coupling="advective", init_v="bump", t_final=0.01,
                     snapshot_times=(0.0, 0.01))


_ALL_MODES = COUPLINGS


def _stepped(advance, width, phi0, v0, steps):
    """Fields after `steps` calls of `advance` on spectra of `width` modes."""
    n = phi0.size
    phi_hat = np.fft.rfft(phi0)[:width]
    v_hat = None if v0 is None else np.fft.rfft(v0)[:width]
    for _ in range(steps):
        phi_hat, v_hat = advance(phi_hat, v_hat)
    return np.fft.irfft(phi_hat, n=n), None if v_hat is None else np.fft.irfft(v_hat, n=n)


@pytest.mark.parametrize("mode", _ALL_MODES)
def test_stepper_scaling_is_exact(mode):
    # (L, kappa, K, dt, v) -> (L/2, kappa/4, 4K, dt/4, 2v) at fixed n and nu maps
    # every step onto itself (all factors are powers of two) and halves E
    n, steps, dt = 1024, 2000, 1e-4
    base = Params(kappa=1e-3, K=1.0, nu=6e-3)
    half = Params(kappa=base.kappa / 4, K=4 * base.K, nu=base.nu, half_length=0.5)
    g1, g2 = Grid(n), Grid(n, half_length=0.5)
    phi0 = _noise_band_limited(g1, 19, scale=0.3)
    v0 = None if mode == "uncoupled" else 0.2 * np.sin(np.pi * g1.x)
    phi1, v1 = _stepped(Stepper(g1, base, dt, mode).advance, n // 4, phi0, v0, steps)
    v0 = None if v0 is None else 2 * v0
    phi2, v2 = _stepped(Stepper(g2, half, dt / 4, mode).advance, n // 4, phi0, v0, steps)
    assert np.array_equal(phi1, phi2)
    if mode != "uncoupled":
        assert np.array_equal(2 * v1, v2)
    e1 = free_energy(Field(g1, phi1), base)
    e2 = free_energy(Field(g2, phi2), half)
    assert abs(e1 / e2 - 2.0) <= 1e-15


def _masked_advance(grid, params, dt, mode):
    """The stepper before band spectra: half spectra, products masked to j < n/4."""
    n, p, a = grid.n, params, 2.0 * params.beta
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=grid.dx)
    ik, k2 = 1j * k, k * k
    mask = np.arange(k.size) < n // 4
    den_phi = 1.0 + dt * (p.kappa * k2**2 + a * k2)
    den_v = 1.0 + dt * p.nu * k2

    def phys(h):
        return np.fft.irfft(h, n=n)

    def proj(x):
        return np.where(mask, np.fft.rfft(x), 0.0)

    def advance(phi_hat, v_hat):
        phi = phys(phi_hat)
        cubic_hat = proj(p.alpha * phi**3)
        chem_hat = cubic_hat - (p.beta + a) * phi_hat
        if mode == "uncoupled":
            return (phi_hat - dt * k2 * chem_hat) / den_phi, None
        v, phi_x = phys(v_hat), phys(ik * phi_hat)
        adv_hat = proj(v * phi_x) if mode == "advective" else ik * proj(v * phi)
        mu_hat = p.kappa * k2 * phi_hat + cubic_hat - p.beta * phi_hat
        if mode == "div2":
            source_hat = -p.K * proj(phys(ik * mu_hat) * phi)
        else:
            source_hat = p.K * proj(phys(mu_hat) * phi_x)
        burgers_hat = proj(v * phys(ik * v_hat))
        new_phi = (phi_hat - dt * k2 * chem_hat - dt * adv_hat) / den_phi
        return new_phi, (v_hat + dt * (source_hat - burgers_hat)) / den_v

    return advance


@pytest.mark.parametrize("mode", _ALL_MODES)
def test_stepper_matches_masked_reference(mode):
    g, params, dt, steps = Grid(256), Params(kappa=1e-3, K=1.0, nu=6e-3), 2e-5, 500
    phi0 = _noise_band_limited(g, 23, scale=0.3)
    v0 = None if mode == "uncoupled" else _noise_band_limited(g, 29, scale=0.2)
    reference = _masked_advance(g, params, dt, mode)
    phi_ref, v_ref = _stepped(reference, g.n // 2 + 1, phi0, v0, steps)
    phi, v = _stepped(Stepper(g, params, dt, mode).advance, g.n // 4, phi0, v0, steps)
    assert not np.allclose(phi, phi0, rtol=0, atol=1e-3)  # the steps do something
    assert np.max(np.abs(phi - phi_ref)) <= 1e-12 * np.max(np.abs(phi_ref))
    if mode != "uncoupled":
        assert np.max(np.abs(v - v_ref)) <= 1e-12 * np.max(np.abs(v_ref))


@pytest.mark.parametrize("mode", ["uncoupled", "advective"])
def test_parseval_record_matches_grid_quadrature(mode):
    g = Grid(256)
    params = Params()
    stepper = Stepper(g, params, 1e-4, mode)
    phi_hat = g.spectral(_noise_band_limited(g, 3, scale=0.5))
    v_hat = None if mode == "uncoupled" else g.spectral(_noise_band_limited(g, 4, scale=0.3))
    values, phi, cubic_hat = stepper.record(phi_hat, v_hat)
    assert np.array_equal(phi, g.physical(phi_hat))
    assert np.array_equal(cubic_hat, g.spectral(phi * phi * phi))

    phi_x = g.physical(stepper.ik * phi_hat)
    mu_x = g.physical(stepper.ik * stepper.mu_hat(phi_hat, cubic_hat))
    expect = {
        "free_energy": free_energy(Field(g, phi), params),
        "h1_phi": np.sqrt(g.dx * np.sum(phi_x**2)),
        "dissipation": params.K * g.dx * np.sum(mu_x**2),
    }
    if v_hat is not None:
        v, v_x = g.physical(v_hat), g.physical(stepper.ik * v_hat)
        expect["kinetic_energy"] = 0.5 * g.dx * np.sum(v**2)
        expect["h1_v"] = np.sqrt(g.dx * np.sum(v_x**2))
        expect["dissipation"] += params.nu * g.dx * np.sum(v_x**2)
    else:
        assert values["kinetic_energy"] == values["h1_v"] == 0.0
    for name, value in expect.items():
        assert values[name] == pytest.approx(value, rel=1e-13, abs=0.0), name


@pytest.mark.parametrize("coupling,init_v", [("uncoupled", "none"), ("advective", "bump")])
def test_batch_rows_are_bit_identical_to_their_batch_of_one(coupling, init_v):
    base = SolverConfig(coupling=coupling, init_v=init_v, n=256, dt=1e-4, t_final=0.01,
                        record_every=10, seed=5, snapshot_times=(0.0, 0.005))
    configs = [replace(base, seed=base.seed + i) for i in range(3)]
    for cfg, batched in zip(configs, run_batch(configs)):
        alone = run(cfg)
        assert batched.config == cfg
        assert batched.series.names == alone.series.names
        for name in alone.series.names:
            assert np.array_equal(batched.series[name], alone.series[name]), name
        states = [(batched.final_state, alone.final_state)]
        states += list(zip(batched.snapshots, alone.snapshots))
        assert len(batched.snapshots) == len(alone.snapshots) == 2
        for a, b in states:
            assert a.t == b.t
            assert np.array_equal(a.phi.values, b.phi.values)
            assert (a.v is None and b.v is None) or np.array_equal(a.v.values, b.v.values)


def test_batch_refuses_runs_that_differ_beyond_the_seed():
    cfg = SolverConfig(n=64, t_final=0.01)
    with pytest.raises(ValueError, match="only in seed"):
        run_batch([cfg, replace(cfg, seed=1, kappa=2e-3)])


def _planted(monkeypatch, seed, plant):
    """Make plant(phi, v) the initial fields of the run with this seed."""
    build = initial.build_initial_fields

    def planted(cfg, grid, params):
        fields = build(cfg, grid, params)
        return plant(*fields) if cfg.seed == seed else fields

    monkeypatch.setattr(initial, "build_initial_fields", planted)


def test_a_cfl_fault_in_one_row_ends_that_run_only(monkeypatch):
    base = SolverConfig(coupling="advective", init_v="bump", n=256, dt=1e-4, t_final=0.005,
                        record_every=10, seed=5)
    configs = [replace(base, seed=base.seed + i) for i in range(3)]
    alone = [run(configs[0]), run(configs[2])]
    _planted(monkeypatch, base.seed + 1, lambda phi, v: (phi, Field(v.grid, 100.0 * v.values)))
    with pytest.raises(SolverError, match="CFL violation") as serial:
        run(configs[1])
    batched = run_batch(configs)
    assert isinstance(batched[1], SolverError) and str(batched[1]) == str(serial.value)
    for a, b in zip(alone, (batched[0], batched[2])):
        for name in a.series.names:
            assert np.array_equal(a.series[name], b.series[name]), name


def test_advance_names_every_row_at_fault():
    g = Grid(256)
    stepper = Stepper(g, Params(), 1e-4, "advective")
    phi_hat = g.spectral(np.stack([_noise_band_limited(g, seed) for seed in range(4)]))
    v_hat = g.spectral(np.outer([0.2, 100.0, 0.2, 0.2], np.sin(np.pi * g.x)))
    v_hat[2, 5] = np.nan
    with pytest.raises(SolverError) as info:
        stepper.advance(phi_hat, v_hat)
    rows = info.value.rows
    assert sorted(rows) == [1, 2] and str(info.value) == rows[1]
    assert rows[1].startswith("CFL violation") and rows[2].startswith("non-finite velocity")
    for r in rows:  # each row's message is the one it raises alone
        with pytest.raises(SolverError) as alone:
            stepper.advance(phi_hat[r], v_hat[r])
        assert alone.value.rows == {0: rows[r]} and str(alone.value) == rows[r]
    back = pickle.loads(pickle.dumps(info.value))  # a worker process hands it back pickled
    assert type(back) is SolverError and str(back) == rows[1] and back.rows == rows


def test_batched_faults_name_their_times_and_leave_the_other_rows_alone(monkeypatch):
    # row 1 breaks the CFL limit at the first step; row 2's phase field
    # overflows at the sixth, with K = 0 so that its velocity stays finite
    base = SolverConfig(coupling="advective", init_v="bump", n=256, dt=1e-4, t_final=0.002,
                        record_every=5, seed=5, K=0.0, snapshot_times=(0.0, 0.001))
    configs = [replace(base, seed=base.seed + i) for i in range(4)]
    alone = [run(configs[0]), run(configs[3])]
    build = initial.build_initial_fields

    def planted(cfg, grid, params):
        phi, v = build(cfg, grid, params)
        if cfg.seed == base.seed + 1:
            v = Field(grid, 100.0 * v.values)
        if cfg.seed == base.seed + 2:
            phi = Field(grid, 30.0 * phi.values / np.abs(phi.values).max())
        return phi, v

    monkeypatch.setattr(initial, "build_initial_fields", planted)
    messages = []
    with np.errstate(over="ignore", invalid="ignore"):
        for cfg in configs[1:3]:
            with pytest.raises(SolverError) as serial:
                run(cfg)
            messages.append(str(serial.value))
        batched = run_batch(configs)
    assert re.fullmatch(r"CFL violation: dt = 0\.0001 exceeds dx / max\(\|v\|, 1\) = "
                        r"7\.8\d*e-05 at t = 0", messages[0]), messages[0]
    assert messages[1] == "non-finite phase field at t = 0.0006"
    assert [type(b) for b in batched[1:3]] == [SolverError, SolverError]
    assert [str(b) for b in batched[1:3]] == messages
    for a, b in zip(alone, (batched[0], batched[3])):
        for name in a.series.names:
            assert np.array_equal(a.series[name], b.series[name]), name
        assert len(a.snapshots) == len(b.snapshots) == 2
        for x, y in zip(a.snapshots + [a.final_state], b.snapshots + [b.final_state]):
            assert np.array_equal(x.phi.values, y.phi.values)
            assert np.array_equal(x.v.values, y.v.values)


def test_batch_faults_end_one_run_or_every_run_still_stepping(monkeypatch):
    base = SolverConfig(n=64, dt=1e-3, t_final=0.01, record_every=5, seed=5)
    configs = [replace(base, seed=base.seed + i) for i in range(3)]
    broken = OSError("unreadable")

    def fail(phi, v):
        raise broken

    _planted(monkeypatch, base.seed + 1, fail)
    batched = run_batch(configs)
    assert batched[1] is broken
    assert all(isinstance(b, solver.RunResult) for b in (batched[0], batched[2]))

    boom = KeyError("boom")

    def no_table(params):
        raise boom

    monkeypatch.setattr(solver, "coarseness_table", no_table)
    assert run_batch(configs) == [boom, broken, boom]
    with pytest.raises(KeyError, match="boom"):
        run(configs[0])
