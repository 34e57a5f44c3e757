"""Initial data: noise draws, energy-surface pre-evolution, velocity shapes."""

import importlib
import math
import pickle
import pkgutil

import numpy as np
import pytest

import bchsim
import bchsim.initial as initial
from bchsim.config import SolverConfig
from bchsim.energy import free_energy
from bchsim.grid import Field, Grid
from bchsim.initial import (
    BUMP_C,
    DtUnderflowError,
    bump_profile,
    bump_velocity,
    build_initial_fields,
    pre_evolve_to_energy,
    random_fourier_velocity,
    random_phase_init,
)
from bchsim.solver import Stepper
from bchsim.waves import Params

X_PEAK = math.sqrt(2.0 - math.sqrt(3.0))


def test_bump_constant_matches_reference():
    assert BUMP_C == pytest.approx(7.572356792714837, rel=1e-12)


def test_bump_peak_location_and_height():
    assert bump_profile(X_PEAK) == pytest.approx(1.0, rel=1e-12)
    h = 1e-7
    slope = (bump_profile(X_PEAK + h) - bump_profile(X_PEAK - h)) / (2 * h)
    assert abs(slope) < 1e-5


def test_bump_profile_odd_and_compact():
    xs = np.linspace(-0.999, 0.999, 401)
    vals = bump_profile(xs)
    assert np.allclose(vals[::-1], -vals, atol=1e-15)
    assert bump_profile(np.array([-1.0, 1.0, 1.7, -2.3])) == pytest.approx([0.0] * 4)
    dense = np.abs(bump_profile(np.linspace(-1, 1, 200_001)))
    assert dense.max() == pytest.approx(1.0, abs=5e-7)
    assert dense.max() <= 1.0 + 1e-12


def test_bump_profile_half_length_scaling():
    xs = np.linspace(-0.95, 0.95, 101)
    assert bump_profile(2.0 * xs, half_length=2.0) == pytest.approx(bump_profile(xs))
    assert bump_profile(2.0 * X_PEAK, half_length=2.0) == pytest.approx(1.0, rel=1e-12)


def test_bump_velocity_on_grid():
    g = Grid(2048)
    v = bump_velocity(g)
    assert v.values[0] == 0.0
    assert v.values[g.n // 2] == 0.0
    assert v.values.max() == pytest.approx(1.0, abs=1e-4)
    assert v.values.max() <= 1.0 + 1e-12


def _rng(seed):
    return np.random.default_rng(seed)


def test_fourier_velocity_band_limited_and_deterministic():
    g = Grid(256)
    cutoff = 32
    v = random_fourier_velocity(g, _rng(11), cutoff)
    hat = np.fft.rfft(v.values)
    assert abs(hat[0]) < 1e-12 * g.n
    outside = np.arange(hat.size) > cutoff
    assert np.abs(hat[outside]).max() < 1e-10 * np.abs(hat).max()
    again = random_fourier_velocity(g, _rng(11), cutoff)
    assert np.array_equal(v.values, again.values)
    other = random_fourier_velocity(g, _rng(12), cutoff)
    assert not np.array_equal(v.values, other.values)


def test_fourier_velocity_amplitude_scale():
    # Coefficients are O(1) in the 1/n-normalized inverse transform, so the
    # mean square is 4*cutoff/n^2 in expectation.
    g = Grid(512)
    cutoff = 32
    ms = [
        float(np.mean(random_fourier_velocity(g, _rng(s), cutoff).values ** 2))
        for s in range(20)
    ]
    assert np.mean(ms) == pytest.approx(4.0 * cutoff / g.n**2, rel=0.15)


def test_fourier_velocity_cutoff_guard():
    with pytest.raises(ValueError, match="fourier_cutoff"):
        SolverConfig(coupling="advective", n=64, init_v="fourier", fourier_cutoff=16)


def test_random_phase_init_band_and_determinism():
    g = Grid(256)
    phi = random_phase_init(g, _rng(4))
    hat = np.fft.rfft(phi.values)
    assert np.abs(hat[g.band:]).max() < 1e-12 * np.abs(hat).max()
    # Projection keeps about half the modes, so the sample std sits near
    # sigma/sqrt(2).
    sigma = initial._SIGMA
    assert 0.3 * sigma < phi.values.std() < 1.1 * sigma
    assert np.array_equal(phi.values, random_phase_init(g, _rng(4)).values)
    assert not np.array_equal(phi.values, random_phase_init(g, _rng(5)).values)


def test_pre_evolve_reaches_target_band():
    g = Grid(256)
    params = Params()
    phi0 = random_phase_init(g, _rng(7))
    target = initial._ENERGY_TARGET_FRAC * params.e_max
    assert free_energy(phi0, params) > target + initial._ENERGY_TOL
    phi = pre_evolve_to_energy(phi0, params)
    assert free_energy(phi, params) == pytest.approx(target, abs=initial._ENERGY_TOL)


def test_pre_evolve_in_band_input_passes_through():
    g = Grid(256)
    params = Params()
    phi = pre_evolve_to_energy(random_phase_init(g, _rng(7)), params)
    assert pre_evolve_to_energy(phi, params) is phi


def test_pre_evolve_rejects_energy_below_band():
    g = Grid(64)
    params = Params()
    flat = Field(g, np.full(g.n, params.binodal))
    with pytest.raises(ValueError, match="below the target"):
        pre_evolve_to_energy(flat, params)


def test_pre_evolve_step_budget_exhaustion(monkeypatch):
    g = Grid(256)
    params = Params()
    phi0 = random_phase_init(g, _rng(7))
    e0 = free_energy(phi0, params)
    monkeypatch.setattr(initial, "_MAX_STEPS", 1)
    with pytest.raises(DtUnderflowError) as info:
        pre_evolve_to_energy(phi0, params)
    assert isinstance(info.value, RuntimeError)
    target = initial._ENERGY_TARGET_FRAC * params.e_max
    assert target < info.value.best_energy <= e0
    with pytest.raises(DtUnderflowError) as oracle:
        pre_evolve_oracle(phi0, params)
    assert np.array_equal(info.value.best_energy, oracle.value.best_energy)


def pre_evolve_oracle(phi: Field, params: Params) -> Field:
    """pre_evolve_to_energy as a Field and free_energy loop: each candidate is
    stepped from its spectrum alone, made a Field and transformed again for
    its energy."""
    grid = phi.grid
    target = initial._ENERGY_TARGET_FRAC * params.e_max
    tol = initial._ENERGY_TOL
    energy = free_energy(phi, params)
    if abs(energy - target) <= tol:
        return phi
    dt = initial._DT0
    stepper = Stepper(grid, params, dt, "uncoupled")
    phi_hat = grid.spectral(phi.values)
    best = energy
    for _ in range(initial._MAX_STEPS):
        cand_hat, _ = stepper.advance(phi_hat, None)
        cand = Field(grid, grid.physical(cand_hat))
        cand_energy = free_energy(cand, params)
        if abs(cand_energy - target) <= tol:
            return cand
        if cand_energy < target - tol:
            dt *= 0.5
            stepper = Stepper(grid, params, dt, "uncoupled")
            continue
        phi_hat, best = cand_hat, cand_energy
    raise DtUnderflowError("step budget spent", best_energy=best)


@pytest.mark.parametrize("n", [256, 2048])
def test_pre_evolve_matches_the_field_and_free_energy_loop(n):
    g, params = Grid(n), Params()
    for seed in range(10):
        phi0 = random_phase_init(g, _rng(seed))
        assert np.array_equal(pre_evolve_to_energy(phi0, params).values,
                              pre_evolve_oracle(phi0, params).values), seed


def test_every_exported_exception_survives_pickling():
    # a worker process hands its exception back pickled, so each exception
    # class in an __all__ must come back with its type, message and attributes
    extra = {DtUnderflowError: {"best_energy": 0.4}}
    seen = set()
    for info in pkgutil.iter_modules(bchsim.__path__):
        module = importlib.import_module(f"bchsim.{info.name}")
        for name in getattr(module, "__all__", ()):
            cls = getattr(module, name)
            if isinstance(cls, type) and issubclass(cls, BaseException):
                exc = cls("step underflow", **extra.get(cls, {}))
                back = pickle.loads(pickle.dumps(exc))
                assert type(back) is cls
                assert str(back) == str(exc) and vars(back) == vars(exc)
                seen.add(cls)
    assert DtUnderflowError in seen and len(seen) >= 3


def test_build_initial_fields_uncoupled():
    cfg = SolverConfig(coupling="uncoupled", n=256, seed=3)
    grid = cfg.make_grid()
    phi, v = build_initial_fields(cfg, grid, cfg.params)
    assert v is None
    target = 0.99 * cfg.params.e_max
    assert free_energy(phi, cfg.params) == pytest.approx(target, abs=1e-4)


def test_build_phi_identical_across_couplings():
    # phi is drawn before v, so matched seeds give matched phase fields.
    cfg_u = SolverConfig(coupling="uncoupled", n=256, seed=5)
    cfg_c = SolverConfig(coupling="advective", n=256, seed=5, init_v="fourier")
    grid = cfg_u.make_grid()
    phi_u, _ = build_initial_fields(cfg_u, grid, cfg_u.params)
    phi_c, v_c = build_initial_fields(cfg_c, grid, cfg_c.params)
    assert np.array_equal(phi_u.values, phi_c.values)
    assert v_c is not None and v_c.values.std() > 0


def _write_field_csv(path, grid, column, values):
    lines = [f"x,{column}"]
    lines += [f"{float(x)!r},{float(v)!r}" for x, v in zip(grid.x, values)]
    path.write_text("\n".join(lines) + "\n")


def test_build_initial_fields_from_files(tmp_path):
    g = Grid(64)
    phi_vals = 0.3 * np.cos(3 * np.pi * g.x)
    v_vals = 0.1 * np.sin(2 * np.pi * g.x)
    phi_path = tmp_path / "phi.csv"
    v_path = tmp_path / "vel.csv"
    _write_field_csv(phi_path, g, "phi", phi_vals)
    _write_field_csv(v_path, g, "v", v_vals)
    cfg = SolverConfig(
        coupling="advective",
        n=64,
        init_phi=f"file:{phi_path}",
        init_v=f"file:{v_path}",
    )
    phi, v = build_initial_fields(cfg, g, cfg.params)
    assert phi.values == pytest.approx(phi_vals, abs=1e-13)
    assert v.values == pytest.approx(v_vals, abs=1e-13)


def test_build_initial_fields_file_errors(tmp_path):
    g = Grid(64)
    bad_header = tmp_path / "noisy.csv"
    _write_field_csv(bad_header, g, "psi", np.zeros(g.n))
    cfg = SolverConfig(coupling="uncoupled", n=64, init_phi=f"file:{bad_header}")
    with pytest.raises(ValueError, match="no column"):
        build_initial_fields(cfg, g, cfg.params)
    short = tmp_path / "short.csv"
    short.write_text("x,phi\n0.0,0.0\n")
    cfg2 = SolverConfig(coupling="uncoupled", n=64, init_phi=f"file:{short}")
    with pytest.raises(ValueError, match="rows"):
        build_initial_fields(cfg2, g, cfg2.params)


def test_build_initial_fields_velocity_variants(tmp_path):
    g = Grid(256)
    phi_path = tmp_path / "phi.csv"
    _write_field_csv(phi_path, g, "phi", 0.2 * np.sin(np.pi * g.x))
    base = dict(n=256, init_phi=f"file:{phi_path}")
    _, v_none = build_initial_fields(
        SolverConfig(coupling="div1", init_v="none", **base), g, Params()
    )
    assert np.all(v_none.values == 0.0)
    _, v_bump = build_initial_fields(
        SolverConfig(coupling="div1", init_v="bump", **base), g, Params()
    )
    hat = np.fft.rfft(bump_velocity(g).values)
    hat[g.band:] = 0.0
    assert v_bump.values == pytest.approx(np.fft.irfft(hat, n=g.n), abs=1e-14)
