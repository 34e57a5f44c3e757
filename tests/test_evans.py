import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from bchsim import evans as evans_module
from bchsim.evans import (
    EigTable,
    build_eig_table,
    default_amplitudes,
    evans,
    leading_eigenvalue,
    monodromy,
    rescale_table,
)
from bchsim.waves import Params, periodic_wave

LAMBDA_TOP = 250.0


def _coefficient_matrix(wave, lam, params):
    def amat(x):
        phi, phi_x, phi_xx = wave.with_derivatives(np.array([x]))
        phi, phi_x, phi_xx = float(phi[0]), float(phi_x[0]), float(phi_xx[0])
        b = 3.0 * params.alpha * phi * phi - params.beta
        bp = 6.0 * params.alpha * phi * phi_x
        bpp = 6.0 * params.alpha * (phi_x * phi_x + phi * phi_xx)
        k = params.kappa
        return np.array([
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [(bpp - lam) / k, 2.0 * bp / k, b / k, 0.0],
        ])

    return amat


def _monodromy_by_solve_ivp(lam, a, params):
    """Independent oracle: integrate the four identity columns with RK45."""
    wave = periodic_wave(a, params)
    amat = _coefficient_matrix(wave, lam, params)

    def rhs(x, y):
        return (amat(x) @ y.reshape(4, 4)).ravel()

    sol = solve_ivp(rhs, (0.0, wave.period), np.eye(4).ravel(),
                    rtol=1e-11, atol=1e-13, method="DOP853")
    assert sol.success
    return sol.y[:, -1].reshape(4, 4)


def test_monodromy_matches_independent_integrator(params):
    lam, a = 30.0, 0.5
    mine = monodromy(lam, a, params).matrix
    other = _monodromy_by_solve_ivp(lam, a, params)
    scale = np.max(np.abs(other))
    assert np.max(np.abs(mine - other)) < 1e-8 * scale


@pytest.mark.parametrize("a,lam", [(0.1, 0.0), (0.5, 100.0), (0.9, 10.0)])
def test_liouville_unit_determinant(a, lam, params):
    mono = monodromy(lam, a, params)
    assert abs(mono.det - 1.0) < 1e-9


def test_monodromy_rejects_coarse_grids(params):
    with pytest.raises(ValueError):
        monodromy(0.0, 0.5, params, rk_steps=100)


def test_rk4_convergence_order(params):
    lam, a = 50.0, 0.6
    m1 = monodromy(lam, a, params, rk_steps=512).matrix
    m2 = monodromy(lam, a, params, rk_steps=1024).matrix
    m3 = monodromy(lam, a, params, rk_steps=2048).matrix
    e12 = np.max(np.abs(m1 - m2))
    e23 = np.max(np.abs(m2 - m3))
    assert 8.0 < e12 / e23 < 32.0  # fourth order gives 16


def test_multipliers_pair_into_reciprocals(params):
    mono = monodromy(25.0, 0.4, params)
    mults = np.linalg.eigvals(mono.matrix)
    assert np.prod(mults) == pytest.approx(1.0, rel=1e-8)
    # the symplectic-like structure pairs each multiplier with its inverse
    for z in mults:
        assert np.min(np.abs(mults - 1.0 / z)) < 1e-6 * max(1.0, abs(z))


def test_evans_periodic_in_bloch_phase(params):
    a = 0.5
    mono = monodromy(10.0, a, params)
    p = mono.period
    d0 = evans(10.0, 0.7, a, params, mono=mono)
    d1 = evans(10.0, 0.7 + 2.0 * math.pi / p, a, params, mono=mono)
    assert d1 == pytest.approx(d0, rel=1e-9)


def test_evans_conjugate_symmetry(params):
    a = 0.5
    mono = monodromy(10.0, a, params)
    d_plus = evans(10.0, 0.3, a, params, mono=mono)
    d_minus = evans(10.0, -0.3, a, params, mono=mono)
    assert d_minus == pytest.approx(np.conj(d_plus), rel=1e-9)


def test_translation_mode_at_origin(params):
    # phi_x is an exact kernel element, so D(0, 0) = 0 up to integration error
    a = 0.5
    mono = monodromy(0.0, a, params)
    d = evans(0.0, 0.0, a, params, mono=mono)
    scale = (1.0 + np.linalg.norm(mono.matrix)) ** 4
    assert abs(d) < 1e-8 * scale


def test_leading_eigenvalue_near_spinodal_limit(params):
    # as a -> 0 the waves degenerate to the flat state whose fastest rate
    # is beta^2 / (4 kappa)
    lead = leading_eigenvalue(0.05, params)
    assert lead == pytest.approx(LAMBDA_TOP, rel=0.01)
    assert lead < LAMBDA_TOP


def test_eig_table_monotone_trend(eig_table):
    lam = eig_table.lambda_max
    assert lam[0] == pytest.approx(LAMBDA_TOP, rel=0.02)
    assert np.all(np.diff(lam) < 0)
    assert np.all(lam > 0)
    assert np.all(lam <= LAMBDA_TOP)


def test_eig_table_interpolates_by_period(eig_table):
    mid = len(eig_table.periods) // 2
    p = float(eig_table.periods[mid])
    assert float(eig_table.lambda_of_period(p)) == pytest.approx(
        float(eig_table.lambda_max[mid]), rel=1e-12)


def test_eig_table_csv_round_trip(tmp_path, params, eig_table):
    path = tmp_path / "table.csv"
    eig_table.to_csv(path)
    first = path.read_bytes()
    back = EigTable.from_csv(path, params)
    assert np.array_equal(back.amplitudes, eig_table.amplitudes)
    assert np.array_equal(back.lambda_max, eig_table.lambda_max)
    back.to_csv(path)
    assert path.read_bytes() == first
    assert first.splitlines()[0] == b"amplitude,period,lambda_max,kappa"


def test_eig_table_csv_rejects_kappa_mismatch(tmp_path, params, eig_table):
    path = tmp_path / "table.csv"
    eig_table.to_csv(path)
    with pytest.raises(ValueError):
        EigTable.from_csv(path, replace(params, kappa=1e-4))


def test_eig_table_csv_rejects_a_mixed_kappa_column(tmp_path, params, eig_table):
    # the first row matches params; a later one does not
    path = tmp_path / "table.csv"
    eig_table.to_csv(path)
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",0.0002"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="table kappa 0.0002 does not match params kappa 0.001"):
        EigTable.from_csv(path, params)


@pytest.mark.parametrize("value", [0.0, -1e-3])
def test_eig_table_csv_rejects_non_positive_lambda(tmp_path, params, eig_table, value):
    # the closed-form rate curve divides by lambda at every table node
    lam = eig_table.lambda_max.copy()
    lam[-1] = value
    path = tmp_path / "table.csv"
    replace(eig_table, lambda_max=lam).to_csv(path)
    with pytest.raises(ValueError, match="lambda_max must be positive"):
        EigTable.from_csv(path, params)


def test_rescaling_matches_direct_computation(params):
    # lambda scales like 1/kappa and the period like sqrt(kappa) along
    # the exact symmetry of the linearized problem
    amps = np.array([0.2, 0.5, 0.8])
    coarse = build_eig_table(params, amplitudes=amps)
    kappa_new = 1e-4
    scaled = rescale_table(coarse, kappa_new)
    p_new = Params(kappa=kappa_new)
    direct = build_eig_table(p_new, amplitudes=amps)
    assert np.allclose(scaled.lambda_max, direct.lambda_max, rtol=1e-5)
    assert np.allclose(scaled.periods, direct.periods, rtol=1e-12)


def _direct_step_propagators(wave, lam, params, rk_steps, x_end):
    """The per-lambda RK4 transfer matrices the quartic replaced, kept as a reference."""
    h = x_end / rk_steps
    x = 0.5 * h * np.arange(2 * rk_steps + 1)
    phi, phi_x, phi_xx = wave.with_derivatives(x)
    b = 3.0 * params.alpha * phi**2 - params.beta
    bp = 6.0 * params.alpha * phi * phi_x
    bpp = 6.0 * params.alpha * (phi_x**2 + phi * phi_xx)
    inv_kappa = 1.0 / params.kappa
    amat = np.zeros((x.size, 4, 4))
    amat[:, 0, 1] = 1.0
    amat[:, 1, 2] = 1.0
    amat[:, 2, 3] = 1.0
    amat[:, 3, 0] = (bpp - lam) * inv_kappa
    amat[:, 3, 1] = 2.0 * bp * inv_kappa
    amat[:, 3, 2] = b * inv_kappa

    a1, a2, a4 = amat[0:-1:2], amat[1::2], amat[2::2]
    eye = np.broadcast_to(np.eye(4), a1.shape)
    k1 = a1
    k2 = a2 @ (eye + 0.5 * h * k1)
    k3 = a2 @ (eye + 0.5 * h * k2)
    k4 = a4 @ (eye + h * k3)
    return eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _direct_map(lam, a, params, rk_steps, fraction):
    """Transfer matrix over fraction of a period, one direct RK4 pass per lambda."""
    wave = periodic_wave(a, params)
    steps = int(rk_steps * fraction)
    props = _direct_step_propagators(wave, lam, params, steps, fraction * wave.period)
    return evans_module._ordered_product(props)


def _direct_leading_eigenvalue(a, params, hint, rk_steps=2048, rtol=1e-6):
    """leading_eigenvalue's bracket and bisection over the direct half map."""
    def inside(lam):
        ws = evans_module._reciprocal_pair(_direct_map(lam, a, params, rk_steps, 0.5))[0]
        return ws is not None and any(abs(w) <= 2.0 + evans_module._UNIT_CIRCLE_TOL for w in ws)

    hi = hint * 1.05
    while inside(hi):
        hi *= 1.3
    lo = min(hint, hi / 1.05)
    while not inside(lo):
        lo *= 0.5
    while hi - lo > rtol * hi:
        mid = 0.5 * (lo + hi)
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("a", [0.05, 0.5, 0.9, 0.99, 1.0 - 1e-6])
def test_transfer_polynomial_matches_direct_rk4(a, params):
    wave = periodic_wave(a, params)
    half_poly = evans_module._step_polynomial(wave, params, 1024, 0.5 * wave.period)
    for lam in [LAMBDA_TOP, 100.0, 10.0, 1.0, 0.1, 1e-2, 1e-3, 1e-4, 1e-5]:
        half_ref = _direct_map(lam, a, params, 2048, 0.5)
        half = evans_module._transfer(half_poly, lam)
        assert np.max(np.abs(half - half_ref)) <= 1e-11 * np.max(np.abs(half_ref)), (a, lam)
        # M's entries cancel: near the binodal its largest one sits 1e10
        # below max|H|^2, the size of the product's terms and of its rounding
        full_ref = _direct_map(lam, a, params, 2048, 1.0)
        full = monodromy(lam, a, params).matrix.real
        scale = max(np.max(np.abs(full_ref)), np.max(np.abs(half_ref)) ** 2)
        assert np.max(np.abs(full - full_ref)) <= 1e-11 * scale, (a, lam)


@pytest.mark.parametrize("a", [0.2, 0.6, 0.9, 0.98])
def test_leading_eigenvalue_matches_direct_bisection(a, params):
    rtol = evans_module._RTOL
    lead = leading_eigenvalue(a, params)
    assert lead >= 0.01
    assert lead == pytest.approx(_direct_leading_eigenvalue(a, params, LAMBDA_TOP, rtol=rtol),
                                 rel=2.0 * rtol)


@pytest.mark.parametrize("rk_steps", [100, 510, 2047, -4])
def test_leading_eigenvalue_rejects_steps_it_cannot_honour(rk_steps, params):
    with pytest.raises(ValueError, match="rk_steps"):
        leading_eigenvalue(0.5, params, rk_steps=rk_steps)


def _steps_first_step_polynomial(wave, params, rk_steps, x_end):
    """The (steps, 4, 4) assembly of all five quartic coefficients that the
    steps-last linear build replaced, kept as a reference."""
    h = x_end / rk_steps
    x = 0.5 * h * np.arange(2 * rk_steps + 1)
    b, bp, bpp = evans_module._coefficients(wave, x, params)
    inv_kappa = 1.0 / params.kappa
    rows = np.stack([bpp * inv_kappa, 2.0 * bp * inv_kappa, b * inv_kappa], axis=-1)
    eye = np.eye(4)

    def times_a(r, m):
        out = np.zeros((m.shape[0] + 1,) + m.shape[1:])
        out[:-1, :, :3] = m[:, :, 1:]
        out[:-1, :, 3] = (r[:, 0, None] * m[:, :, 0] + r[:, 1, None] * m[:, :, 1]
                          + r[:, 2, None] * m[:, :, 2])
        out[1:, :, 3] -= inv_kappa * m[:, :, 0]
        return out

    def eye_plus(m, c):
        m *= c
        m[0] += eye
        return m

    r1, r2, r4 = rows[0:-1:2], rows[1::2], rows[2::2]
    poly = np.zeros((5, rk_steps, 4, 4))
    k = times_a(r1, np.broadcast_to(eye, (1, rk_steps, 4, 4)))
    poly[:2] = k
    k = times_a(r2, eye_plus(k, 0.5 * h))
    poly[:3] += 2.0 * k
    k = times_a(r2, eye_plus(k, 0.5 * h))
    poly[:4] += 2.0 * k
    k = times_a(r4, eye_plus(k, h))
    poly += k
    return eye_plus(poly, h / 6.0)


@pytest.mark.parametrize("a", [0.05, 0.5, 0.99, 1.0 - 1e-10])
def test_step_polynomial_is_bitwise_the_linear_part_of_the_quartic(a, params):
    # the quartic's coefficients of lambda^2 to lambda^4 are exact zeros, so
    # the steps-last linear build must equal its first two coefficients
    wave = periodic_wave(a, params)
    mine = evans_module._step_polynomial(wave, params, 1024, 0.5 * wave.period)
    quartic = _steps_first_step_polynomial(wave, params, 1024, 0.5 * wave.period)
    assert not np.any(quartic[2:])
    assert np.array_equal(mine, quartic[:2])


def test_eig_table_makes_few_membership_tests(params, monkeypatch):
    # bisection made 24 membership tests per row; the secant on the
    # collision discriminant needs well under half of that
    calls = []
    in_spectrum = evans_module._in_spectrum

    def counted(half_poly, lam):
        calls.append(lam)
        return in_spectrum(half_poly, lam)

    monkeypatch.setattr(evans_module, "_in_spectrum", counted)
    table = build_eig_table(params)
    assert len(calls) <= 10 * table.amplitudes.size


def _planted_search(monkeypatch, params, edge, disc_of):
    """leading_eigenvalue against a planted spectrum lam <= edge reporting disc_of(lam)."""
    probes = []

    def planted(half_poly, lam):
        probes.append((lam, lam <= edge))
        return lam <= edge, disc_of(lam)

    monkeypatch.setattr(evans_module, "_in_spectrum", planted)
    return leading_eigenvalue(0.5, params), probes


@pytest.mark.parametrize("edge", [0.37, 41.0, 180.0, 249.0])
@pytest.mark.parametrize("kind", ["wrong_sign", "noise", "misplaced_root"])
def test_search_safeguard_bounds_a_misleading_discriminant(kind, edge, params, monkeypatch):
    rng = np.random.default_rng(7)
    disc_of = {
        "wrong_sign": lambda lam: lam / edge - 1.0,
        "noise": lambda lam: float(rng.standard_normal()),
        "misplaced_root": lambda lam: 1.0 - lam / (0.8 * edge),
    }[kind]
    # disc = 0 never changes sign across the bracket, so every probe is a midpoint
    _, bisection = _planted_search(monkeypatch, params, edge, lambda lam: 0.0)
    value, probes = _planted_search(monkeypatch, params, edge, disc_of)
    lo = max(lam for lam, inside in probes if inside)
    hi = min(lam for lam, inside in probes if not inside)
    assert lo <= edge < hi
    assert hi - lo <= 1e-6 * hi
    assert value == 0.5 * (lo + hi)
    assert len(probes) <= len(bisection) + 2


@pytest.mark.parametrize("da", [1.0, 1.5, -0.1, 0.0])
def test_default_amplitudes_rejects_da_outside_unit_interval(da, params):
    with pytest.raises(ValueError, match="da"):
        default_amplitudes(params, da=da)
