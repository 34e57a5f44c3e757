import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from bchsim import evans as evans_module
from bchsim import waves
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


# criterion 04's corners: the grid's amplitudes 0.05 and 0.9 at its lambda = 0
# and 1.2 lambda_top, and one point inside it
@pytest.mark.parametrize("a,lam", [(0.5, 30.0), (0.05, 0.0), (0.9, 0.0), (0.9, 1.2 * LAMBDA_TOP),
                                   (0.05, 1.2 * LAMBDA_TOP)])
def test_monodromy_matches_independent_integrator(a, lam, params):
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
    d0 = evans(mono, 0.7)
    d1 = evans(mono, 0.7 + 2.0 * math.pi / p)
    assert d1 == pytest.approx(d0, rel=1e-9)


def test_evans_conjugate_symmetry(params):
    a = 0.5
    mono = monodromy(10.0, a, params)
    d_plus = evans(mono, 0.3)
    d_minus = evans(mono, -0.3)
    assert d_minus == pytest.approx(np.conj(d_plus), rel=1e-9)


def test_translation_mode_at_origin(params):
    # phi_x is an exact kernel element, so D(0, 0) = 0 up to integration error
    a = 0.5
    mono = monodromy(0.0, a, params)
    d = evans(mono, 0.0)
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
    """RK4 step matrices over [0, x_end] at lam, by full 4x4 products, kept as a reference."""
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


def _reciprocal_pair(matrix):
    """Real roots w = z + 1/z of the multipliers' pairs {z, 1/z}, or None when both are complex.

    The system is Hamiltonian, so the characteristic polynomial of a transfer
    matrix is self-reciprocal and w reduces it to w^2 - c1 w + (c2 - 2), with
    c1 = tr M and c2 the sum of principal 2x2 minors.  A multiplier sits on
    the unit circle exactly when a real root has |w| <= 2.  The invariants
    keep the near-circle multipliers accurate when the hyperbolic interface
    multiplier dwarfs them, where a direct eigensolve loses them.
    """
    c1 = float(np.trace(matrix))
    c2 = sum(float(matrix[i, i] * matrix[j, j] - matrix[i, j] * matrix[j, i])
             for i in range(4) for j in range(i + 1, 4))
    disc = c1 * c1 - 4.0 * (c2 - 2.0)
    if disc < 0.0:
        return None
    w_big = 0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
    if w_big == 0.0:
        w_small = math.sqrt(max(2.0 - c2, 0.0))
        return -w_small, w_small
    return w_big, (c2 - 2.0) / w_big


def _direct_leading_eigenvalue(a, params, hint, rk_steps=2048, rtol=1e-6):
    """Bracket and bisection on unit-circle membership of the direct half map's multipliers.

    b has period p/2, so the half map's multipliers are square roots of the
    full map's and membership transfers to it.
    """
    def inside(lam):
        ws = _reciprocal_pair(_direct_map(lam, a, params, rk_steps, 0.5))
        return ws is not None and any(abs(w) <= 2.0 + 1e-5 for w in ws)

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
def test_monodromy_matches_direct_rk4(a, params):
    for lam in [LAMBDA_TOP, 100.0, 10.0, 1.0, 0.1, 1e-2, 1e-3, 1e-4, 1e-5]:
        # M's entries cancel: near the binodal its largest one sits 1e10
        # below max|H|^2, H the half-period map, the size of the product's
        # terms and of its rounding
        half_ref = _direct_map(lam, a, params, 2048, 0.5)
        full_ref = _direct_map(lam, a, params, 2048, 1.0)
        full = monodromy(lam, a, params).matrix
        scale = max(np.max(np.abs(full_ref)), np.max(np.abs(half_ref)) ** 2)
        assert np.max(np.abs(full - full_ref)) <= 1e-11 * scale, (a, lam)


@pytest.mark.parametrize("a", [0.2, 0.6, 0.9, 0.98])
def test_leading_eigenvalue_matches_direct_bisection(a, params):
    lead = leading_eigenvalue(a, params)
    assert lead >= 0.01
    assert lead == pytest.approx(_direct_leading_eigenvalue(a, params, LAMBDA_TOP), rel=2e-6)


def _dense_leading_eigenvalue(a, params):
    """Hill's leading eigenvalue from dense eigensolves at twice the modes leading_eigenvalue takes.

    On q_j = 4 pi j/p + mu, |j| <= 2 ceil(3 p/l), the top eigenvalue of the
    symmetric -D (kappa Q + B) D, D = diag|q_j|, is maximised over mu p/pi in
    (0, 2] by a grid and golden section.  B comes from a full complex FFT.
    eigh's top vector is read through the Rayleigh quotient of the pencil
    kappa Q + B against Q^-1, because the top eigenvalue itself carries an
    absolute error of about eps kappa max q^4, some 5e-7 on the last rows.
    """
    wave = periodic_wave(a, params)
    p = wave.period
    n = 2 * math.ceil(3.0 * p / math.sqrt(2.0 * params.kappa / params.beta))
    m = 16 * n
    b = 3.0 * params.alpha * wave.with_derivatives(0.5 * p * np.arange(m) / m)[0] ** 2 - params.beta
    coef = np.fft.fft(b).real / m
    j = np.arange(-n, n + 1)
    toeplitz = coef[(j[:, None] - j[None, :]) % m]

    def top(t):
        q = (4.0 * j + t) * math.pi / p
        h = toeplitz + np.diag(params.kappa * q * q)
        d = np.abs(q)
        u = d * np.linalg.eigh(-(d[:, None] * h * d[None, :]))[1][:, -1]
        return -(u @ h @ u) / np.sum((u / q) ** 2)

    grid = np.linspace(0.1, 2.0, 20)
    k = int(np.argmax([top(t) for t in grid]))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    r = 0.5 * (math.sqrt(5.0) - 1.0)
    x1, x2 = hi - r * (hi - lo), lo + r * (hi - lo)
    f1, f2 = top(x1), top(x2)
    while hi - lo > 1e-6:
        if f1 > f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - r * (hi - lo)
            f1 = top(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + r * (hi - lo)
            f2 = top(x2)
    return max(f1, f2)


@pytest.mark.parametrize("row", range(99, 108))
def test_last_rows_match_a_dense_eigensolve_at_twice_the_modes(row, eig_table, params):
    a = float(eig_table.amplitudes[row])
    assert eig_table.lambda_max[row] == pytest.approx(_dense_leading_eigenvalue(a, params),
                                                      rel=1e-7)


def test_rescaled_table_matches_the_direct_table_on_every_row(eig_table):
    kappa_new = 5.087e-4
    direct = build_eig_table(Params(kappa=kappa_new))
    scaled = rescale_table(eig_table, kappa_new)
    assert np.array_equal(direct.amplitudes, scaled.amplitudes)
    assert np.allclose(scaled.lambda_max, direct.lambda_max, rtol=1e-7, atol=0.0)


def test_eig_table_tail_trend_falls_to_the_last_row(eig_table, params):
    # lambda decays like exp(-p/l)/p, l = sqrt(2 kappa/beta), with a slowly
    # falling prefactor
    p = eig_table.periods
    trend = eig_table.lambda_max * p * np.exp(p / math.sqrt(2.0 * params.kappa / params.beta))
    tail = trend[p >= 0.5]
    assert tail.size >= 8
    assert np.all(np.diff(tail) < 0.0)


def test_eig_table_is_one_elementwise_leading_eigenvalue_call(eig_table, params):
    assert np.array_equal(eig_table.lambda_max, leading_eigenvalue(eig_table.amplitudes, params))


def test_leading_eigenvalue_elements_do_not_depend_on_their_order(eig_table, params):
    # each element is seeded from the ones before it; measured: scalar calls,
    # the reversed and the shuffled amplitudes agree with the table to 2e-8
    # (rows 104-107) and 3e-11 (rows 0-103)
    amps, table = eig_table.amplitudes, eig_table.lambda_max
    assert isinstance(leading_eigenvalue(float(amps[0]), params), float)
    scalar = [leading_eigenvalue(float(a), params) for a in amps]
    assert np.allclose(scalar, table, rtol=5e-8, atol=0.0)
    assert np.allclose(leading_eigenvalue(amps[::-1], params)[::-1], table, rtol=5e-8, atol=0.0)
    order = np.random.default_rng(0).permutation(amps.size)
    shuffled = np.empty_like(table)
    shuffled[order] = leading_eigenvalue(amps[order], params)
    assert np.allclose(shuffled, table, rtol=5e-8, atol=0.0)
    grid = leading_eigenvalue(amps[:6].reshape(2, 3), params)
    assert grid.shape == (2, 3) and np.allclose(grid.ravel(), table[:6], rtol=5e-8, atol=0.0)


def test_default_table_makes_few_solves_and_ladders(params, monkeypatch):
    # one sampling pass on the family's AGM ladder, and each row's search
    # seeded from the row before; row by row it took 1,163 solves and 110 ladders
    solves, ladders = [], []
    solve, ladder = np.linalg.solve, waves._ladder
    monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(1) or solve(*args))
    monkeypatch.setattr(waves, "_ladder", lambda *args: ladders.append(1) or ladder(*args))
    assert build_eig_table(params).amplitudes.size == 108
    assert len(solves) <= 600
    assert len(ladders) <= 5


def test_leading_eigenvalue_raises_below_its_rounding_floor(params):
    # at p = 2.18 the leading eigenvalue is near 1e-18, far below the
    # rounding of the pencil's Rayleigh quotient, so no iteration converges
    with pytest.raises(RuntimeError, match="did not converge"):
        leading_eigenvalue(1.0 - 1e-10, params)


def test_leading_eigenvalue_raises_on_any_element(params):
    with pytest.raises(RuntimeError, match="did not converge"):
        leading_eigenvalue(np.array([0.5, 1.0 - 1e-10, 0.6]), params)


@pytest.mark.parametrize("da", [1.0, 1.5, -0.1, 0.0])
def test_default_amplitudes_rejects_da_outside_unit_interval(da, params):
    with pytest.raises(ValueError, match="da"):
        default_amplitudes(params, da=da)
