import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from annulus_nematics import harmonic, ldg, of_strong, pde
from annulus_nematics.numerics import (
    Bracket,
    GridFunction,
    NewtonDiverged,
    NoSignChange,
    carlson_rf_rj,
    check_core_radius,
    check_index,
    find_root,
    min_eigenvalue,
    solve_bvp,
)

# Frozen oracle value (independent high-precision route, see test repo notes):
#   root of tan(x)+x on [2,3] -> plain bisection to 1e-12
TAN_ROOT = 2.0287578381104342


class TestCarlson:
    # (x, y, z, R_F(x, y, z), R_J(x, y, z, 1)) in 40-digit arithmetic from
    # the double arguments, rounded to doubles
    REFERENCE = [
        (0.0, 2.0, 0.5, 1.52488683808189608223220897685242842824,
         2.287330257122844123348313465278642642361),
        (0.25, 1.5, 1e-08, 1.910844573677350796148314434691876249916,
         3.207350067888229429035200534205220148746),
        (0.5, 1000.0, 0.75, 0.1387707199230796274223778033530807376591,
         0.0596542331370332044759166033473099846995),
        (1e-3, 3.0, 0.999, 1.153763368040751860871561691018963540979,
         1.467068057143572679457342435852943009999),
        (1.0, 1.0, 1.0, 1.0, 1.0),
    ]

    def test_reference_values(self):
        x, y, z, rf_ref, rj_ref = map(np.array, zip(*self.REFERENCE))
        rf, rj = carlson_rf_rj(x, y, z)
        assert np.max(np.abs(rf / rf_ref - 1.0)) < 4e-16
        assert np.max(np.abs(rj / rj_ref - 1.0)) < 4e-16

    def test_scalar_matches_array_row(self):
        for x, y, z, _, _ in self.REFERENCE:
            scalar = carlson_rf_rj(np.float64(x), np.float64(y), np.float64(z))
            row = carlson_rf_rj(np.array([x]), np.array([y]), np.array([z]))
            assert scalar == (row[0][0], row[1][0])
        # and every row of 8,191 lanes, where numpy's vector kernels run;
        # the series' P has the sign of x + y + z - 3, so both signs occur
        rng = np.random.default_rng(3204)
        n = 8191
        x = rng.uniform(1.0, 5.0, n)
        y, z = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)
        y[::7] = 0.0
        total = x + y + z
        assert np.any(total < 3.0) and np.any(total > 3.0)
        rf, rj = carlson_rf_rj(x, y, z)
        for i in range(n):
            scalar = carlson_rf_rj(x[i], y[i], z[i])
            assert scalar == (rf[i], rj[i]), i

    def test_nan_outside_its_domain(self):
        # (1 - x)(1 - y)(1 - z) > 0 would need R_C on the atan branch
        with np.errstate(invalid="ignore"):
            rf, rj = carlson_rf_rj(np.array([0.5]), np.array([0.5]), np.array([0.5]))
        assert np.isfinite(rf[0]) and np.isnan(rj[0])


class TestFindRoot:
    def test_sqrt2(self):
        r = find_root(lambda x: x * x - 2.0, Bracket(1.0, 2.0), tol=1e-12)
        assert abs(r - math.sqrt(2.0)) < 1e-12

    def test_tan_plus_x(self):
        r = find_root(lambda x: math.tan(x) + x, Bracket(2.0, 3.0), tol=1e-12)
        assert abs(r - TAN_ROOT) < 1e-10

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            find_root(lambda x: x - 5.0, Bracket(0.0, 1.0))

    @given(root=st.floats(-5.0, 5.0), spread=st.floats(0.1, 10.0),
           scale=st.floats(0.01, 100.0))
    @settings(deadline=None, max_examples=60)
    def test_root_stays_in_bracket(self, root, spread, scale):
        lo, hi = root - spread, root + 0.37 * spread
        f = lambda x: scale * (x - root) ** 3 + scale * 0.01 * (x - root)
        r = find_root(f, Bracket(lo, hi), tol=1e-10)
        assert lo <= r <= hi
        assert abs(r - root) < 1e-9


class TestSolveBvp:
    def test_laplace_linear(self):
        sol = solve_bvp(lambda x, y: 0.0 * y, 0.0, 1.0, (0.0, 1.0), 33)
        assert np.max(np.abs(sol.values - sol.nodes)) < 1e-12

    def test_sinh_closed_form(self):
        sol = solve_bvp(lambda x, y: y, 0.0, 1.0, (0.0, 1.0), 201)
        exact = np.sinh(sol.nodes) / math.sinh(1.0)
        assert np.max(np.abs(sol.values - exact)) < 2e-6

    def test_radial_t0_profile(self):
        # s'' + s'/r - 4 s/r^2 = 0 through (b, 1/sqrt2), (1, 1/sqrt2) reads
        # y'' = 4y in x = log r: solution C1 r^2 + C2 / r^2 with
        # C1 = (1/sqrt2)/(b^2+1)
        b = 0.5
        v = 1.0 / math.sqrt(2.0)
        sol = solve_bvp(lambda x, y: 4.0 * y, v, v, (math.log(b), 0.0), 401)
        r = np.exp(sol.nodes)
        c1 = v / (b ** 2 + 1.0)
        c2 = v * b ** 2 / (b ** 2 + 1.0)
        exact = c1 * r ** 2 + c2 / r ** 2
        assert np.max(np.abs(sol.values - exact)) < 2e-7

    def test_second_order_convergence(self):
        rhs = lambda x, y: y
        errs = []
        for n in (101, 201):
            sol = solve_bvp(rhs, 0.0, 1.0, (0.0, 1.0), n)
            exact = np.sinh(sol.nodes) / math.sinh(1.0)
            errs.append(np.max(np.abs(sol.values - exact)))
        assert errs[0] / errs[1] >= 3.5

    def test_boundary_exact(self):
        sol = solve_bvp(lambda x, y: y * y, 0.3, -0.7, (0.0, 2.0), 64)
        assert sol.values[0] == 0.3 and sol.values[-1] == -0.7

    def test_diverging_problem_raises(self):
        # steep blow-up forces the damping to collapse
        rhs = lambda x, y: 1e8 * np.exp(8.0 * y)
        with pytest.raises(NewtonDiverged) as err:
            solve_bvp(rhs, 0.0, 5.0, (0.0, 1.0), 32, max_iter=12)
        assert isinstance(err.value.history, list)

    def test_non_finite_residual_raises(self):
        rhs = lambda x, y: np.full_like(y, np.nan)
        with pytest.raises(NewtonDiverged, match="non-finite"):
            solve_bvp(rhs, 0.0, 1.0, (0.0, 1.0), 32)

    def test_init_on_another_grid_rejected(self):
        init = np.zeros(17)
        with pytest.raises(ValueError, match="init must have n_nodes values"):
            solve_bvp(lambda x, y: y, 0.0, 1.0, (0.0, 1.0), 33, init=init)


class TestDomainChecks:
    @pytest.mark.parametrize("n, least", [(0, 0), (3, 0), (1, 1), (4.0, 1),
                                          (16, 16)])
    def test_index_accepted(self, n, least):
        assert check_index(n, "index", least) == n
        assert type(check_index(n, "index", least)) is int

    @pytest.mark.parametrize("n, least, message", [
        (-1, 0, "index must be a nonnegative integer"),
        (1.5, 0, "index must be a nonnegative integer"),
        (math.nan, 0, "index must be a nonnegative integer"),
        (0, 1, "index must be a positive integer"),
        (math.inf, 1, "index must be a positive integer"),
        (15, 16, "index must be an integer of at least 16"),
        (16.5, 16, "index must be an integer of at least 16"),
    ])
    def test_index_rejected(self, n, least, message):
        with pytest.raises(ValueError, match=message):
            check_index(n, "index", least)

    @pytest.mark.parametrize("call, message", [
        (lambda: solve_bvp(lambda x, y: y, 0.0, 1.0, (0.0, 1.0), 16.5),
         "n_nodes must be an integer of at least 16"),
        (lambda: ldg.min_eig_Ln(0, 0.5, ldg.LdGParams(40.0), n_nodes=16.5),
         "n_nodes must be an integer of at least 16"),
        (lambda: pde.PolarGrid.annulus(0.3, 20.5, 32),
         "nr must be an integer of at least 16"),
        (lambda: pde.PolarGrid.sector(0.3, 2, 32, 8),
         "nphi must be an integer of at least 16"),
        (lambda: pde.anisotropic_state_energy(0.3, 2, "U2", 0.5, 0.002, nr=1),
         "nr must be an integer of at least 16"),
        (lambda: pde.anisotropic_state_energy(0.3, 2, "U2", 0.5, 0.002, nr=20.5),
         "nr must be an integer of at least 16"),
        (lambda: of_strong.spiral_solve(0.95, 0.2, n_profile=5.5),
         "n_profile must be an integer of at least 3"),
        (lambda: pde.stability_probe(
            pde.defect_free_field(pde.PolarGrid.annulus(0.5, 16, 16)),
            0.5, 0.5, 1, n_nodes=2),
         "n_nodes must be an integer of at least 16"),
        (lambda: harmonic.crossover_N(0.5, 10.5),
         "N_max must be an integer of at least 2"),
    ], ids=["solve_bvp", "min_eig_Ln", "annulus_nr", "sector_nphi",
            "sector_energy_nr_one", "sector_energy_half_nr", "spiral",
            "stability_probe", "crossover_N"])
    def test_node_count_rejected(self, call, message):
        # each used to raise TypeError, ZeroDivisionError or a message
        # that names no parameter
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize("eps, b", [(0.0, 0.5), (0.125, 0.5),
                                        (math.nan, 0.5), (0.01, math.nan)])
    def test_core_radius_rejected(self, eps, b):
        with pytest.raises(ValueError, match=r"core radius must lie in \(0, b/4\)"):
            check_core_radius(eps, b)

    def test_core_radius_accepted(self):
        check_core_radius(0.12, 0.5)


class TestMinEigenvalue:
    def test_dirichlet_laplacian(self):
        n = 400
        h = math.pi / (n + 1)
        band = np.empty((2, n))
        band[0] = 2.0 / h ** 2
        band[1] = -1.0 / h ** 2
        lam = min_eigenvalue(band, np.ones(n))
        assert abs(lam - 1.0) < 1e-4

    def test_identity(self):
        assert abs(min_eigenvalue(np.ones((1, 5)), np.ones(5)) - 1.0) < 1e-14

    def test_critical_mode_is_null(self):
        # log-radius operator -(1-d) f'' - d f with the critical anisotropy:
        # the first Dirichlet mode sin(pi x / L) is an exact null vector.
        b = 0.3
        length = -math.log(b)
        delta1 = math.pi ** 2 / (math.pi ** 2 + math.log(b) ** 2)
        n = 800
        h = length / (n + 1)
        x = np.linspace(-length + h, -h, n)
        band = np.empty((2, n))
        band[0] = (1.0 - delta1) * 2.0 / h ** 2 - delta1
        band[1] = -(1.0 - delta1) / h ** 2
        mass = np.exp(2.0 * x)
        lam = min_eigenvalue(band, mass)
        assert abs(lam) < 2e-3

    def test_positive_definite_form(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((30, 30))
        form = a @ a.T + 0.5 * np.eye(30)
        # full lower band storage, band[k, j] = form[j + k, j]
        band = np.array([np.pad(np.diagonal(form, -k), (0, k)) for k in range(30)])
        lam = min_eigenvalue(band, np.full(30, 2.0))
        assert lam > 0.0

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            min_eigenvalue(np.ones((1, 3)), np.array([1.0, -1.0, 2.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            min_eigenvalue(np.ones((2, 4)), np.ones(5))


def test_gridfunction_validation():
    with pytest.raises(ValueError):
        GridFunction(np.array([0.0, 0.0, 1.0]), np.zeros(3))
    g = GridFunction([0.0, 0.5, 1.0], [1.0, 2.0, 3.0])
    assert g.values.dtype == float
