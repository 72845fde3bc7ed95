"""Grid fractional-calculus tests: power rules, adjoint identities, scheme
convergence orders, and the weakly singular convolution."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve
from scipy.special import gamma

from fracctrl import (
    DomainError,
    GridFunction,
    InvalidOrder,
    InvalidParams,
    MLParams,
    TimeGrid,
    caputo_derivative,
    ml_matrix_batch,
    ml_scalar,
    rl_derivative_left,
    singular_convolution,
)
import fracctrl
from fracctrl.fraccalc import _convolved, _frac_integral_values, _next_fast_len, _spectrum


def grid_fn(fn, t0=0.0, t1=1.0, steps=512):
    g = TimeGrid(t0, t1, steps)
    return GridFunction(g, fn(g.nodes))


def integral(f: GridFunction, alpha: float) -> GridFunction:
    """Left fractional integral of order alpha > 0, from the grid start."""
    return GridFunction(f.grid, _frac_integral_values(f.values, alpha, f.grid.h))


def rl_derivative_right(f: GridFunction, alpha: float) -> GridFunction:
    """Right-sided RL derivative via reflection of the left-sided one (the
    -d/dt and the reflection's sign cancel)."""
    rev = GridFunction(f.grid, f.values[::-1].copy())
    d = rl_derivative_left(rev, alpha)
    return GridFunction(f.grid, d.values[::-1].copy())


class TestGridTypes:
    def test_grid_validation(self):
        with pytest.raises(DomainError):
            TimeGrid(1.0, 1.0, 16)
        with pytest.raises(DomainError):
            TimeGrid(0.0, 1.0, 1)

    @pytest.mark.parametrize("steps", [8.5, 8.0, True, "8", None])
    def test_grid_steps_must_be_an_integer(self, steps):
        with pytest.raises(DomainError, match="steps must be an integer"):
            TimeGrid(0.0, 1.0, steps)

    def test_grid_steps_stored_as_int(self):
        g = TimeGrid(0.0, 1.0, np.int64(8))
        assert type(g.steps) is int and g == TimeGrid(0.0, 1.0, 8)

    def test_values_shape_checked(self):
        g = TimeGrid(0.0, 1.0, 8)
        with pytest.raises(DomainError):
            GridFunction(g, np.zeros(5))
        with pytest.raises(DomainError):
            GridFunction(g, np.full(9, np.nan))

    def test_complex_values_refused(self):
        # a cast to float would keep only the real part, with a ComplexWarning
        with pytest.raises(InvalidParams, match="grid function entries must be real"):
            GridFunction(TimeGrid(0.0, 1.0, 2), np.array([1j, 1.0 + 2.0j, 3.0]))

    def test_linear_interpolation(self):
        f = grid_fn(lambda t: 3.0 * t, steps=4)
        assert f(0.375) == pytest.approx(1.125, rel=1e-14)
        assert f(1.0 + 1e-13) == pytest.approx(3.0, rel=1e-12)  # t1 up to rounding
        for t in (-1e-9, 1.0 + 1e-9):
            with pytest.raises(DomainError, match="outside grid"):
                f(t)

    @pytest.mark.parametrize("shape", [(), (3,)])
    def test_array_of_times_is_the_scalar_calls_bit_for_bit(self, shape):
        # one reader: an array of times gives the scalar calls, and both give
        # the scalar interpolation of earlier versions, bit for bit
        g = TimeGrid(0.0, 2.0, 7)
        rng = np.random.default_rng(5)
        vals = rng.standard_normal((8,) + shape)
        f = GridFunction(g, vals)
        ts = np.append(rng.uniform(0.0, 2.0, 50), [0.0, 3.0 * g.h, 2.0, 2.0 + 1e-13])
        got = f(ts)
        assert got.shape == ts.shape + shape
        assert np.array_equal(got, np.array([f(t) for t in ts]))
        for t, row in zip(ts, got):
            x = np.clip((t - g.t0) / g.h, 0.0, g.steps)
            i = min(int(x), g.steps - 1)
            w = x - i
            assert np.array_equal(row, (1.0 - w) * vals[i] + w * vals[i + 1])

    def test_array_outside_grid_names_a_time(self):
        f = grid_fn(lambda t: 3.0 * t, steps=4)
        with pytest.raises(DomainError, match=r"t=1\.5 outside grid \[0\.0, 1\.0\]"):
            f(np.array([0.5, 1.5, -1.0]))


class TestFracIntegralLeft:
    def test_constant_half_order(self):
        f = grid_fn(lambda t: np.ones_like(t), steps=512)
        got = integral(f, 0.5).values
        want = 2.0 * np.sqrt(f.grid.nodes) / np.sqrt(np.pi)
        assert np.abs(got - want).max() <= 1e-6

    def test_linear_exact_for_product_rule(self):
        # I^{1/2} t = t^{3/2} Gamma(2)/Gamma(2.5): exact, f is piecewise linear
        f = grid_fn(lambda t: t, steps=128)
        got = integral(f, 0.5).values
        want = f.grid.nodes**1.5 * gamma(2.0) / gamma(2.5)
        assert np.abs(got - want).max() <= 1e-14

    def test_order_one_is_plain_integral(self):
        f = grid_fn(lambda t: np.ones_like(t), steps=64)
        got = integral(f, 1.0).values
        assert np.abs(got - f.grid.nodes).max() <= 1e-13

    def test_alpha_one_matches_cumulative_trapezoid(self):
        # exact reduction on polynomial data
        f = grid_fn(lambda t: 1.0 + 2.0 * t, steps=256)
        got = integral(f, 1.0).values
        from scipy.integrate import cumulative_trapezoid

        want = np.concatenate([[0.0], cumulative_trapezoid(f.values, f.grid.nodes)])
        assert np.abs(got - want).max() <= 1e-12

    def test_vector_valued(self):
        g = TimeGrid(0.0, 1.0, 64)
        f = GridFunction(g, np.stack([g.nodes, np.ones_like(g.nodes)], axis=1))
        got = integral(f, 1.0).values
        assert np.abs(got[:, 0] - g.nodes**2 / 2.0).max() <= 1e-13
        assert np.abs(got[:, 1] - g.nodes).max() <= 1e-13


class TestRLDerivative:
    def test_sqrt_power_rule(self):
        f = grid_fn(lambda t: np.sqrt(t), steps=1024)
        got = rl_derivative_left(f, 0.5).values
        t = f.grid.nodes
        interior = t >= 0.1
        assert np.abs(got[interior] - gamma(1.5)).max() <= 1e-4

    def test_constant_power_rule(self):
        # D^{1/2} 1 = t^{-1/2} / Gamma(1/2)
        f = grid_fn(lambda t: np.ones_like(t), steps=1024)
        got = rl_derivative_left(f, 0.5).values
        t = f.grid.nodes
        interior = t >= 0.1
        want = 1.0 / (np.sqrt(t[interior]) * gamma(0.5))
        assert np.abs(got[interior] - want).max() <= 1e-4

    def test_zero_function(self):
        f = grid_fn(lambda t: np.zeros_like(t), steps=64)
        assert np.abs(rl_derivative_left(f, 0.5).values).max() == 0.0

    def test_order_guard(self):
        f = grid_fn(lambda t: t, steps=8)
        with pytest.raises(InvalidOrder):
            rl_derivative_left(f, 1.0)


class TestCaputoDerivative:
    def test_constant_is_zero(self):
        f = grid_fn(lambda t: np.full_like(t, 3.7), steps=64)
        assert np.abs(caputo_derivative(f, 0.5).values).max() == 0.0

    def test_linear_power_rule(self):
        f = grid_fn(lambda t: t, steps=1024)
        got = caputo_derivative(f, 0.5).values
        t = f.grid.nodes
        want = np.sqrt(t) / gamma(1.5)
        assert np.abs(got[1:] - want[1:]).max() <= 1e-4

    def test_mittag_leffler_eigenfunction(self):
        # Caputo derivative of E_alpha(l t^alpha) equals l E_alpha(l t^alpha)
        alpha, lam = 0.5, -1.0
        g = TimeGrid(0.0, 1.0, 2048)
        vals = np.array([ml_scalar(MLParams(alpha, 1.0), lam * t**alpha) for t in g.nodes])
        f = GridFunction(g, vals)
        got = caputo_derivative(f, alpha).values
        interior = g.nodes >= 0.1
        assert np.abs(got[interior] - lam * vals[interior]).max() <= 1e-3


def rl_compose(f: GridFunction, alpha: float, j: int) -> GridFunction:
    """j-fold Riemann-Liouville derivative on the same grid, applied as the
    rank-based synthesis applies it."""
    for _ in range(j):
        f = rl_derivative_left(f, alpha)
    return f


class TestRLCompose:
    def test_two_half_derivatives_of_t(self):
        f = grid_fn(lambda t: t, steps=1024)
        got = rl_compose(f, 0.5, 2).values
        n = f.grid.steps
        interior = slice(n // 10, n - n // 10)
        assert np.abs(got[interior] - 1.0).max() <= 2e-4

    def test_zero_function_any_count(self):
        f = grid_fn(lambda t: np.zeros_like(t), steps=64)
        assert np.abs(rl_compose(f, 0.5, 3).values).max() == 0.0


class TestSingularConvolution:
    def test_unit_kernel_unit_control(self):
        u = grid_fn(lambda t: np.ones_like(t), steps=64)
        got = singular_convolution(lambda s: 1.0, 0.5, u, 1.0)
        assert got[0] == pytest.approx(2.0, rel=1e-14)

    def test_chain_system_second_component(self):
        # kernel row for the second state is constant 1/Gamma(1/2)
        u = grid_fn(lambda t: np.ones_like(t), steps=256)
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[0.0], [1.0]])

        def kern(s):
            return ml_matrix_batch(A, 0.5, 0.5, np.asarray([s]))[0] @ B

        for t_eval in (0.25, 1.0):
            got = singular_convolution(kern, 0.5, u, t_eval)
            assert got[1] == pytest.approx(2.0 * np.sqrt(t_eval) / np.sqrt(np.pi), rel=1e-12)

    def test_zero_control(self):
        u = grid_fn(lambda t: np.zeros_like(t), steps=32)
        assert np.abs(singular_convolution(lambda s: 1.0, 0.5, u, 0.5)).max() == 0.0

    def test_domain_guard(self):
        u = grid_fn(lambda t: np.ones_like(t), steps=32)
        with pytest.raises(DomainError):
            singular_convolution(lambda s: 1.0, 0.5, u, 1.5)
        for order in (0.0, -0.5):
            with pytest.raises(InvalidOrder, match="convolution order must be > 0"):
                singular_convolution(lambda s: 1.0, order, u, 0.5)

    @pytest.mark.parametrize("kernel", [lambda s: 1j, lambda s: np.full((s.size, 1, 1), 1.0 + 1j)],
                             ids=["constant", "stack"])
    def test_complex_kernel_refused(self, kernel):
        u = grid_fn(lambda t: np.ones_like(t), steps=8)
        with pytest.raises(InvalidParams, match="kernel entries must be real"):
            singular_convolution(kernel, 0.5, u, 1.0)

    def test_kernel_called_once_on_all_lags(self):
        u = grid_fn(lambda t: np.ones_like(t), steps=64)
        calls = []

        def kern(s):
            calls.append(np.array(s))
            return np.ones_like(s)

        singular_convolution(kern, 0.5, u, 0.61)
        assert len(calls) == 1
        # the nodes below t_eval, then t_eval itself
        taus = np.append(u.grid.nodes[u.grid.nodes < 0.61], 0.61)
        assert np.array_equal(calls[0], 0.61 - taus)

    @pytest.mark.parametrize("t_eval", [1.0, 0.61])
    def test_kernel_forms_match_per_node_loop(self, t_eval):
        A = np.array([[-0.4, 0.9], [-0.7, 0.2]])
        alpha, g = 0.6, TimeGrid(0.0, 1.0, 64)
        u = GridFunction(g, np.stack([np.cos(g.nodes), g.nodes**2], axis=1))

        def per_node(kernel):
            # the product integration written out one node at a time
            taus = np.append(g.nodes[g.nodes < t_eval - 1e-12], t_eval)
            P = [np.atleast_2d(kernel(t_eval - tv)) @ u(tv) for tv in taus]
            total = 0.0
            for j in range(len(taus) - 1):
                sp, sq = t_eval - taus[j], t_eval - taus[j + 1]
                m0 = (sp**alpha - sq**alpha) / alpha
                m1 = t_eval * m0 - (sp ** (alpha + 1.0) - sq ** (alpha + 1.0)) / (alpha + 1.0)
                slope = (P[j + 1] - P[j]) / (taus[j + 1] - taus[j])
                total = total + P[j] * m0 + slope * (m1 - taus[j] * m0)
            return total

        def matrix(s):
            return ml_matrix_batch(A, alpha, alpha, np.asarray(s, float))

        forms = [  # (batched kernel, the same kernel at one lag)
            (matrix, lambda s: matrix(np.array([s]))[0]),
            (lambda s: np.exp(-s), lambda s: np.exp(-s) * np.eye(2)),
            (lambda s: 2.5, lambda s: 2.5 * np.eye(2)),
        ]
        for batched, one in forms:
            want = per_node(one)
            got = singular_convolution(batched, alpha, u, t_eval)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestIdentities:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_integral_of_derivative_roundtrip(self, alpha):
        # f = I^alpha g lies in the range of I^alpha, so I^alpha D^alpha f = f.
        # Max over t >= 0.05: the discrete D^alpha of a function with a
        # t^alpha layer is documented-unreliable at the first nodes.
        errs = []
        for steps in (512, 1024):
            g = TimeGrid(0.0, 1.0, steps)
            src = GridFunction(g, np.sin(2.0 * g.nodes) + 0.5)
            f = integral(src, alpha)
            back = integral(rl_derivative_left(f, alpha), alpha)
            err = np.abs(back.values - f.values)
            errs.append(err[int(0.05 * steps):].max())
        assert errs[-1] <= 1e-3
        assert errs[0] / errs[-1] >= 1.5  # halving improves

    def test_integration_by_parts_for_integrals(self):
        g = TimeGrid(0.0, 1.0, 1024)
        phi = GridFunction(g, np.sin(2.0 * np.pi * g.nodes) + g.nodes)
        psi = GridFunction(g, np.cos(np.pi * g.nodes))
        lhs = np.trapezoid(phi.values * integral(psi, 0.5).values, g.nodes)
        # the right-sided integral is the left one of the reflected samples
        right = integral(GridFunction(g, phi.values[::-1]), 0.5).values[::-1]
        rhs = np.trapezoid(psi.values * right, g.nodes)
        assert abs(lhs - rhs) <= 1e-5

    def test_integration_by_parts_for_derivatives(self):
        # pairs vanishing suitably at both endpoints
        g = TimeGrid(0.0, 1.0, 1024)
        t = g.nodes
        f = GridFunction(g, t**2 * (1.0 - t) ** 2)
        h = GridFunction(g, np.sin(np.pi * t) ** 2 * t)
        lhs = np.trapezoid(f.values * rl_derivative_left(h, 0.5).values, t)
        rhs = np.trapezoid(h.values * rl_derivative_right(f, 0.5).values, t)
        assert abs(lhs - rhs) <= 1e-5

    def test_kernel_derivative_transfer(self):
        # int S(T-s) D^a psi ds == int A S(T-s) psi ds for psi vanishing at 0, T
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        alpha, T, steps = 0.5, 1.0, 2048
        g = TimeGrid(0.0, T, steps)
        t = g.nodes
        psi = GridFunction(g, np.stack([t**2 * (1 - t), t**2 * (1 - t) ** 2], axis=1))
        dpsi = GridFunction(
            g, np.stack([rl_derivative_left(GridFunction(g, psi.values[:, i]), alpha).values
                         for i in range(2)], axis=1)
        )

        def kern(s):
            return ml_matrix_batch(A, alpha, alpha, np.asarray([s]))[0]

        lhs = singular_convolution(kern, alpha, dpsi, T)
        rhs = singular_convolution(kern, alpha,
                                   GridFunction(g, psi.values @ A.T), T)
        assert np.abs(lhs - rhs).max() <= 1e-3

    @pytest.mark.parametrize("alpha", [0.5, 0.7])
    def test_refinement_order_on_smooth_data(self, alpha):
        errs = []
        for steps in (128, 256, 512):
            g = TimeGrid(0.0, 1.0, steps)
            f = GridFunction(g, np.cos(g.nodes))
            got = integral(f, alpha).values
            gf = TimeGrid(0.0, 1.0, 4096)
            ref = integral(GridFunction(gf, np.cos(gf.nodes)), alpha).values
            errs.append(np.abs(got - ref[:: 4096 // steps]).max())
        order = np.log2(errs[0] / errs[1])
        assert order >= min(2.0 - alpha, 1.0)


class TestFftConvolve:
    """The spectral pair ``_spectrum``/``_convolved`` that every FFT convolution runs on."""

    @pytest.mark.parametrize("N", [2, 3, 17, 512, 2049, 4097, 16385])
    @pytest.mark.parametrize("d", [1, 3, 4])
    def test_bitwise_equal_to_scipy_signal(self, N, d):
        rng = np.random.default_rng(N * 10 + d)
        for sa, sb in [((N, 1), (N, d)), ((N, d), (N, 1)), ((N - 1, 1), (N - 1, d))]:
            a, b = rng.standard_normal(sa), rng.standard_normal(sb)
            want = fftconvolve(a, b, axes=0)[: sa[0]]
            got = _convolved(_spectrum(a) * _spectrum(b), sa[0])
            assert got.shape == want.shape and np.array_equal(got, want)

    def test_cli_import_skips_scipy_signal(self):
        code = "import sys, fracctrl.cli; print('scipy.signal' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(fracctrl.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=120, env=env)
        assert out.stdout.strip() == "False"

    def test_cli_synthesize_imports_no_scipy(self):
        root = Path(fracctrl.__file__).parents[2]
        code = ("import sys, fracctrl.cli; "
                f"code = fracctrl.cli.main(['synthesize', {str(root / 'docs' / 'example1.json')!r}]); "
                "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = {**os.environ, "PYTHONPATH": str(Path(fracctrl.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=120, env=env)
        assert out.stdout.splitlines()[-1] == "0 []"

    def test_fast_length_matches_scipy(self):
        assert [_next_fast_len(n) for n in range(1, 20001)] == [
            next_fast_len(n, real=True) for n in range(1, 20001)]
