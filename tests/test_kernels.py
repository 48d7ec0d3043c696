"""Tests for the smooth truncation kernels and the cancellation constant."""

import dataclasses
import mpmath
import numpy as np
import pytest
from scipy import integrate

from jumpvol import Kernel, ParameterError, c_tilde, cancelling_kernel, kernel_moment
from jumpvol.cli import build_parser
from jumpvol.kernels import _phi_moment, _psi_moment, phi, psi, truncated_terms

E_M5_21 = float(np.exp(-5.0 / 21.0))  # shared value of phi and psi at |x| = 3/2


class TestPhi:
    def test_inner_region_is_one(self):
        x = np.linspace(-0.999, 0.999, 41)
        np.testing.assert_array_equal(phi(x), np.ones_like(x))

    def test_outside_support_is_zero(self):
        assert phi(2.0) == 0.0
        assert phi(-5.0) == 0.0

    def test_midpoint_value(self):
        # exp(1/3 + 1/(x^2 - 4)) at x = 3/2 is exp(-5/21)
        assert phi(1.5) == pytest.approx(E_M5_21, rel=1e-14)

    def test_even(self):
        x = np.array([0.3, 1.2, 1.7, 2.5])
        np.testing.assert_array_equal(phi(x), phi(-x))

    @pytest.mark.parametrize("b", [1.0, 2.0])
    def test_continuity_at_breakpoints(self, b):
        eps = 1e-9
        assert abs(phi(b - eps) - phi(b + eps)) < 1e-6

    def test_monotone_on_transition(self):
        x = np.linspace(1.0, 2.0, 200)
        assert np.all(np.diff(phi(x)) <= 0)

    def test_scalar_in_scalar_out(self):
        assert np.isscalar(phi(0.5)) or np.ndim(phi(0.5)) == 0


class TestPsi:
    def test_zero_inside_and_beyond(self):
        assert psi(0.5, 4.0) == 0.0
        assert psi(1.0, 4.0) == 0.0
        assert psi(4.0, 4.0) == 0.0
        assert psi(7.0, 4.0) == 0.0

    def test_midpoint_matches_phi(self):
        assert psi(1.5, 4.0) == pytest.approx(E_M5_21, rel=1e-14)

    @pytest.mark.parametrize("M", [2.5, 4.0, 8.0])
    @pytest.mark.parametrize("frac", [0.0, 0.5, 1.0])
    def test_continuity_at_breakpoints(self, M, frac):
        b = (1.0, 1.5, M)[int(frac * 2)]
        eps = 1e-9
        assert abs(psi(b - eps, M) - psi(b + eps, M)) < 1e-6

    def test_rejects_small_m(self):
        with pytest.raises(ParameterError):
            psi(2.0, 1.5)

    def test_even(self):
        x = np.array([1.2, 1.5, 2.0, 3.9])
        np.testing.assert_array_equal(psi(x, 4.0), psi(-x, 4.0))


class TestComposite:
    def test_equals_phi_inside(self):
        x = np.linspace(-1.0, 1.0, 21)
        np.testing.assert_array_equal(Kernel(c=-0.8, M=4.0)(x), phi(x))

    def test_linear_combination(self):
        x = np.linspace(0.0, 5.0, 101)
        c = -0.7
        np.testing.assert_array_equal(
            Kernel(c=c, M=4.0)(x), phi(x) + c * psi(x, 4.0)
        )


class TestKernelDataclass:
    def test_call_dispatch(self):
        """c = 0 is phi itself; any other c adds c * psi."""
        x = np.linspace(0.0, 7.0, 141)
        np.testing.assert_array_equal(Kernel()(x), phi(x))
        np.testing.assert_array_equal(Kernel(M=6.0)(x), phi(x))
        assert Kernel(c=-0.5)(0.5) == 1.0
        assert Kernel(c=-0.5)(1.2) == phi(1.2) - 0.5 * psi(1.2, 4.0)

    def test_support_radius(self):
        assert Kernel().support_radius == 2.0
        assert Kernel(M=6.0).support_radius == 2.0
        assert Kernel(c=-0.5, M=5.0).support_radius == 5.0
        assert Kernel(c=2.0, M=1.8).support_radius == 2.0

    def test_rejects_unknown_kind(self):
        """A kernel is phi + c psi_M: its fields are c and M, and no kind."""
        assert [f.name for f in dataclasses.fields(Kernel)] == ["c", "M"]
        with pytest.raises(TypeError):
            Kernel(kind="phi")

    @pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf, "phi"])
    def test_rejects_c_not_a_finite_number(self, c):
        """A NaN or infinite c, or a kind name in c's place, is refused as
        the kernel is built, not when it is first evaluated."""
        with pytest.raises(ParameterError, match="c must be a finite number"):
            Kernel(c)


def dzeta_kernel_name(spec: str, M: str = "4") -> str:
    """The `--kernel` of `dzeta --kernel spec --M M` as parsed."""
    argv = ["dzeta", "--alpha", "1", "--zeta", "0.1", "--kernel", spec, "--M", M]
    return build_parser().parse_args(argv).kernel


class TestParseKernel:
    """`dzeta --kernel NAME --M M` names phi, `Kernel(M=M)`, or the composite
    `cancelling_kernel(alpha, M)`; every other name is refused, and M is
    checked for every kernel."""

    def test_phi(self):
        assert dzeta_kernel_name("phi") == "phi"
        k = Kernel(M=6.0)
        assert k.c == 0.0 and k == Kernel(0.0, 6.0)
        assert kernel_moment(k, 1.0) == kernel_moment(Kernel(), 1.0)

    def test_psi_with_m(self):
        """psi, the part a composite adds, ends at the kernel's M."""
        k = Kernel(c=1.0, M=6.0)
        x = np.array([1.2, 3.0, 5.9, 6.0, 7.0])
        np.testing.assert_array_equal(k(x), phi(x) + psi(x, 6.0))
        assert psi(5.9, 6.0) > 0.0 and psi(6.0, 6.0) == 0.0

    def test_composite_computes_c(self):
        assert dzeta_kernel_name("composite") == "composite"
        k = cancelling_kernel(1.0, 4.0)
        assert k.c == pytest.approx(c_tilde(1.0, 4.0))

    def test_bare_spec_takes_given_m(self):
        assert Kernel().M == 4.0
        assert Kernel(M=6.0).M == 6.0
        k = cancelling_kernel(1.0, 6.0)
        assert k == Kernel(c=c_tilde(1.0, 6.0), M=6.0) and k.M == 6.0

    def test_rejects_spec_m_disagreeing_with_given_m(self):
        """M is set only by --M; a name carries none, whether it agrees with
        M or not."""
        for spec, M in (("psi:M=6", "4"), ("composite:M=4", "6"), ("psi:M=4", "4")):
            with pytest.raises(ParameterError, match="invalid choice"):
                dzeta_kernel_name(spec, M)

    @pytest.mark.parametrize(
        "spec",
        ["phi:Q=3", "phi:M=4", "psi:Q=3", "composite:c=3,M=4", "composite:M=4,m=5"],
    )
    def test_rejects_unknown_parameters(self, spec):
        with pytest.raises(ParameterError, match="invalid choice"):
            dzeta_kernel_name(spec)

    def test_rejects_garbage(self):
        for spec in ("phi:M=4:extra", "triangle", "psi"):
            with pytest.raises(ParameterError, match="invalid choice"):
                dzeta_kernel_name(spec)

    @pytest.mark.parametrize(
        "name, build",
        [
            ("phi", lambda M: Kernel(M=M)),
            ("psi", lambda M: psi(1.2, M)),
            ("composite", lambda M: cancelling_kernel(1.0, M)),
        ],
        ids=["phi", "psi", "composite"],
    )
    @pytest.mark.parametrize("M", [float("nan"), float("inf"), 1.5, 1e200])
    def test_checks_m_for_every_name(self, name, build, M):
        with pytest.raises(ParameterError, match="M must be finite and exceed 3/2"):
            build(M)


class TestKernelMoment:
    """kernel_moment(K, alpha) = int K(u) |u|^(1-alpha) du over the real line."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_phi_against_direct_quadrature(self, alpha):
        direct, _ = integrate.quad(
            lambda u: phi(u) * u ** (1 - alpha), 0, 2, points=[1.0], limit=200
        )
        assert kernel_moment(Kernel(), alpha) == pytest.approx(
            2 * direct, rel=1e-8
        )

    def test_singular_inner_cell(self):
        # for alpha > 1 the integrand is singular at 0; the inner cell is
        # handled analytically, so the value is still finite and accurate
        alpha = 1.9
        val = kernel_moment(Kernel(), alpha)
        inner = 2.0 / (2.0 - alpha)
        assert val > inner  # transition band adds a positive amount

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_cancellation(self, alpha):
        """The composite kernel's weighted moment vanishes by construction."""
        k = cancelling_kernel(alpha, 4.0)
        val, _ = integrate.quad(
            lambda u: k(u) * u ** (1 - alpha),
            0,
            4.0,
            points=[1.0, 1.5, 2.0],
            limit=400,
        )
        assert abs(2 * val) < 1e-8

    def test_c_tilde_negative(self):
        # phi's moment is positive and psi's is positive, so c_tilde < 0
        assert c_tilde(1.2, 4.0) < 0


def mp_phi_moment(alpha):
    """2 int_0^2 phi(u) u^(1-alpha) du at 30 digits."""
    a = mpmath.mpf(alpha)

    def band(u):
        return mpmath.exp(mpmath.mpf(1) / 3 + 1 / (u * u - 4)) * u ** (1 - a)

    return 2 * (1 / (2 - a) + mpmath.quad(band, [1, 1.5, 2]))


def mp_psi_moment(alpha, M):
    """2 int_1^M psi(u, M) u^(1-alpha) du at 30 digits.

    M is an mpf, so the integrand's pole at u = M lies exactly on the
    interval's end, where no node falls.
    """
    a, M = mpmath.mpf(alpha), mpmath.mpf(M)

    def rise(u):
        return mpmath.exp(mpmath.mpf(1) / 3 + 1 / ((3 - u) ** 2 - 4)) * u ** (1 - a)

    def fall(u):
        bump = 1 / (u * u - M * M) - mpmath.mpf(5) / 21 + 4 / (4 * M * M - 9)
        return mpmath.exp(bump) * u ** (1 - a)

    return 2 * (mpmath.quad(rise, [1, 1.5]) + mpmath.quad(fall, [1.5, M]))


class TestMomentsAgainstMpmath:
    """The fixed-node moments agree with 30-digit quadrature to 1e-14 relative."""

    ALPHAS = [0.05, 0.5, 1.0, 1.5, 1.99]
    MS = [1.55, 2.0, 4.0, 10.0, 50.0]

    @pytest.fixture(autouse=True)
    def digits(self):
        with mpmath.workdps(30):
            yield

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_phi_moment(self, alpha):
        expected = float(mp_phi_moment(alpha))
        assert _phi_moment(alpha) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_psi_moment_and_c_tilde(self, alpha):
        phi_ref = mp_phi_moment(alpha)
        for M in self.MS:
            psi_ref = mp_psi_moment(alpha, M)
            assert _psi_moment(alpha, M) == pytest.approx(float(psi_ref), rel=1e-14)
            expected = float(-phi_ref / psi_ref)
            assert c_tilde(alpha, M) == pytest.approx(expected, rel=1e-14)


class TestKernelValuesRange:
    def test_phi_between_zero_and_one(self):
        x = np.linspace(-3, 3, 601)
        v = phi(x)
        assert np.all(v >= 0) and np.all(v <= 1)

    def test_psi_between_zero_and_one(self):
        x = np.linspace(-9, 9, 901)
        v = psi(x, 8.0)
        assert np.all(v >= 0) and np.all(v <= 1)


def dense_terms(dx, x, kernel):
    """The terms dx^2 K(x) from the kernel's values at every entry."""
    values = kernel(x)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = dx * dx * values
    return np.where(values != 0.0, terms, 0.0)


class TestTruncatedTerms:
    """The sparse pass gives the dense terms bit for bit."""

    KERNELS = {
        "phi": Kernel(),
        # above 1 where psi is large; at M = 1.8 psi ends inside phi's band
        "composite-c3": Kernel(c=3.0, M=4.0),
        "composite-c3-narrow": Kernel(c=3.0, M=1.8),
        "composite": cancelling_kernel(1.5, 4.0),
        "composite-wide": cancelling_kernel(0.7, 6.0),
        "composite-narrow": cancelling_kernel(1.2, 1.8),
    }

    def block(self):
        """Increments over interior, band and beyond, with non-finite and
        overflowing entries, and |x| exactly at every breakpoint."""
        u = 0.37
        gen = np.random.default_rng(12)
        dx = u * gen.uniform(-7.0, 7.0, (6, 200))
        special = [np.inf, -np.inf, np.nan, 1e200, -1e200, 0.0, -0.0]
        dx[0, : len(special)] = special
        x = dx / u
        breakpoints = [1.0, 1.5, 1.8, 2.0, 4.0, 6.0]
        x[1, : len(breakpoints)] = breakpoints
        x[2, : len(breakpoints)] = np.negative(breakpoints)
        return dx, x

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_equals_dense_terms(self, name):
        dx, x = self.block()
        (terms,) = truncated_terms(dx, x, self.KERNELS[name])
        np.testing.assert_array_equal(terms, dense_terms(dx, x, self.KERNELS[name]))
        np.testing.assert_array_equal(
            terms.sum(axis=-1), dense_terms(dx, x, self.KERNELS[name]).sum(axis=-1)
        )

    def test_kernels_of_one_pass_equal_single_passes(self):
        dx, x = self.block()
        kernels = [self.KERNELS[name] for name in sorted(self.KERNELS)]
        for kernel, terms in zip(kernels, truncated_terms(dx, x, *kernels)):
            np.testing.assert_array_equal(terms, dense_terms(dx, x, kernel))

    def test_vector_and_empty(self):
        kernel = self.KERNELS["composite"]
        dx = np.array([0.1, 0.5, 0.9, 1.6, 3.0])
        (terms,) = truncated_terms(dx, dx / 0.5, kernel)
        np.testing.assert_array_equal(terms, dense_terms(dx, dx / 0.5, kernel))
        (empty,) = truncated_terms(np.empty(0), np.empty(0), kernel)
        assert empty.shape == (0,)

