"""Tests for the smooth truncation kernels and the cancellation constant."""

import dataclasses
import mpmath
import numpy as np
import pytest
from scipy import integrate

from jumpvol import Kernel, ParameterError, c_tilde, cancelling_kernel, kernel_moment
from jumpvol.cli import build_parser
from jumpvol.kernels import (
    _DENSE_SHARE,
    _phi_moment,
    _psi_moment,
    phi,
    psi,
    truncated_sums,
    truncation_pass,
)

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


def scaled(dx, u):
    with np.errstate(over="ignore"):
        return dx / u


class TestTruncatedTerms:
    """The pass gives the dense terms, and their row sums, bit for bit, on
    blocks where few entries are candidates and on blocks where most are."""

    KERNELS = {
        "phi": Kernel(),
        # above 1 where psi is large; at M = 1.8 psi ends inside phi's band
        "composite-c3": Kernel(c=3.0, M=4.0),
        "composite-c3-narrow": Kernel(c=3.0, M=1.8),
        "composite": cancelling_kernel(1.5, 4.0),
        "composite-wide": cancelling_kernel(0.7, 6.0),
        "composite-narrow": cancelling_kernel(1.2, 1.8),
    }
    U = 0.41  # every breakpoint b is dx / U for some dx

    def blocks(self):
        """Increments over interior, band and beyond for threshold U, with
        non-finite and overflowing entries, and dx / U exactly at every
        breakpoint: one block spread over |dx / U| < 7, where most entries
        are candidates, and one over |dx / U| < 1.05, where few are."""
        u = self.U
        out = []
        for spread in (7.0, 1.05):
            gen = np.random.default_rng(12)
            dx = u * gen.uniform(-spread, spread, (6, 200))
            special = [np.inf, -np.inf, np.nan, 1e200, -1e200, 0.0, -0.0]
            dx[0, : len(special)] = special
            for i, b in enumerate([1.0, 1.5, 1.8, 2.0, 4.0, 6.0]):
                near = u * b + np.arange(-20, 21) * np.spacing(u * b)
                edge = near[near / u == b][0]
                dx[1:3, i] = edge, -edge
            out.append(dx)
        return out

    def test_blocks_take_both_branches(self):
        with np.errstate(over="ignore"):
            many, few = (np.mean(~(dx * dx < self.U**2)) for dx in self.blocks())
        assert few < _DENSE_SHARE < many

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_equals_dense_terms(self, name):
        kernel = self.KERNELS[name]
        for dx in self.blocks():
            want = dense_terms(dx, scaled(dx, self.U), kernel)
            (terms,) = truncation_pass(dx, self.U, kernel)
            np.testing.assert_array_equal(terms, want)
            np.testing.assert_array_equal(terms.sum(axis=-1), want.sum(axis=-1))
            np.testing.assert_array_equal(
                np.square(terms).sum(axis=-1), np.square(want).sum(axis=-1)
            )

    def test_kernels_of_one_pass_equal_single_passes(self):
        kernels = [self.KERNELS[name] for name in sorted(self.KERNELS)]
        for dx in self.blocks():
            x = scaled(dx, self.U)
            for kernel, terms in zip(kernels, truncation_pass(dx, self.U, *kernels)):
                np.testing.assert_array_equal(terms, dense_terms(dx, x, kernel))

    def test_evaluates_phi_and_psi_once(self, monkeypatch):
        """A (phi, composite) pass evaluates phi once and psi once on the
        band, and its terms are still the dense ones bit for bit."""
        from jumpvol import kernels

        pair = (Kernel(), self.KERNELS["composite"])
        calls = []
        for name in ("phi", "psi"):
            real = getattr(kernels, name)
            spy = lambda *a, real=real, name=name: calls.append(name) or real(*a)
            monkeypatch.setattr(kernels, name, spy)
        for dx in self.blocks():
            x = scaled(dx, self.U)
            dense = [dense_terms(dx, x, kernel) for kernel in pair]
            calls.clear()
            terms = [t.copy() for t in truncation_pass(dx, self.U, *pair)]
            assert sorted(calls) == ["phi", "psi"]
            for got, want in zip(terms, dense):
                np.testing.assert_array_equal(got, want)

    # A typical u_n and round ones; one whose square is subnormal, one whose
    # square underflows to 0 and one whose square overflows to inf.
    THRESHOLDS = (0.37, 1.0, 0.05, 3.0, 1e-160, 1e-170, 1e170)

    def adversarial_blocks(self, u):
        """Increments over interior, band and beyond for threshold u, one
        kind per row: |dx| one ulp either side of u b at every breakpoint b;
        dx = +-u, where dx / u is exactly 1.0, and the largest |dx| < u, whose
        square may round up to u^2; infinite, NaN and huge entries, whose
        squares overflow.  Two blocks: one with the rows padded to 1000 with
        zeros, whose terms are 0, so that few entries are candidates, and one
        with the rows padded to 40 with 10 u, beyond every support, so that
        most are."""
        rows = [list(u * np.random.default_rng(12).uniform(-7.0, 7.0, 40))]
        for b in (1.0, 1.5, 1.8, 2.0, 4.0, 6.0):
            edge = u * b
            near = [np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)]
            rows.append(near + [-v for v in near])
        below = np.nextafter(u, 0.0)
        rows.append([u, -u, below, -below])
        rows += [[np.inf, -np.inf], [np.nan, u], [1e200, -1e200, 0.0, -0.0]]
        return [
            np.array([row + [pad] * (width - len(row)) for row in rows])
            for width, pad in [(1000, 0.0), (40, 10.0 * u)]
        ]

    def dense_sums(self, dx, u, kernel):
        return dense_terms(dx, scaled(dx, u), kernel).sum(axis=-1)

    @pytest.mark.parametrize("u", THRESHOLDS)
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_sums_equal_dense_sums(self, name, u):
        kernel = self.KERNELS[name]
        for dx in self.adversarial_blocks(u):
            want = dense_terms(dx, scaled(dx, u), kernel)
            # where u^2 overflows, +inf and -inf terms of a composite meet
            with np.errstate(invalid="ignore"):
                (sums,) = truncated_sums(dx, u, kernel)
                np.testing.assert_array_equal(sums, want.sum(axis=-1))
            if 1e-100 < u < 1e100:
                assert np.isfinite(sums).all()
            (terms,) = truncation_pass(dx, u, kernel)
            np.testing.assert_array_equal(terms, want)
            np.testing.assert_array_equal(
                np.square(terms).sum(axis=-1), np.square(want).sum(axis=-1)
            )

    @pytest.mark.parametrize("u", THRESHOLDS)
    def test_dense_branch_only_where_u2_and_bound_are_normal(self, monkeypatch, u):
        """On the block where most entries are candidates, the kernels see
        only the band when u^2 and the bound (6 u)^2 are normal numbers, and
        every candidate otherwise (u^2 subnormal, 0 or infinite)."""
        from jumpvol import kernels

        dx = self.adversarial_blocks(u)[1]
        with np.errstate(over="ignore"):
            candidates = np.count_nonzero(~(dx * dx < u * u))
        assert candidates > _DENSE_SHARE * dx.size
        sizes = []
        real = kernels.phi
        monkeypatch.setattr(kernels, "phi", lambda x: sizes.append(x.size) or real(x))
        with np.errstate(invalid="ignore"):
            truncated_sums(dx, u, self.KERNELS["composite-wide"])
        normal = 1e-100 < u < 1e100
        assert (sizes[0] < candidates) if normal else (sizes[0] == candidates)

    @pytest.mark.parametrize("u", [1e-160, 1e-170])
    def test_rounding_lets_interior_entries_in(self, u):
        """Where u^2 is subnormal or 0, the largest |dx| < u squares to u^2:
        the pass takes it with |dx / u| < 1, where K is still 1."""
        below = np.nextafter(u, 0.0)
        assert below * below == u * u and abs(below / u) < 1.0
        for dx in self.adversarial_blocks(u):
            assert (dx == below).any()

    @pytest.mark.parametrize("u", THRESHOLDS)
    def test_kernels_of_one_sum_pass_equal_single_passes(self, u):
        kernels = [self.KERNELS[name] for name in sorted(self.KERNELS)]
        for dx in self.adversarial_blocks(u):
            with np.errstate(invalid="ignore"):
                sums = truncated_sums(dx, u, *kernels)
                for kernel, got in zip(kernels, sums):
                    np.testing.assert_array_equal(got, self.dense_sums(dx, u, kernel))

    def test_vector_and_empty(self):
        kernel = self.KERNELS["composite"]
        dx = np.array([0.1, 0.5, 0.9, 1.6, 3.0])
        (terms,) = truncation_pass(dx, 0.5, kernel)
        np.testing.assert_array_equal(terms, dense_terms(dx, dx / 0.5, kernel))
        (empty,) = truncation_pass(np.empty(0), 0.5, kernel)
        assert empty.shape == (0,)
        (total,) = truncated_sums(dx, 0.5, kernel)
        assert np.ndim(total) == 0 and total == self.dense_sums(dx, 0.5, kernel)
        for shape in [(0,), (3, 0)]:
            (empty,) = truncated_sums(np.empty(shape), 0.5, kernel)
            np.testing.assert_array_equal(empty, np.zeros(shape[:-1]))


class TestStackedPass:
    """A stack, whose leading index is a cell with its own threshold and
    kernels, gives each cell's terms and row sums bit for bit as the pass
    over that cell alone does."""

    N = 300
    COMPOSITES = (
        cancelling_kernel(1.5, 4.0),
        cancelling_kernel(0.7, 6.0),
        cancelling_kernel(1.2, 1.8),
    )

    def stack(self, case):
        """Three cells of 4 rows (1 for "one-row") at thresholds about
        n^-0.2: Gaussian increments, plus large ones (dense where most
        entries are candidates) where the cell has jumps."""
        gen = np.random.default_rng(31)
        rows = 1 if case == "one-row" else 4
        dx = gen.standard_normal((3, rows, self.N)) / np.sqrt(self.N)
        u = np.array([0.31, 0.42, 0.27])
        dense = case in ("dense", "subnormal")
        jumps = gen.random(dx.shape) < (0.4 if dense else 0.02)
        jumps[0] &= case != "gamma-0"  # cell 0 is jump-free then
        dx[jumps] *= gen.uniform(3.0, 300.0, jumps.sum())
        if case == "subnormal":
            u[1] = 1e-160  # its square is subnormal
            dx[1] *= 1e-160 / 0.42
        if case == "non-finite":
            dx[0, 0, :5] = [np.inf, -np.inf, np.nan, 1e155, -1e155]
            dx[2, -1, :2] = [1e155, np.nan]
        return dx, u

    def cell_by_cell(self, dx, u, *kernels):
        """The pass over each cell alone, as [cell][kernel] terms."""
        out = []
        for i in range(len(dx)):
            own = [k if isinstance(k, Kernel) else k[i] for k in kernels]
            out.append([t.copy() for t in truncation_pass(dx[i], u[i], *own)])
        return out

    CASES = ["gamma-0", "two-m", "dense", "subnormal", "one-row", "non-finite"]

    @pytest.mark.parametrize("case", CASES)
    def test_terms_and_sums_equal_cell_by_cell(self, case):
        dx, u = self.stack(case)
        kernels = (Kernel(), self.COMPOSITES)
        if case == "two-m":  # one kernel list holds M 4, M 6 and phi
            kernels = (self.COMPOSITES[:2] + (Kernel(),), Kernel(c=3.0, M=1.8))
        want = self.cell_by_cell(dx, u, *kernels)
        terms = [t.copy() for t in truncation_pass(dx, u, *kernels)]
        sums = truncated_sums(dx, u, *kernels)
        for i, cell in enumerate(want):
            for j, one in enumerate(cell):
                np.testing.assert_array_equal(terms[j][i], one)
                np.testing.assert_array_equal(sums[j][i], one.sum(axis=-1))
        if case == "non-finite":  # K is 0 there, so their terms are 0
            assert all(np.isfinite(s).all() for s in sums)

    @pytest.mark.parametrize("case", ["dense", "subnormal"])
    def test_most_entries_are_candidates(self, case):
        """So the stack takes the dense branch, unless a cell's u^2 is
        subnormal."""
        dx, u = self.stack(case)
        candidates = np.count_nonzero(~(dx * dx < (u * u)[:, None, None]))
        assert candidates > _DENSE_SHARE * dx.size

    def test_one_threshold_or_one_kernel_for_every_cell(self):
        """A float u with kernel lists, and thresholds with shared kernels."""
        dx, u = self.stack("dense")
        for args in [(0.3, Kernel(), self.COMPOSITES), (u, Kernel(), Kernel(c=3.0))]:
            thresholds = np.broadcast_to(args[0], (3,))
            want = self.cell_by_cell(dx, thresholds, *args[1:])
            for j, got in enumerate(truncated_sums(dx, *args)):
                for i in range(3):
                    np.testing.assert_array_equal(got[i], want[i][j].sum(axis=-1))

    def test_evaluates_phi_once_and_psi_once_per_m(self, monkeypatch):
        from jumpvol import kernels

        calls = []
        for name in ("phi", "psi"):
            real = getattr(kernels, name)
            spy = lambda *a, real=real, name=name: calls.append(name) or real(*a)
            monkeypatch.setattr(kernels, name, spy)
        dx, u = self.stack("two-m")
        one_m = [cancelling_kernel(a, 4.0) for a in (1.0, 1.5, 1.9)]
        calls.clear()
        truncated_sums(dx, u, Kernel(), self.COMPOSITES)
        assert sorted(calls) == ["phi", "psi", "psi", "psi"]
        calls.clear()
        truncated_sums(dx, u, Kernel(), one_m)
        assert sorted(calls) == ["phi", "psi"]


class TestPassRefuses:
    """Thresholds that are not positive and finite, per cell, and a pass
    without kernels, are a ParameterError, not a sum of 0 or a bare error."""

    DX = np.array([[0.1, 0.5, 2.0], [0.3, -0.2, 0.9]])

    @pytest.mark.parametrize("u", [0.0, -0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_threshold(self, u):
        with pytest.raises(ParameterError, match="u must be positive and finite"):
            truncated_sums(self.DX, u, Kernel())

    @pytest.mark.parametrize("bad", [0.0, -2.0, np.nan, np.inf])
    def test_threshold_of_one_cell(self, bad):
        with pytest.raises(ParameterError, match=r"at cells \[1\]"):
            truncated_sums(self.DX, [0.5, bad], Kernel())

    def test_thresholds_not_one_per_cell(self):
        for u in ([0.5], [0.5, 0.5, 0.5], [[0.5, 0.5]]):
            with pytest.raises(ParameterError, match="one threshold per cell"):
                truncated_sums(self.DX, u, Kernel())

    def test_no_kernel(self):
        with pytest.raises(ParameterError, match="at least one kernel"):
            truncated_sums(self.DX, 1.0)

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_kernel_list_not_one_per_cell(self, count):
        kernels = [Kernel()] * count
        with pytest.raises(ParameterError, match="one kernel per cell"):
            truncated_sums(self.DX, [0.5, 0.5], kernels)
        with pytest.raises(ParameterError, match="one kernel per cell"):
            truncated_sums(self.DX, 0.5, Kernel(), kernels)
