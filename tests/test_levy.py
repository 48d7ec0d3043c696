"""Tests for path simulation and the stable / tempered-stable samplers."""

from math import exp, hypot, sqrt

import mpmath
import numpy as np
import pytest

from jumpvol import JumpLaw, ModelSpec, ParameterError, simulate_path
from jumpvol.harness import replicate_map
from jumpvol.levy import (
    BLOCK_INCREMENTS,
    SMALL_JUMP_CUTOFF,
    _chambers_mallows_stuck,
    _stable_blocks,
    _tempered_block,
    block_rows,
    block_streams,
    draw_jumps,
    form_increments,
    sample_stable_increment,
    simulate_increments,
    simulate_parts,
    stable_scale,
    tempered_small_jump_variance,
    tempered_tail_intensity,
)

# sigma_alpha = 2 * int_0^inf (1 - cos u) u^(-1-alpha) du = -2*Gamma(-alpha)*cos(pi*alpha/2)
# frozen from an independent high-precision evaluation of the closed form
SIGMA_ALPHA = {
    0.5: 5.013256549262001,
    1.0: np.pi,
    1.2: 2.998056390806985,
    1.5: 3.3421710326670878,
    1.9: 10.989919026918956,
}

# pi/2 - fl(pi/2)
HALF_PI_LO = 6.123233995736766e-17


class TestStableScale:
    def test_against_closed_form(self):
        for alpha, expected in SIGMA_ALPHA.items():
            assert stable_scale(alpha) == pytest.approx(expected, rel=1e-7)

    def test_exactly_pi_at_one(self):
        assert stable_scale(1.0) == np.pi

    def test_rejects_bad_alpha(self):
        with pytest.raises(ParameterError):
            stable_scale(0.0)
        with pytest.raises(ParameterError):
            stable_scale(2.5)


def sample_standard_stable(alpha, rng, size):
    """Draws with characteristic function exp(-|t|^alpha): increments over
    delta = 1 / sigma_alpha."""
    return sample_stable_increment(alpha, 1.0 / stable_scale(alpha), rng, size)


class TestStandardStableSampler:
    """The sampler targets the characteristic function exp(-|t|^alpha)."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.3, 1.7])
    def test_empirical_cf(self, alpha):
        rng = np.random.default_rng(2024)
        x = sample_standard_stable(alpha, rng, 200_000)
        for t in (0.3, 1.0, 2.5):
            emp = np.mean(np.cos(t * x))
            assert emp == pytest.approx(np.exp(-abs(t) ** alpha), abs=0.01)

    def test_cauchy_quartiles(self):
        rng = np.random.default_rng(11)
        x = sample_standard_stable(1.0, rng, 200_000)
        q1, q3 = np.quantile(x, [0.25, 0.75])
        assert q1 == pytest.approx(-1.0, abs=0.02)
        assert q3 == pytest.approx(1.0, abs=0.02)

    def test_symmetry_of_law(self):
        rng = np.random.default_rng(3)
        x = sample_standard_stable(0.7, rng, 200_000)
        assert np.mean(np.sign(x)) == pytest.approx(0.0, abs=0.01)


def _transform_grid():
    """About 400 uniforms r on [0, 1) and exponentials: the angles
    v = pi r - pi/2 of the r, formed as the transform forms them, avoid 0
    and crowd towards +-pi/2."""
    near = 10.0 ** -np.arange(1, 16)
    special = [0.0, np.nextafter(1.0, 0.0), 0.75, 0.5 + 1e-12]
    r = np.concatenate((np.linspace(0.0, 1.0, 377)[:-1], near, 1.0 - near, special))
    r = r[_angles(r) != 0.0]
    w = np.random.default_rng(0).standard_exponential(r.size)
    return r, w


def _angles(r):
    """v = pi r - pi/2, rounded as the transform rounds it."""
    return r * np.pi + -np.pi / 2


def _cms_mpmath(alpha, u, w):
    """The transform at the exact binary values of alpha, u and w, to 40 digits."""
    with mpmath.workdps(40):
        a, u, w = mpmath.mpf(alpha), mpmath.mpf(u), mpmath.mpf(w)
        return (mpmath.sin(a * u) / mpmath.cos(u) ** (1 / a)) * (
            mpmath.cos((1 - a) * u) / w
        ) ** ((1 - a) / a)


class TestChambersMallowsStuck:
    """The tangent form of the transform is as accurate as the sine/cosine form."""

    def test_half_pi_low_part(self):
        with mpmath.workdps(40):
            low = float(mpmath.pi / 2 - mpmath.mpf(np.pi / 2))
        assert low == HALF_PI_LO

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9, 0.999, 1.2, 1.5, 1.9, 1.99])
    def test_against_mpmath(self, alpha):
        r, w = _transform_grid()
        u = _angles(r)
        exact = np.array([float(_cms_mpmath(alpha, a, b)) for a, b in zip(u, w)])
        sin_cos = (np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)) * (
            np.cos((1.0 - alpha) * u) / w
        ) ** ((1.0 - alpha) / alpha)
        tan = r.copy()
        _chambers_mallows_stuck([alpha], tan, w, [tan])
        worst_tan = np.max(np.abs(tan / exact - 1.0))
        worst_sin_cos = np.max(np.abs(sin_cos / exact - 1.0))
        assert worst_tan <= 2.0 * worst_sin_cos
        assert worst_tan <= 5e-14

    def test_pieces_equal_one_pass(self):
        """Past BLOCK_INCREMENTS draws the transform runs in pieces, bit for
        bit, for one alpha and for several."""
        gen = np.random.default_rng(4)
        r = gen.random((3, BLOCK_INCREMENTS - 5))
        w = gen.standard_exponential(r.shape)
        for alphas in ([1.5], [0.7, 1.0, 1.5]):
            whole = [np.empty(r.shape) for _ in alphas]
            _chambers_mallows_stuck(alphas, r.copy(), w, whole)
            for i, (row_r, row_w) in enumerate(zip(r, w)):
                alone = [np.empty(row_r.shape) for _ in alphas]
                _chambers_mallows_stuck(alphas, row_r.copy(), row_w, alone)
                for one, all_rows in zip(alone, whole):
                    np.testing.assert_array_equal(one, all_rows[i])

    @pytest.mark.parametrize("alphas", [[1.2, 1.0, 0.5, 1.9], [1.9, 1.5, 1.0]])
    def test_several_alphas_equal_one_alpha_each(self, alphas):
        """One set of uniforms and exponentials for several alpha, alpha 1
        among them, over three pieces: each alpha's draws are those that
        sample_stable_increment makes of the same stream, bit for bit."""
        shape, delta = (3, BLOCK_INCREMENTS - 5), 1.0 / 700
        draws = _stable_blocks(alphas, delta, np.random.default_rng(6), shape)
        assert len(draws) == len(alphas)
        for alpha, got in zip(alphas, draws):
            gen = np.random.default_rng(6)
            want = sample_stable_increment(alpha, delta, gen, shape)
            np.testing.assert_array_equal(got, want)


class TestStableIncrement:
    def test_self_similar_scaling(self):
        """An increment over delta has the law of delta^(1/alpha) times a unit increment."""
        alpha = 1.5
        a = sample_stable_increment(alpha, 0.25, np.random.default_rng(5), 200_000)
        b = sample_stable_increment(alpha, 1.0, np.random.default_rng(5), 200_000)
        np.testing.assert_allclose(a, 0.25 ** (1 / alpha) * b)

    @pytest.mark.parametrize("delta", [0.0, -0.1, np.nan])
    def test_rejects_nonpositive_delta(self, delta):
        with pytest.raises(ParameterError, match="delta must be positive"):
            sample_stable_increment(1.2, delta, np.random.default_rng(0), 10)

    def test_seed_or_generator(self):
        """A seed gives the draws of default_rng(seed); a Generator is used as is."""
        gen = np.random.default_rng(5)
        a = sample_stable_increment(0.9, 0.1, gen, 50)
        b = sample_stable_increment(0.9, 0.1, gen, 50)
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(a, sample_stable_increment(0.9, 0.1, 5, 50))

    def test_levy_measure_normalized_cf(self):
        """Increments use the normalization exp(-sigma_alpha * delta * |t|^alpha)."""
        alpha, delta = 0.8, 0.1
        rng = np.random.default_rng(9)
        x = sample_stable_increment(alpha, delta, rng, 400_000)
        for t in (0.5, 1.5):
            emp = np.mean(np.cos(t * x))
            target = np.exp(-stable_scale(alpha) * delta * abs(t) ** alpha)
            assert emp == pytest.approx(target, abs=0.01)


class TestTemperedSampler:
    def test_tail_intensity_matches_quadrature(self):
        # 2 * int_eps^inf exp(-z) z^(-1-alpha) dz at alpha=0.5, eps=0.01,
        # frozen from an independent adaptive quadrature
        assert SMALL_JUMP_CUTOFF == 0.01
        assert tempered_tail_intensity(0.5) == pytest.approx(
            33.309519, rel=1e-5
        )

    def test_small_jump_variance_matches_quadrature(self):
        # 2 * int_0^eps z^(1-alpha) exp(-z) dz at alpha=0.5, eps=0.01
        assert tempered_small_jump_variance(0.5) == pytest.approx(
            1.3253618e-3, rel=1e-4
        )

    def test_empirical_cf(self):
        """CF of the tempered increment: exp(delta * 2*int_0^inf (cos(tz)-1) e^-z z^-1-a dz).

        The whole increment at sigma = 0, gamma = 1, delta = 1/2: the jumps
        above the cutoff and the Gaussian standing in for those below it.
        """
        from scipy import integrate

        alpha, delta = 0.9, 0.5
        model = ModelSpec(sigma=0.0, gamma=1.0, jump_law=JumpLaw("tempered", alpha))
        x = simulate_increments(model, 2, 150_000, 21).reshape(-1)
        for t in (1.0, 3.0):
            ex, _ = integrate.quad(
                lambda z: (np.cos(t * z) - 1.0) * np.exp(-z) * z ** (-1 - alpha),
                0.0,
                np.inf,
                limit=200,
            )
            assert np.mean(np.cos(t * x)) == pytest.approx(
                np.exp(2 * delta * ex), abs=0.01
            )

    def test_all_moments_finite_proxy(self):
        rng = np.random.default_rng(4)
        x = _tempered_block(1.5, 0.01, rng, 50_000)
        assert np.isfinite(np.mean(x**4))

    def test_dispatch(self):
        def gen():
            return np.random.default_rng(1)

        def jumps(kind):
            model = ModelSpec(gamma=1.0, jump_law=JumpLaw(kind, 1.1))
            (got,) = draw_jumps([model], [gen()], (2, 10))
            return got

        b = sample_stable_increment(1.1, 0.1, gen(), (2, 10))
        np.testing.assert_array_equal(jumps("stable"), b)
        a = _tempered_block(1.1, 0.1, gen(), (2, 10))
        np.testing.assert_array_equal(jumps("tempered"), a)

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ParameterError, match="delta must be positive"):
            _tempered_block(0.9, 0.0, np.random.default_rng(0), 10)


class TestJumpLawValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ParameterError):
            JumpLaw("gamma", 1.0)

    def test_rejects_alpha_out_of_range(self):
        with pytest.raises(ParameterError):
            JumpLaw("stable", 2.0)
        with pytest.raises(ParameterError):
            JumpLaw("stable", -0.1)


class TestModelSpec:
    def test_rejects_negative_sigma(self):
        with pytest.raises(ParameterError):
            ModelSpec(sigma=-1.0)

    def test_jumps_require_law(self):
        with pytest.raises(ParameterError):
            ModelSpec(gamma=1.0)


class TestSimulatePath:
    def test_shape_and_start(self):
        model = ModelSpec(sigma=1.0)
        path = simulate_path(model, 50, 0)
        assert path.shape == (50,) and path.dtype == float

    def test_deterministic(self):
        model = ModelSpec(sigma=0.5, gamma=1.0, jump_law=JumpLaw("stable", 1.3))
        a = simulate_path(model, 200, 99)
        b = simulate_path(model, 200, 99)
        np.testing.assert_array_equal(a, b)

    def test_seed_sensitivity(self):
        model = ModelSpec(sigma=1.0)
        a = simulate_path(model, 100, 1)
        b = simulate_path(model, 100, 2)
        assert not np.array_equal(a, b)

    def test_drift_only(self):
        model = ModelSpec(drift=2.0, sigma=0.0)
        path = simulate_path(model, 10, 0)
        ends = np.cumsum(path)
        np.testing.assert_allclose(ends, 2.0 * np.linspace(0, 1, 11)[1:])

    def test_brownian_terminal_variance(self):
        model = ModelSpec(sigma=1.5)
        ends = [simulate_path(model, 64, s).sum() for s in range(3000)]
        assert np.var(ends) == pytest.approx(1.5**2, rel=0.1)

    def test_rejects_tiny_n(self):
        with pytest.raises(ParameterError):
            simulate_path(ModelSpec(), 1, 0)

    def test_seed_sequence_accepted(self):
        model = ModelSpec(sigma=1.0)
        ss = np.random.SeedSequence((42, 0, 0))
        a = simulate_path(model, 20, ss)
        b = simulate_path(model, 20, np.random.SeedSequence((42, 0, 0)))
        np.testing.assert_array_equal(a, b)


def mapped_parts(model, n, key, count):
    """The (base, J) parts of the blocks of one `harness.replicate_map` group
    of `count` paths, cut from the rows it returns in replicate order: base
    is b delta + s sqrt(delta) Z, the increments `form_increments` makes of
    the block's Z alone, and J is None for a model without jumps."""

    def both(parts, shape):
        ((normals, jumps),) = parts
        base = form_increments(model, (normals, np.zeros(shape)), shape)
        return np.stack((base, base if jumps is None else jumps), axis=1)

    [(rows, _, _)], _ = replicate_map(both, [(model, n, key)], count)
    step = block_rows(n)
    blocks = [rows[lo : lo + step] for lo in range(0, count, step)]
    return [(b[:, 0], b[:, 1] if model.gamma != 0.0 else None) for b in blocks]


class TestSimulateIncrements:
    @pytest.mark.parametrize("kind", ["stable", "tempered"])
    def test_rows_equal_single_paths(self, kind):
        """A single path is the one-row block of its stream, written out."""
        model = ModelSpec(
            drift=0.3, sigma=0.5, gamma=2.0, jump_law=JumpLaw(kind, alpha=1.1)
        )
        for r in range(5):
            seed = np.random.SeedSequence((3, 1, r))
            ref = reference_block(model, 40, 1, np.random.default_rng(seed))
            np.testing.assert_array_equal(simulate_path(model, 40, seed), ref[0])

    def test_replicate_blocks(self):
        """Block b's parts are drawn whole from stream (*key, b), the last
        block shorter, and its increments are base + gamma J."""
        model = ModelSpec(sigma=1.0, gamma=2.0, jump_law=JumpLaw("stable", alpha=1.5))
        n, key = 1000, (7, 2)
        step = block_rows(n)
        count = 2 * step + 5
        blocks = mapped_parts(model, n, key, count)
        assert [len(base) for base, _ in blocks] == [step, step, 5]
        for b, (base, jumps) in enumerate(blocks):
            stream = (*key, b)
            normals, want_jumps = simulate_parts(model, n, len(base), stream)
            np.testing.assert_array_equal(base, np.sqrt(1.0 / n) * normals)
            np.testing.assert_array_equal(jumps, want_jumps)
            np.testing.assert_array_equal(
                base + 2.0 * jumps, simulate_increments(model, n, len(base), stream)
            )

    def test_parts_of_a_model_without_jumps(self):
        """J is not drawn at gamma = 0, and the increments are sigma sqrt(delta) Z."""
        model = ModelSpec(sigma=1.0, gamma=0.0, jump_law=JumpLaw("tempered", alpha=1.5))
        normals, jumps = simulate_parts(model, 50, 3, (1, 2))
        assert jumps is None
        np.testing.assert_array_equal(
            simulate_increments(model, 50, 3, (1, 2)), np.sqrt(1.0 / 50) * normals
        )

    def test_parts_of_a_model_without_gaussian(self):
        """Z is not drawn at Gaussian scale 0: sigma = 0 and stable jumps, or
        no jumps either, when the increments are the drift alone."""
        stable = ModelSpec(sigma=0.0, gamma=2.0, jump_law=JumpLaw("stable", alpha=1.5))
        normals, jumps = simulate_parts(stable, 50, 3, (1, 2))
        assert normals is None
        np.testing.assert_array_equal(
            simulate_increments(stable, 50, 3, (1, 2)), 2.0 * jumps
        )
        drift = ModelSpec(drift=2.0, sigma=0.0)
        assert simulate_parts(drift, 50, 3, (1, 2)) == (None, None)
        want = np.full((3, 50), 2.0 * (1.0 / 50))
        np.testing.assert_array_equal(simulate_increments(drift, 50, 3, (1, 2)), want)

    def test_zero_gamma_takes_the_base_whatever_the_jumps(self):
        """0 * inf is NaN, so gamma = 0 must not scale the jumps at all."""
        normals = np.arange(8.0).reshape(2, 4)
        jumps = np.full((2, 4), np.inf)
        law = JumpLaw("tempered", 0.9)
        zero = ModelSpec(sigma=2.0, gamma=0.0, jump_law=law)  # 2 sqrt(1/4) = 1
        for parts in ((normals, jumps), (normals, None)):
            np.testing.assert_array_equal(form_increments(zero, parts, (2, 4)), normals)
        minus = ModelSpec(sigma=2.0, gamma=-1.0, jump_law=JumpLaw("stable", 0.9))
        np.testing.assert_array_equal(
            form_increments(minus, (normals, jumps), (2, 4)), -jumps
        )

    def test_one_gaussian_of_both_variances(self):
        """A tempered model's Gaussian scale is hypot(sigma, gamma sqrt(v)), and
        a stable model's sigma exactly."""
        v = tempered_small_jump_variance(0.9)
        tempered = ModelSpec(sigma=0.7, gamma=-3.0, jump_law=JumpLaw("tempered", 0.9))
        assert tempered.gaussian_scale == pytest.approx(sqrt(0.49 + 9.0 * v), rel=1e-15)
        for sigma in (0.0, 0.7, 1e-300, 1e300):
            stable = ModelSpec(sigma=sigma, gamma=3.0, jump_law=JumpLaw("stable", 0.9))
            assert stable.gaussian_scale == sigma

    def test_block_rows(self):
        assert block_rows(700) * 700 <= BLOCK_INCREMENTS < (block_rows(700) + 1) * 700
        assert block_rows(10 * BLOCK_INCREMENTS) == 1


def reference_stable_jumps(gen, alpha, delta, n):
    """Chambers-Mallows-Stuck, written out: uniforms, then exponentials.

    Each sine and cosine is taken from the tangent of half its angle, as
    the sampler computes them.
    """
    u = gen.uniform(-np.pi / 2, np.pi / 2, n)
    w = gen.exponential(1.0, n)
    if alpha == 1.0:
        x = np.tan(u)
    else:
        s = np.tan(((np.pi / 2 - np.abs(u)) + HALF_PI_LO) * 0.5)
        cos_u = (2.0 * s) / (s * s + 1.0)
        a = np.tan(u * (alpha / 2))
        sin_au = (2.0 * a) / (a * a + 1.0)
        b = np.tan(u * ((1.0 - alpha) / 2))
        cos_bu = ((1.0 - b) * (b + 1.0)) / (b * b + 1.0)
        x = (sin_au / cos_u ** (1.0 / alpha)) * (cos_bu / w) ** ((1.0 - alpha) / alpha)
    return (stable_scale(alpha) * delta) ** (1.0 / alpha) * x


def reference_tempered_jumps(gen, alpha, delta, n):
    """Compound Poisson above the cutoff over n entries, written out.

    The total count of all n entries; if there is a jump, a uniform entry
    for each; rejection rounds of Pareto candidates, each drawn before its
    acceptance uniforms; one sign per jump.  Returns the jumps and each
    entry's count.
    """
    total = gen.poisson(tempered_tail_intensity(alpha) * delta * n)
    out, counts = np.zeros(n), np.zeros(n, dtype=int)
    if total:
        where = gen.integers(0, n, total)
        sizes = []
        while len(sizes) < total:
            m = min(2 * (total - len(sizes)) + 16, 4_000_000)
            cand = SMALL_JUMP_CUTOFF * gen.uniform(size=m) ** (-1.0 / alpha)
            keep = gen.uniform(size=m) < np.exp(-cand)
            sizes.extend(cand[keep][: total - len(sizes)])
        signs = 2.0 * gen.integers(0, 2, size=total) - 1.0
        for i, jump in zip(where, signs * np.array(sizes)):
            out[i] += jump
            counts[i] += 1
    return out, counts


def reference_scale(model):
    """sigma, or for tempered jumps hypot(sigma, gamma sqrt(v)): the Brownian
    part and the Gaussian standing in for the jumps below the cutoff."""
    law = model.jump_law
    if law is None or law.kind == "stable":
        return model.sigma
    v = tempered_small_jump_variance(law.alpha)
    return hypot(model.sigma, model.gamma * sqrt(v))


def reference_parts(model, n, rows, gen):
    """The (base, J) parts of a block of `rows` paths of n increments, written
    out: base b delta + s sqrt(delta) Z, s = `reference_scale`, with the
    normals of every row drawn when s > 0, then the jump draws of every
    row, in row-major order; J is None at gamma = 0."""
    delta, size = 1.0 / n, rows * n
    base = np.full(size, model.drift * delta)
    if reference_scale(model) > 0:
        base += reference_scale(model) * np.sqrt(delta) * gen.standard_normal(size)
    if model.gamma == 0.0:
        return base.reshape(rows, n), None
    law = model.jump_law
    if law.kind == "stable":
        jumps = reference_stable_jumps(gen, law.alpha, delta, size)
    else:
        jumps, _ = reference_tempered_jumps(gen, law.alpha, delta, size)
    return base.reshape(rows, n), jumps.reshape(rows, n)


def reference_block(model, n, rows, gen):
    """The increments base + gamma J of `reference_parts`."""
    base, jumps = reference_parts(model, n, rows, gen)
    return base if jumps is None else base + model.gamma * jumps


class TestBlockAgainstWrittenOutDraws:
    """Every block equals its draws written out, taken in order from its stream."""

    MODELS = {
        "stable-1.0": ModelSpec(
            drift=0.3, sigma=0.5, gamma=2.0, jump_law=JumpLaw("stable", 1.0)
        ),
        "stable-1.5": ModelSpec(sigma=1.0, gamma=1.0, jump_law=JumpLaw("stable", 1.5)),
        "tempered-0.1": ModelSpec(
            sigma=1.0, gamma=3.0, jump_law=JumpLaw("tempered", 0.1)
        ),
        "tempered-0.9": ModelSpec(
            drift=-1.0, sigma=1.0, gamma=3.0, jump_law=JumpLaw("tempered", 0.9)
        ),
        "sigma-0": ModelSpec(sigma=0.0, gamma=1.0, jump_law=JumpLaw("stable", 1.5)),
        "gamma-0": ModelSpec(sigma=2.0, gamma=0.0, jump_law=JumpLaw("tempered", 0.9)),
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_replicate_blocks(self, name):
        """Each block's base and J are its written-out draws from (*key, b)."""
        model, n, key = self.MODELS[name], 1000, (11, 4)
        step = block_rows(n)
        blocks = mapped_parts(model, n, key, step + 3)
        assert [len(base) for base, _ in blocks] == [step, 3]
        for b, (base, jumps) in enumerate(blocks):
            gen = np.random.default_rng((*key, b))
            ref_base, ref_jumps = reference_parts(model, n, len(base), gen)
            np.testing.assert_array_equal(base, ref_base)
            np.testing.assert_array_equal(jumps, ref_jumps)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_simulate_increments_leaves_each_stream_where_the_draws_end(self, name):
        model, n = self.MODELS[name], 50
        for seed in range(4):
            gen, ref_gen = np.random.default_rng(seed), np.random.default_rng(seed)
            block = simulate_increments(model, n, 3, gen)
            np.testing.assert_array_equal(block, reference_block(model, n, 3, ref_gen))
            assert gen.bit_generator.state == ref_gen.bit_generator.state

    @pytest.mark.parametrize("alpha", [0.1, 0.9])
    def test_tempered_rows_with_none_one_or_several_jumps(self, alpha):
        """About one jump per row: the block mixes rows of 0, 1 and several jumps."""
        size, rows = 5, 40
        delta = 1.0 / (tempered_tail_intensity(alpha) * size)
        block = _tempered_block(alpha, delta, np.random.default_rng(0), (rows, size))
        ref, counts = reference_tempered_jumps(
            np.random.default_rng(0), alpha, delta, rows * size
        )
        np.testing.assert_array_equal(block, ref.reshape(rows, size))
        counts = counts.reshape(rows, size)
        assert {0, 1, 3} <= set(counts.sum(axis=1).tolist())
        assert counts.max() >= 2

    def test_tempered_counts_are_poisson(self):
        """Positions uniform over the entries of a Poisson total make each
        entry's count Poisson(lambda delta): P(0), P(1), P(>= 2) and the
        variance/mean ratio lie within 4 standard errors over 2e5 entries."""
        alpha, size, mu = 0.9, 200_000, 0.2
        delta = mu / tempered_tail_intensity(alpha)
        block = _tempered_block(alpha, delta, np.random.default_rng(8), size)
        ref, counts = reference_tempered_jumps(
            np.random.default_rng(8), alpha, delta, size
        )
        np.testing.assert_array_equal(block, ref)
        np.testing.assert_array_equal(block != 0.0, counts > 0)
        p0, p1 = exp(-mu), mu * exp(-mu)
        laws = ((counts == 0, p0), (counts == 1, p1), (counts >= 2, 1 - p0 - p1))
        for seen, p in laws:
            assert abs(seen.mean() - p) <= 4 * sqrt(p * (1 - p) / size)
        assert abs(counts.var() / counts.mean() - 1.0) <= 4 * sqrt(2.0 / size)


class TestSharedStableDraw:
    """The stable laws of a block share one set of uniforms and
    exponentials, from the first stable law's stream."""

    def test_each_stable_law_from_the_first_ones_stream(self):
        law = lambda kind, alpha, gamma=1.0: ModelSpec(
            sigma=1.0, gamma=gamma, jump_law=JumpLaw(kind, alpha)
        )
        models = [
            law("tempered", 0.9),
            law("stable", 1.2),
            law("stable", 0.5, gamma=0.0),
            law("tempered", 0.5),
            law("stable", 1.0),
            law("stable", 1.9),
        ]
        keys = [(3, g, 1) for g in range(len(models))]
        n, shape = 40, (5, 40)
        streams = block_streams(n, keys, models)
        assert [gen is None for gen in streams] == [False] * 4 + [True] * 2
        jumps = list(draw_jumps(models, streams, shape))
        rng = np.random.default_rng
        for g in (0, 3):
            alpha = models[g].jump_law.alpha
            want = _tempered_block(alpha, 1.0 / n, rng(keys[g]), shape)
            np.testing.assert_array_equal(jumps[g], want)
        assert jumps[2] is None
        for g in (1, 4, 5):
            alpha = models[g].jump_law.alpha
            want = sample_stable_increment(alpha, 1.0 / n, rng(keys[1]), shape)
            np.testing.assert_array_equal(jumps[g], want)


class TestStreamStates:
    """A block's stream is keyed by non-negative integers."""

    def test_rejects_negative_key(self, monkeypatch):
        """Also the key of a group that shares the first group's n, before
        the block draws anything, though the first group's key is valid and
        that group, a second stable law, makes no generator of its own."""
        from jumpvol import harness, levy, workers

        with pytest.raises(ParameterError, match="non-negative"):
            replicate_map(lambda parts, _: parts[0][0], [(ModelSpec(), 10, (-1, 0))], 2)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)  # spy in-process
        draws, made = [], []
        for name in ("draw_normals", "draw_jumps"):
            real = getattr(harness, name)
            spy = lambda *args, name=name, real=real: draws.append(name) or real(*args)
            monkeypatch.setattr(harness, name, spy)
        real_rng = levy.default_rng
        spy_rng = lambda key: made.append(key) or real_rng(key)
        monkeypatch.setattr(levy, "default_rng", spy_rng)
        stable = JumpLaw("stable", 1.5), JumpLaw("stable", 1.2)
        law = lambda i: ModelSpec(sigma=1.0, gamma=1.0, jump_law=stable[i])
        fn = lambda parts, _: parts[0][0]
        replicate_map(fn, [(law(0), 10, (0, 0)), (law(1), 10, (0, 1))], 2)
        assert draws == ["draw_normals", "draw_jumps"]
        assert made == [(0, 0, 0)]
        draws.clear()
        made.clear()
        with pytest.raises(ParameterError, match="non-negative"):
            replicate_map(fn, [(law(0), 10, (0, 0)), (law(1), 10, (0, -1))], 2)
        assert draws == [] and made == []

    @pytest.mark.parametrize("seed", [-1, np.int64(-1), (3, -2), (-5,)])
    def test_rejects_negative_seed(self, seed):
        """simulate_increments refuses it for an integer or a key tuple."""
        with pytest.raises(ParameterError, match="non-negative"):
            simulate_increments(ModelSpec(), 10, 2, seed)
        with pytest.raises(ParameterError, match="non-negative"):
            simulate_path(ModelSpec(), 10, seed)

    def test_accepts_seeds_beyond_int64(self):
        assert simulate_increments(ModelSpec(), 10, 2, (2**70, 1)).shape == (2, 10)
        assert simulate_path(ModelSpec(), 10, 2**70).shape == (10,)
