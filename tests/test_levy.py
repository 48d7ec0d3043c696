"""Tests for path simulation and the stable / tempered-stable samplers."""

import mpmath
import numpy as np
import pytest

from jumpvol import JumpLaw, ModelSpec, ParameterError, simulate_path
from jumpvol.harness import replicate_map
from jumpvol.levy import (
    BLOCK_INCREMENTS,
    SMALL_JUMP_CUTOFF,
    _chambers_mallows_stuck,
    _jump_block,
    _tempered_block,
    block_rows,
    sample_stable_increment,
    simulate_increments,
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
    """About 400 u on [-pi/2, pi/2] without 0, crowded towards the ends."""
    half_pi = np.pi / 2
    ends = half_pi - 10.0 ** -np.arange(1, 11)
    special = [half_pi, np.nextafter(half_pi, 0.0), np.pi / 4, 1e-12]
    side = np.concatenate((ends, special))
    u = np.concatenate((np.linspace(-half_pi, half_pi, 376), side, -side))
    w = np.random.default_rng(0).standard_exponential(u.size)
    return u, w


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
        u, w = _transform_grid()
        exact = np.array([float(_cms_mpmath(alpha, a, b)) for a, b in zip(u, w)])
        sin_cos = (np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)) * (
            np.cos((1.0 - alpha) * u) / w
        ) ** ((1.0 - alpha) / alpha)
        tan = u.copy()
        _chambers_mallows_stuck(alpha, tan, w)
        worst_tan = np.max(np.abs(tan / exact - 1.0))
        worst_sin_cos = np.max(np.abs(sin_cos / exact - 1.0))
        assert worst_tan <= 2.0 * worst_sin_cos
        assert worst_tan <= 5e-14

    def test_pieces_equal_one_pass(self):
        """Past BLOCK_INCREMENTS draws the transform runs in pieces, bit for bit."""
        gen = np.random.default_rng(4)
        u = gen.uniform(-np.pi / 2, np.pi / 2, (3, BLOCK_INCREMENTS - 5))
        w = gen.standard_exponential(u.shape)
        whole = u.copy()
        _chambers_mallows_stuck(1.5, whole, w)
        for row_u, row_w, row in zip(u, w, whole):
            alone = row_u.copy()
            _chambers_mallows_stuck(1.5, alone, row_w)
            np.testing.assert_array_equal(alone, row)


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
        """CF of the tempered increment: exp(delta * 2*int_0^inf (cos(tz)-1) e^-z z^-1-a dz)."""
        from scipy import integrate

        alpha, delta = 0.9, 0.5
        rng = np.random.default_rng(21)
        x = _tempered_block(alpha, delta, rng, 300_000)
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

        a = _jump_block(JumpLaw("stable", 1.1), 0.1, gen(), (2, 100))
        b = sample_stable_increment(1.1, 0.1, gen(), (2, 100))
        np.testing.assert_array_equal(a, b)
        a = _jump_block(JumpLaw("tempered", 1.1), 0.1, gen(), (2, 100))
        np.testing.assert_array_equal(a, _tempered_block(1.1, 0.1, gen(), (2, 100)))

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


def mapped_blocks(model, n, key, count):
    """The blocks of one `harness.replicate_map` group of `count` paths, cut
    from the rows it returns in replicate order."""
    [(rows, _, _)], _ = replicate_map([(lambda block: block, model, n, key)], count)
    step = block_rows(n)
    return [rows[lo : lo + step] for lo in range(0, count, step)]


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
        """Block b is drawn whole from stream (*key, b); the last is shorter."""
        model = ModelSpec(sigma=1.0, gamma=1.0, jump_law=JumpLaw("stable", alpha=1.5))
        n, key = 1000, (7, 2)
        step = block_rows(n)
        count = 2 * step + 5
        blocks = mapped_blocks(model, n, key, count)
        assert [len(block) for block in blocks] == [step, step, 5]
        for b, block in enumerate(blocks):
            expected = simulate_increments(model, n, len(block), (*key, b))
            np.testing.assert_array_equal(block, expected)

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
    """Compound Poisson above the cutoff plus a Gaussian below it, written out.

    Poisson counts; rejection rounds of Pareto candidates, each drawn before
    its acceptance uniforms; one sign per jump; then the small-jump normals.
    """
    counts = gen.poisson(tempered_tail_intensity(alpha) * delta, n)
    total = int(counts.sum())
    out = np.zeros(n)
    if total:
        sizes = []
        while len(sizes) < total:
            m = min(2 * (total - len(sizes)) + 16, 4_000_000)
            cand = SMALL_JUMP_CUTOFF * gen.uniform(size=m) ** (-1.0 / alpha)
            keep = gen.uniform(size=m) < np.exp(-cand)
            sizes.extend(cand[keep][: total - len(sizes)])
        signs = 2.0 * gen.integers(0, 2, size=total) - 1.0
        for i, jump in zip(np.repeat(np.arange(n), counts), signs * np.array(sizes)):
            out[i] += jump
    small = gen.standard_normal(n)
    return out + np.sqrt(tempered_small_jump_variance(alpha) * delta) * small, counts


def reference_block(model, n, rows, gen):
    """A block of `rows` paths of n increments, written out: the normals of
    every row, then the jump draws of every row, in row-major order."""
    delta, size = 1.0 / n, rows * n
    block = np.full(size, model.drift * delta)
    if model.sigma > 0:
        block += model.sigma * np.sqrt(delta) * gen.standard_normal(size)
    if model.gamma != 0.0:
        law = model.jump_law
        if law.kind == "stable":
            jumps = reference_stable_jumps(gen, law.alpha, delta, size)
        else:
            jumps, _ = reference_tempered_jumps(gen, law.alpha, delta, size)
        block += model.gamma * jumps
    return block.reshape(rows, n)


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
        model, n, key = self.MODELS[name], 1000, (11, 4)
        step = block_rows(n)
        blocks = mapped_blocks(model, n, key, step + 3)
        assert [len(block) for block in blocks] == [step, 3]
        for b, block in enumerate(blocks):
            ref = reference_block(model, n, len(block), np.random.default_rng((*key, b)))
            np.testing.assert_array_equal(block, ref)

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


class TestStreamStates:
    """A block's stream is keyed by non-negative integers."""

    def test_rejects_negative_key(self):
        with pytest.raises(ParameterError, match="non-negative"):
            replicate_map([(lambda block: block, ModelSpec(), 10, (-1, 0))], 2)

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
