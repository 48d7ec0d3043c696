"""Tests for path simulation and the stable / tempered-stable samplers."""

import mpmath
import numpy as np
import pytest

from jumpvol import JumpLaw, ModelSpec, ParameterError, PathSample, simulate_path
from jumpvol.levy import (
    BLOCK_INCREMENTS,
    SMALL_JUMP_CUTOFF,
    _chambers_mallows_stuck,
    _tempered_block,
    block_rows,
    replicate_blocks,
    sample_jump_increment,
    sample_stable_increment,
    sample_standard_stable,
    sample_tempered_increment,
    simulate_increments,
    stable_scale,
    stream_generator,
    stream_states,
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


class TestStandardStableSampler:
    """The sampler targets the characteristic function exp(-|t|^alpha)."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.3, 1.7, 2.0])
    def test_empirical_cf(self, alpha):
        rng = np.random.default_rng(2024)
        x = sample_standard_stable(alpha, rng, 200_000)
        for t in (0.3, 1.0, 2.5):
            emp = np.mean(np.cos(t * x))
            assert emp == pytest.approx(np.exp(-abs(t) ** alpha), abs=0.01)

    def test_alpha_two_is_gaussian(self):
        rng = np.random.default_rng(7)
        x = sample_standard_stable(2.0, rng, 100_000)
        # exp(-t^2) is the CF of N(0, 2)
        assert np.var(x) == pytest.approx(2.0, rel=0.02)

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

    def test_zero_delta(self):
        out = sample_stable_increment(1.2, 0.0, np.random.default_rng(0), 10)
        np.testing.assert_array_equal(out, np.zeros(10))

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
        x = sample_tempered_increment(alpha, delta, rng, 300_000)
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
        x = sample_tempered_increment(1.5, 0.01, rng, 50_000)
        assert np.isfinite(np.mean(x**4))

    def test_dispatch(self):
        law = JumpLaw("stable", 1.1)
        a = sample_jump_increment(law, 0.1, np.random.default_rng(1), 100)
        b = sample_stable_increment(1.1, 0.1, np.random.default_rng(1), 100)
        np.testing.assert_array_equal(a, b)
        law = JumpLaw("tempered", 1.1)
        a = sample_jump_increment(law, 0.1, np.random.default_rng(1), 100)
        b = sample_tempered_increment(1.1, 0.1, np.random.default_rng(1), 100)
        np.testing.assert_array_equal(a, b)

    def test_seed_or_generator(self):
        """A seed gives the draws of default_rng(seed); a Generator is used as is."""
        gen = np.random.default_rng(5)
        a = sample_tempered_increment(0.9, 0.1, gen, 50)
        b = sample_tempered_increment(0.9, 0.1, gen, 50)
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(a, sample_tempered_increment(0.9, 0.1, 5, 50))


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
        assert path.observations.shape == (51,)
        assert path.observations[0] == 0.0
        assert path.delta == pytest.approx(1 / 50)
        assert len(path.increments) == 50

    def test_deterministic(self):
        model = ModelSpec(sigma=0.5, gamma=1.0, jump_law=JumpLaw("stable", 1.3))
        a = simulate_path(model, 200, 99)
        b = simulate_path(model, 200, 99)
        np.testing.assert_array_equal(a.observations, b.observations)

    def test_seed_sensitivity(self):
        model = ModelSpec(sigma=1.0)
        a = simulate_path(model, 100, 1)
        b = simulate_path(model, 100, 2)
        assert not np.array_equal(a.observations, b.observations)

    def test_drift_only(self):
        model = ModelSpec(drift=2.0, sigma=0.0)
        path = simulate_path(model, 10, 0)
        np.testing.assert_allclose(path.observations, 2.0 * np.linspace(0, 1, 11))

    def test_brownian_terminal_variance(self):
        model = ModelSpec(sigma=1.5)
        ends = [simulate_path(model, 64, s).observations[-1] for s in range(3000)]
        assert np.var(ends) == pytest.approx(1.5**2, rel=0.1)

    def test_rejects_tiny_n(self):
        with pytest.raises(ParameterError):
            simulate_path(ModelSpec(), 1, 0)

    def test_seed_sequence_accepted(self):
        model = ModelSpec(sigma=1.0)
        ss = np.random.SeedSequence((42, 0, 0))
        a = simulate_path(model, 20, ss)
        b = simulate_path(model, 20, np.random.SeedSequence((42, 0, 0)))
        np.testing.assert_array_equal(a.observations, b.observations)


class TestPathSample:
    def test_rejects_wrong_length(self):
        with pytest.raises(ParameterError):
            PathSample(np.zeros((2, 2)))
        with pytest.raises(ParameterError):
            PathSample(np.zeros(2), observations=np.zeros(2))

    def test_increments(self):
        p = PathSample.from_observations(np.array([0.0, 1.0, 1.0]))
        np.testing.assert_array_equal(p.increments, [1.0, 0.0])
        assert p.n == 2 and p.delta == 0.5

    def test_observations_derived_from_increments(self):
        p = PathSample(np.array([1e20, 1.0, -1e20]))
        np.testing.assert_array_equal(p.observations, [0.0, 1e20, 1e20, 0.0])
        np.testing.assert_array_equal(p.increments, [1e20, 1.0, -1e20])

    def test_compare_and_hash_by_identity(self):
        p, q = PathSample(np.zeros(2)), PathSample(np.zeros(2))
        assert p == p and p != q
        assert hash(p) == hash(p)
        assert len({p, q}) == 2


class TestSimulateIncrements:
    @pytest.mark.parametrize("kind", ["stable", "tempered"])
    def test_rows_equal_single_paths(self, kind):
        model = ModelSpec(
            drift=0.3, sigma=0.5, gamma=2.0, jump_law=JumpLaw(kind, alpha=1.1)
        )
        seeds = [np.random.SeedSequence((3, 1, r)) for r in range(5)]
        block = simulate_increments(model, 40, seeds)
        assert block.shape == (5, 40)
        for row, seed in zip(block, seeds):
            np.testing.assert_array_equal(
                row, simulate_path(model, 40, seed).increments
            )

    def test_replicate_blocks(self):
        """Row r of the blocks is the path of stream (*key, r), whatever its block."""
        model = ModelSpec(sigma=1.0, gamma=1.0, jump_law=JumpLaw("stable", alpha=1.5))
        n, key = 1000, (7, 2)
        count = 2 * block_rows(n) + 5
        blocks = list(replicate_blocks(model, n, key, count))
        assert [lo for lo, _ in blocks] == [0, block_rows(n), 2 * block_rows(n)]
        rows = np.concatenate([block for _, block in blocks])
        assert rows.shape == (count, n)
        for r, row in enumerate(rows):
            path = simulate_path(model, n, np.random.SeedSequence((*key, r)))
            np.testing.assert_array_equal(row, path.increments)

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


def reference_row(model, n, gen):
    delta = 1.0 / n
    row = np.full(n, model.drift * delta)
    if model.sigma > 0:
        row += model.sigma * np.sqrt(delta) * gen.standard_normal(n)
    if model.gamma != 0.0:
        law = model.jump_law
        if law.kind == "stable":
            jumps = reference_stable_jumps(gen, law.alpha, delta, n)
        else:
            jumps, _ = reference_tempered_jumps(gen, law.alpha, delta, n)
        row += model.gamma * jumps
    return row


class TestBlockAgainstWrittenOutDraws:
    """Every block row equals that row's draws taken one by one from its stream."""

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
        count = block_rows(n) + 3
        rows = np.concatenate([b for _, b in replicate_blocks(model, n, key, count)])
        for r, row in enumerate(rows):
            gen = np.random.default_rng(np.random.SeedSequence((*key, r)))
            np.testing.assert_array_equal(row, reference_row(model, n, gen))

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_simulate_increments_leaves_each_stream_where_the_draws_end(self, name):
        model, n = self.MODELS[name], 50
        gens = [np.random.default_rng(s) for s in range(4)]
        block = simulate_increments(model, n, gens)
        for seed, gen, row in zip(range(4), gens, block):
            ref_gen = np.random.default_rng(seed)
            np.testing.assert_array_equal(row, reference_row(model, n, ref_gen))
            assert gen.bit_generator.state == ref_gen.bit_generator.state

    @pytest.mark.parametrize("alpha", [0.1, 0.9])
    def test_tempered_rows_with_none_one_or_several_jumps(self, alpha):
        """About one jump per row: the block mixes rows of 0, 1 and several jumps."""
        size, rows = 5, 40
        delta = 1.0 / (tempered_tail_intensity(alpha) * size)
        block = _tempered_block(
            alpha, delta, [np.random.default_rng(s) for s in range(rows)], size
        )
        totals, most_in_one_entry = set(), 0
        for seed, row in enumerate(block):
            ref, counts = reference_tempered_jumps(
                np.random.default_rng(seed), alpha, delta, size
            )
            np.testing.assert_array_equal(row, ref)
            totals.add(int(counts.sum()))
            most_in_one_entry = max(most_in_one_entry, int(counts.max()))
        assert {0, 1, 3} <= totals
        assert most_in_one_entry >= 2


class TestStreamStates:
    """The vectorized seeding reproduces numpy's SeedSequence word for word."""

    @pytest.mark.parametrize(
        "key", [(), (7,), (42, 3), (1, 2, 3), (2**32, 5), (2**40 + 3, 2**64 + 1, 0)]
    )
    def test_equal_seed_sequence_states(self, key):
        """Entropy of 1 to 4 words and of more, with words >= 2^32 among them."""
        states = stream_states(key, 70)
        assert states.shape == (70, 4) and states.dtype == np.uint64
        for r, state in enumerate(states):
            expected = np.random.SeedSequence((*key, r)).generate_state(4, np.uint64)
            np.testing.assert_array_equal(state, expected)

    def test_generator_equals_default_rng(self):
        state = stream_states((3, 1), 18)[17]
        gen = stream_generator(state)
        ref = np.random.default_rng(np.random.SeedSequence((3, 1, 17)))
        assert gen.bit_generator.state == ref.bit_generator.state
        np.testing.assert_array_equal(gen.standard_normal(8), ref.standard_normal(8))

    def test_rejects_negative_key(self):
        with pytest.raises(ParameterError, match="non-negative"):
            stream_states((-1, 0), 1)
        with pytest.raises(ParameterError, match="non-negative"):
            next(replicate_blocks(ModelSpec(), 10, (-1, 0), 2))
