"""Samplers for (tempered) alpha-stable increments and jump-diffusion paths.

The stable law is normalized so that its Levy measure is |z|^(-1-alpha) dz,
which corresponds to the characteristic function exp(-sigma_alpha |t|^alpha)
with sigma_alpha = 2 * int_0^inf (1 - cos u) u^(-1-alpha) du in closed form
(`stable_scale`).  Its density tail coefficient is 2 * c_alpha * sigma_alpha,
which is 1 (`tail_constant`).  All increments produced here are exact in law
up to the Gaussian small-jump substitution used in the tempered case.  Every
sampler takes a `size` and returns an array, and an `rng` that may be
anything `np.random.default_rng` accepts (a Generator is used as it is).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache
from math import gamma, pi, sin

import numpy as np
from scipy import integrate

from .errors import ParameterError, check_alpha

STABLE = "stable"
TEMPERED = "tempered"

# Tempered jumps below this size are replaced by a Gaussian of matched variance.
SMALL_JUMP_CUTOFF = 0.01


@dataclass(frozen=True)
class JumpLaw:
    """Jump-activity descriptor: pure stable or exponentially tempered stable."""

    kind: str
    alpha: float

    def __post_init__(self):
        if self.kind not in (STABLE, TEMPERED):
            raise ParameterError(f"unknown jump law kind {self.kind!r}")
        check_alpha(self.alpha)


@dataclass(frozen=True)
class ModelSpec:
    """Constant-coefficient jump diffusion dX = b dt + sigma dW + gamma dL."""

    drift: float = 0.0
    sigma: float = 1.0
    gamma: float = 0.0
    jump_law: JumpLaw | None = None

    def __post_init__(self):
        if self.sigma < 0:
            raise ParameterError(f"sigma must be nonnegative, got {self.sigma}")
        if self.gamma != 0.0 and self.jump_law is None:
            raise ParameterError("gamma != 0 requires a jump_law")


@dataclass(frozen=True, eq=False)
class PathSample:
    """Increments Delta X_1..n of a path on [0, 1] observed with delta = 1/n.

    The increments are the path's data.  `observations` defaults to their
    cumulative sum from X_0 = 0; `from_observations` keeps observed values
    as given and takes their differences as the increments.  Paths compare
    and hash by identity, as their arrays have no single truth value.
    """

    increments: np.ndarray
    observations: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        dx = np.asarray(self.increments, dtype=float)
        if dx.ndim != 1 or dx.size < 1:
            raise ParameterError(
                f"increments must be a non-empty vector, got shape {dx.shape}"
            )
        object.__setattr__(self, "increments", dx)
        if self.observations is None:
            obs = np.concatenate(([0.0], np.cumsum(dx)))
        else:
            obs = np.asarray(self.observations, dtype=float)
            if obs.shape != (dx.size + 1,):
                raise ParameterError(
                    f"observations must have length n+1={dx.size + 1}, got {obs.shape}"
                )
        object.__setattr__(self, "observations", obs)

    @property
    def n(self) -> int:
        return self.increments.size

    @property
    def delta(self) -> float:
        return 1.0 / self.n

    @classmethod
    def from_observations(cls, observations) -> "PathSample":
        obs = np.asarray(observations, dtype=float)
        if obs.ndim != 1 or obs.size < 2:
            raise ParameterError(f"need at least 2 observations, got shape {obs.shape}")
        return cls(increments=np.diff(obs), observations=obs)


def stable_scale(alpha: float) -> float:
    """Scale sigma_alpha of the Levy-measure-normalized stable law.

    sigma_alpha = 2 * int_0^inf (1 - cos u) u^(-1-alpha) du
    = -2 Gamma(-alpha) cos(pi alpha/2), evaluated in the reflection form
    pi / (Gamma(alpha+1) sin(pi alpha/2)), which has no pole at alpha = 1
    and equals pi there exactly.
    """
    check_alpha(alpha)
    return pi / (gamma(alpha + 1.0) * sin(pi * alpha / 2.0))


def c_alpha(alpha: float) -> float:
    """Gamma(alpha+1) sin(pi alpha/2) / (2 pi), the reciprocal of 2 * sigma_alpha.

    The density of exp(-sigma |t|^alpha) has tail 2 c_alpha sigma |z|^(-1-alpha),
    so c_alpha is the tail coefficient of the unit law exp(-|t|^alpha / 2).
    Equal to alpha(1-alpha) / (4 Gamma(2-alpha) cos(pi alpha/2)) away from
    alpha = 1, and to its limit 1/(2 pi) there, without a special case.
    """
    check_alpha(alpha)
    return gamma(alpha + 1.0) * sin(pi * alpha / 2.0) / (2.0 * pi)


def tail_constant(alpha: float) -> float:
    """Tail coefficient of the Levy-measure-normalized density: 2*c_alpha*sigma_alpha.

    This equals 1 for every alpha in (0, 2), to rounding; it is computed as
    the product so that the relation stays visible and testable.
    """
    return 2.0 * c_alpha(alpha) * stable_scale(alpha)


def _standard_stable_block(alpha: float, gens, size: int) -> np.ndarray:
    """One row of standard stable draws per generator, as a (rows, size) block.

    Each row draws its uniforms, then its exponentials, from its own
    generator; the Chambers-Mallows-Stuck transform then runs once over the
    whole block.  It is elementwise, so a row does not depend on the block.
    """
    u = np.empty((len(gens), size))
    w = np.empty((len(gens), size))
    for row_u, row_w, gen in zip(u, w, gens):
        row_u[:] = gen.uniform(-np.pi / 2, np.pi / 2, size)
        gen.standard_exponential(out=row_w)
    if alpha == 1.0:
        return np.tan(u)
    return (np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)) * (
        np.cos((1.0 - alpha) * u) / w
    ) ** ((1.0 - alpha) / alpha)


def sample_standard_stable(alpha: float, rng, size: int) -> np.ndarray:
    """Symmetric stable draws with characteristic function exp(-|t|^alpha).

    Chambers-Mallows-Stuck transform.  alpha = 2 is allowed and degenerates
    to sqrt(2) times a standard normal.
    """
    if not 0.0 < alpha <= 2.0:
        raise ParameterError(f"alpha must lie in (0, 2], got {alpha}")
    return _standard_stable_block(alpha, [np.random.default_rng(rng)], size)[0]


def _stable_block(alpha: float, delta: float, gens, size: int) -> np.ndarray:
    if delta < 0:
        raise ParameterError(f"delta must be nonnegative, got {delta}")
    if delta == 0:
        return np.zeros((len(gens), size))
    scale = (stable_scale(alpha) * delta) ** (1.0 / alpha)
    return scale * _standard_stable_block(alpha, gens, size)


def sample_stable_increment(alpha: float, delta: float, rng, size: int) -> np.ndarray:
    """Increments L_delta of the Levy-measure-normalized stable process.

    Equal to (sigma_alpha * delta)^(1/alpha) times standard draws.  delta = 0
    is allowed as a degenerate probe and returns zeros.
    """
    return _stable_block(alpha, delta, [np.random.default_rng(rng)], size)[0]


@lru_cache(maxsize=None)
def tempered_tail_intensity(alpha: float) -> float:
    """Jump intensity 2 * int_c^inf e^(-z) z^(-1-alpha) dz, c = SMALL_JUMP_CUTOFF."""
    check_alpha(alpha)
    val, _ = integrate.quad(
        lambda z: np.exp(-z) * z ** (-1.0 - alpha),
        SMALL_JUMP_CUTOFF,
        SMALL_JUMP_CUTOFF + 80.0,
        epsabs=1e-12,
        limit=200,
    )
    return 2.0 * val


@lru_cache(maxsize=None)
def tempered_small_jump_variance(alpha: float) -> float:
    """Variance rate 2 * int_0^c z^(1-alpha) e^(-z) dz, c = SMALL_JUMP_CUTOFF."""
    check_alpha(alpha)
    val, _ = integrate.quad(
        lambda z: z ** (1.0 - alpha) * np.exp(-z),
        0.0,
        SMALL_JUMP_CUTOFF,
        epsabs=1e-14,
    )
    return 2.0 * val


def _tempered_jump_sizes(
    alpha: float, count: int, gen: np.random.Generator
) -> np.ndarray:
    """Magnitudes with density proportional to e^(-z) z^(-1-alpha) above the cutoff.

    Rejection sampling with a Pareto proposal; acceptance probability e^(-z).
    Each round draws its m candidates and then its m acceptance uniforms.
    """
    sizes = np.empty(count)
    got = 0
    while got < count:
        # cap the proposal batch so huge jump counts stay within memory
        m = min(2 * (count - got) + 16, 4_000_000)
        draws = gen.uniform(size=2 * m)
        cand = SMALL_JUMP_CUTOFF * draws[:m] ** (-1.0 / alpha)
        accepted = cand[draws[m:] < np.exp(-cand)]
        take = accepted[: count - got]
        sizes[got : got + take.size] = take
        got += take.size
    return sizes


def _tempered_block(alpha: float, delta: float, gens, size: int) -> np.ndarray:
    """One row of tempered-stable increments per generator, as a (rows, size) block.

    Each row draws, from its own generator, its Poisson jump counts, the
    rejection rounds of its jump sizes, their signs and its small-jump
    normals.  The jumps are then added into the whole block at once, in
    row order, so every entry sums its jumps as a single row would.
    """
    check_alpha(alpha)
    if delta < 0:
        raise ParameterError(f"delta must be nonnegative, got {delta}")
    out = np.zeros((len(gens), size))
    if delta == 0:
        return out
    rate = tempered_tail_intensity(alpha) * delta
    counts = np.empty(out.shape, dtype=np.int64)
    small = np.empty(out.shape)
    jumps = []
    for row_counts, row_small, gen in zip(counts, small, gens):
        row_counts[:] = gen.poisson(rate, size)
        total = int(row_counts.sum())
        if total:
            magnitudes = _tempered_jump_sizes(alpha, total, gen)
            jumps.append((2.0 * gen.integers(0, 2, size=total) - 1.0) * magnitudes)
        gen.standard_normal(out=row_small)
    if jumps:
        where = np.repeat(np.arange(out.size), counts.reshape(-1))
        np.add.at(out.reshape(-1), where, np.concatenate(jumps))
    out += np.sqrt(tempered_small_jump_variance(alpha) * delta) * small
    return out


def sample_tempered_increment(alpha: float, delta: float, rng, size: int) -> np.ndarray:
    """Tempered-stable increments over time delta: Levy measure e^(-|z|)|z|^(-1-alpha) dz.

    Jumps above SMALL_JUMP_CUTOFF are compound Poisson; jumps below it are
    replaced by a centered Gaussian with matched variance.  The measure is
    symmetric, so no drift compensation is needed.
    """
    return _tempered_block(alpha, delta, [np.random.default_rng(rng)], size)[0]


def _jump_block(law: JumpLaw, delta: float, gens, size: int) -> np.ndarray:
    if law.kind == STABLE:
        return _stable_block(law.alpha, delta, gens, size)
    return _tempered_block(law.alpha, delta, gens, size)


def sample_jump_increment(law: JumpLaw, delta: float, rng, size: int) -> np.ndarray:
    """Dispatch to the stable or tempered increment sampler."""
    return _jump_block(law, delta, [np.random.default_rng(rng)], size)[0]


# Rows per block are chosen so a block holds about this many increments:
# large enough to amortize numpy call overhead over many paths, small enough
# that a whole Monte Carlo cell is never held in memory at once.
BLOCK_INCREMENTS = 16_384


def block_rows(n: int) -> int:
    """Paths of n increments per simulation block (at least one)."""
    return max(1, BLOCK_INCREMENTS // n)


def simulate_increments(model: ModelSpec, n: int, seeds) -> np.ndarray:
    """Increments of one path per seed on the grid t_i = i/n, as a (rows, n) block.

    Row r is b*delta + sigma*sqrt(delta)*Z + gamma*J drawn from its own
    stream `seeds[r]` (an integer, SeedSequence or Generator): the Gaussian
    draws first, then the jump draws.  Every step after the draws is
    elementwise, so a row is bit-identical to the same seed's row in any
    other block.
    """
    if n < 2:
        raise ParameterError(f"n must be at least 2, got {n}")
    delta = 1.0 / n
    gens = [np.random.default_rng(seed) for seed in seeds]
    block = np.full((len(gens), n), model.drift * delta)
    if model.sigma > 0:
        normals = np.empty(block.shape)
        for row, gen in zip(normals, gens):
            gen.standard_normal(out=row)
        block += model.sigma * np.sqrt(delta) * normals
    if model.gamma != 0.0:
        block += model.gamma * _jump_block(model.jump_law, delta, gens, n)
    return block


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), on uint32 words.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _seed_words(value) -> list[int]:
    """The uint32 words, low first, that SeedSequence makes of one key entry."""
    value = operator.index(value)
    if value < 0:
        raise ParameterError(f"seeds must be non-negative integers, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hasher(hash_const: int, mult: int):
    """SeedSequence's hashmix: each call advances one running hash constant."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ (result >> np.uint32(16))


def stream_states(key: tuple, count: int) -> np.ndarray:
    """SeedSequence((*key, r)).generate_state(4, np.uint64) for r < count, as rows.

    One vectorized pass of numpy's SeedSequence hash over all replicate
    indices r, each one uint32 word.  A row is what PCG64 is seeded with, so
    `stream_generator(row)` is the generator `default_rng(SeedSequence((*key, r)))`.
    """
    if count > 2**32:
        raise ParameterError(f"at most 2^32 replicates per key, got {count}")
    entropy = [
        np.full(count, word, dtype=np.uint32)
        for entry in key
        for word in _seed_words(entry)
    ]
    entropy.append(np.arange(count, dtype=np.uint32))
    entropy += [np.zeros(count, dtype=np.uint32)] * (_POOL_SIZE - len(entropy))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    out = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    return np.stack([out[2 * i] | out[2 * i + 1] << np.uint64(32) for i in range(4)], 1)


class _PresetSeed(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 a state that `stream_states` computed ahead of time."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a preset seed holds exactly 4 uint64 words")
        return self.state


def stream_generator(state: np.ndarray) -> np.random.Generator:
    """The PCG64 generator seeded with one row of `stream_states`."""
    return np.random.Generator(np.random.PCG64(_PresetSeed(state)))


def replicate_blocks(model: ModelSpec, n: int, key: tuple, count: int):
    """Yield (lo, block): the increments of replicates lo, lo+1, ... as rows.

    Replicate r is drawn from the stream SeedSequence((*key, r)), and the
    `count` replicates come in blocks of `block_rows(n)` rows, so a
    replicate's path does not depend on which block it falls in.  The
    streams of all `count` replicates are seeded in one pass.
    """
    states = stream_states(key, count)
    step = block_rows(n)
    for lo in range(0, count, step):
        gens = [stream_generator(state) for state in states[lo : lo + step]]
        yield lo, simulate_increments(model, n, gens)


def simulate_path(model: ModelSpec, n: int, seed) -> PathSample:
    """Simulate X on the grid t_i = i/n, exact in law for constant coefficients.

    The one-row case of `simulate_increments`: X_0 = 0 and
    X_{t_{i+1}} - X_{t_i} = b*delta + sigma*sqrt(delta)*Z_i + gamma*J_i.  The
    same (model, n, seed) always yields a bit-identical path; `seed` may be
    an integer or a numpy SeedSequence.
    """
    return PathSample(simulate_increments(model, n, [seed])[0])
