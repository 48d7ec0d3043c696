"""Samplers for (tempered) alpha-stable increments and jump-diffusion paths.

The stable law is normalized so that its Levy measure is |z|^(-1-alpha) dz,
which corresponds to the characteristic function exp(-sigma_alpha |t|^alpha)
with sigma_alpha = 2 * int_0^inf (1 - cos u) u^(-1-alpha) du in closed form
(`stable_scale`).  Its density tail coefficient is 2 * c_alpha * sigma_alpha,
which is 1 (`tail_constant`).  All increments produced here are exact in law
up to the Gaussian small-jump substitution used in the tempered case.  The
block samplers draw one row per generator; `sample_stable_increment` takes
a `size` and an `rng` that may be anything `np.random.default_rng` accepts
(a Generator is used as it is).  The stable sampler's two steps,
`stable_draws` and the elementwise `stable_transform`, are public, so that
a caller can draw in one process and transform slices of the draws in
others.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, gamma, isfinite, log, pi, sin

import numpy as np

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
        for name in ("drift", "sigma", "gamma"):
            value = getattr(self, name)
            if not isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        if self.sigma < 0:
            raise ParameterError(f"sigma must be nonnegative, got {self.sigma}")
        if self.gamma != 0.0 and self.jump_law is None:
            raise ParameterError("gamma != 0 requires a jump_law")


@dataclass(frozen=True, eq=False)
class PathSample:
    """Increments Delta X_1..n of a path on [0, 1] observed with delta = 1/n.

    The increments are the path's data; the observed values, from X_0 = 0,
    are their cumulative sum.  Paths compare and hash by identity, as their
    arrays have no single truth value.
    """

    increments: np.ndarray

    def __post_init__(self):
        dx = np.asarray(self.increments, dtype=float)
        if dx.ndim != 1 or dx.size < 1:
            raise ParameterError(
                f"increments must be a non-empty vector, got shape {dx.shape}"
            )
        object.__setattr__(self, "increments", dx)

    @property
    def n(self) -> int:
        return self.increments.size

    @property
    def delta(self) -> float:
        return 1.0 / self.n

    @classmethod
    def from_observations(cls, observations) -> "PathSample":
        """The path whose increments are the differences of observed values."""
        obs = np.asarray(observations, dtype=float)
        if obs.ndim != 1 or obs.size < 2:
            raise ParameterError(f"need at least 2 observations, got shape {obs.shape}")
        return cls(np.diff(obs))


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


# fl(pi/2) falls short of pi/2 by this much: (pi/2 - |u|) + _HALF_PI_LO is
# pi/2 - |u| to rounding for every double |u| <= fl(pi/2).
_HALF_PI_LO = 6.123233995736766e-17


def _chambers_mallows_stuck(alpha: float, u: np.ndarray, w: np.ndarray) -> None:
    """Overwrite uniforms u on [-pi/2, pi/2] with standard stable draws.

    X = sin(alpha u) / cos(u)^(1/alpha) * (cos((1-alpha) u) / w)^((1-alpha)/alpha)
    for exponentials w (Chambers, Mallows & Stuck 1976); u and w are
    C-contiguous arrays of one shape.  Each sine and cosine comes from the
    tangent of half its angle, which numpy evaluates several times faster:
      cos u = 2s/(1+s^2), s = tan(d/2), d = (pi/2 - |u|) + _HALF_PI_LO,
      sin(alpha u) = 2a/(1+a^2), a = tan(alpha u/2),
      cos((1-alpha) u) = (1-b)(1+b)/(1+b^2), b = tan((1-alpha) u/2).
    pi/2 - |u| is exact for |u| >= pi/4, so cos u keeps its relative
    accuracy up to |u| = pi/2.  The transform is elementwise; it runs over
    pieces of at most BLOCK_INCREMENTS entries through four reused buffers,
    so its temporaries stay cache-sized however many draws there are.
    """
    u, w = u.reshape(-1), w.reshape(-1)
    if alpha == 1.0:
        np.tan(u, out=u)
        return
    step = max(1, min(u.size, BLOCK_INCREMENTS))
    buffers = np.empty((4, step))
    for lo in range(0, u.size, step):
        up, wp = u[lo : lo + step], w[lo : lo + step]
        c, a, b, t = buffers[:, : up.size]
        # c = cos(u)^(1/alpha)
        np.abs(up, out=c)
        np.subtract(np.pi / 2, c, out=c)
        c += _HALF_PI_LO
        c *= 0.5
        np.tan(c, out=c)
        np.multiply(c, c, out=t)
        t += 1.0
        c *= 2.0
        c /= t
        c **= 1.0 / alpha
        # a = sin(alpha u) / c
        np.multiply(up, alpha / 2, out=a)
        np.tan(a, out=a)
        np.multiply(a, a, out=t)
        t += 1.0
        a *= 2.0
        a /= t
        a /= c
        # c = (cos((1-alpha) u) / w)^((1-alpha)/alpha)
        np.multiply(up, (1.0 - alpha) / 2, out=b)
        np.tan(b, out=b)
        np.subtract(1.0, b, out=c)
        np.multiply(b, b, out=t)
        t += 1.0
        b += 1.0
        c *= b
        c /= t
        c /= wp
        c **= (1.0 - alpha) / alpha
        np.multiply(a, c, out=up)


def stable_draws(gens, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The uniforms and exponentials of one row of stable draws per generator.

    Each row draws its uniforms, then its exponentials, from its own
    generator; both arrays have shape (rows, size).  `stable_transform`
    turns them into increments.
    """
    u = np.empty((len(gens), size))
    w = np.empty((len(gens), size))
    for row_u, row_w, gen in zip(u, w, gens):
        gen.random(out=row_u)
        gen.standard_exponential(out=row_w)
    return u, w


def stable_transform(
    alpha: float, delta: float, u: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """Overwrite the uniforms u of `stable_draws` with stable increments over
    time delta and return u; w holds the matching exponentials.

    The Chambers-Mallows-Stuck transform and the scaling are elementwise,
    so any slice of the draws transforms to the same slice of increments.
    """
    if not delta > 0:
        raise ParameterError(f"delta must be positive, got {delta}")
    scale = (stable_scale(alpha) * delta) ** (1.0 / alpha)
    # uniform(-pi/2, pi/2) bit for bit: it too is -pi/2 + pi * random()
    u *= np.pi
    u += -np.pi / 2
    _chambers_mallows_stuck(alpha, u, w)
    u *= scale
    return u


def _stable_block(alpha: float, delta: float, gens, size: int) -> np.ndarray:
    """One row of stable increments over time delta per generator, (rows, size)."""
    return stable_transform(alpha, delta, *stable_draws(gens, size))


def sample_stable_increment(alpha: float, delta: float, rng, size: int) -> np.ndarray:
    """Increments L_delta of the Levy-measure-normalized stable process, delta > 0.

    Equal to (sigma_alpha * delta)^(1/alpha) times draws with characteristic
    function exp(-|t|^alpha).
    """
    return _stable_block(alpha, delta, [np.random.default_rng(rng)], size)[0]


# Tanh-sinh rule on [-1, 1], the package's one fixed quadrature table: nodes
# tanh(s), s = pi/2 sinh(t), at t = k/64 for |t| <= 3.6, where the weights
# have fallen below 1e-24.  Every other entry (k even) is the rule at step
# 1/32, so a sum over both gives an error estimate.  The rule integrates
# functions that are smooth inside an interval, even with algebraic
# singularities at its ends, to near rounding.
_TS_T = np.arange(-230, 231) / 64.0
_TS_S = np.pi / 2.0 * np.sinh(_TS_T)
# 1 - |tanh s|, each node's distance to the nearer end of [-1, 1]; it stays
# exact where tanh s itself rounds to +-1.
_TS_GAPS = np.exp(-np.abs(_TS_S)) / np.cosh(_TS_S)
_TS_WEIGHTS = np.pi / 128.0 * np.cosh(_TS_T) / np.cosh(_TS_S) ** 2


def tanh_sinh(lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the fixed tanh-sinh rule on [lo, hi].

    Nodes are placed from the nearer end, so those within rounding of an
    end stay distinct from it.  `weights @ f(nodes)` is the integral;
    `2 * weights[::2] @ f(nodes[::2])` is the same rule at twice the step.
    """
    half = (hi - lo) / 2.0
    nodes = np.where(_TS_T < 0.0, lo + half * _TS_GAPS, hi - half * _TS_GAPS)
    return nodes, half * _TS_WEIGHTS


@lru_cache(maxsize=None)
def tempered_tail_intensity(alpha: float) -> float:
    """Jump intensity 2 * int_c^inf e^(-z) z^(-1-alpha) dz, c = SMALL_JUMP_CUTOFF.

    Integrated in s = log z up to z = c + 80, past which e^(-z) is below
    rounding, as 2 * int exp(-e^s - alpha s) ds.
    """
    check_alpha(alpha)
    s, weights = tanh_sinh(log(SMALL_JUMP_CUTOFF), log(SMALL_JUMP_CUTOFF + 80.0))
    return 2.0 * float(weights @ np.exp(-np.exp(s) - alpha * s))


@lru_cache(maxsize=None)
def tempered_small_jump_variance(alpha: float) -> float:
    """Variance rate 2 * int_0^c z^(1-alpha) e^(-z) dz, c = SMALL_JUMP_CUTOFF.

    Summed as the series 2 c^(2-alpha) sum_k (-c)^k / (k! (2-alpha+k)); its
    terms past k = 9 are below 1e-20 of the first.
    """
    check_alpha(alpha)
    c = SMALL_JUMP_CUTOFF
    series = sum((-c) ** k / (factorial(k) * (2.0 - alpha + k)) for k in range(10))
    return 2.0 * c ** (2.0 - alpha) * series


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
    if not delta > 0:
        raise ParameterError(f"delta must be positive, got {delta}")
    out = np.zeros((len(gens), size))
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


def _jump_block(law: JumpLaw, delta: float, gens, size: int) -> np.ndarray:
    if law.kind == STABLE:
        return _stable_block(law.alpha, delta, gens, size)
    return _tempered_block(law.alpha, delta, gens, size)


# Rows per block are chosen so a block holds about this many increments:
# large enough to amortize numpy call overhead over many paths, small enough
# that a whole Monte Carlo cell is never held in memory at once.  It also
# bounds the pieces the stable transform works through.
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
