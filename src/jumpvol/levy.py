"""Samplers for (tempered) alpha-stable increments and jump-diffusion paths.

The stable law is normalized so that its Levy measure is |z|^(-1-alpha) dz,
which corresponds to the characteristic function exp(-sigma_alpha |t|^alpha)
with sigma_alpha = 2 * int_0^inf (1 - cos u) u^(-1-alpha) du in closed form
(`stable_scale`).  Its density tail coefficient is 2 * c_alpha * sigma_alpha,
which is 1 (`tail_constant`).  All increments produced here are exact in law
up to the Gaussian small-jump substitution used in the tempered case.  A
path is its 1-D array of increments Delta X_1..n on [0, 1], observed with
delta = 1/n; a block of paths is a (rows, n) array.  The samplers draw a
whole block from one generator, each kind of draw in one call for all rows;
`sample_stable_increment` is the one public sampler.  `block_rows` fixes how
many paths of a Monte Carlo cell share a block; `harness.replicate_map`
says which stream each block is drawn from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, gamma, isfinite, log, pi, sin

import numpy as np

# Imported with the module: numpy loads numpy.random (about 14 ms) on first
# use of np.random, which would be inside a command, once in the caller and
# again in each forked worker.
from numpy.random import default_rng

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


def sample_stable_increment(alpha: float, delta: float, rng, shape) -> np.ndarray:
    """Increments L_delta of the Levy-measure-normalized stable process, delta > 0.

    Equal to (sigma_alpha * delta)^(1/alpha) times draws with characteristic
    function exp(-|t|^alpha), of the given shape.  `rng` may be anything
    `default_rng` accepts (a Generator is used as it is); it gives the
    uniforms of every draw, then their exponentials.
    """
    if not delta > 0:
        raise ParameterError(f"delta must be positive, got {delta}")
    scale = (stable_scale(alpha) * delta) ** (1.0 / alpha)
    gen = default_rng(rng)
    u, w = gen.random(shape), gen.standard_exponential(shape)
    # uniform(-pi/2, pi/2) bit for bit: it too is -pi/2 + pi * random()
    u *= np.pi
    u += -np.pi / 2
    _chambers_mallows_stuck(alpha, u, w)
    u *= scale
    return u


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


def _tempered_block(alpha: float, delta: float, gen, shape) -> np.ndarray:
    """Tempered-stable increments over time delta, of the given shape, from gen.

    One call each draws the Poisson jump counts of every entry, the
    rejection rounds of all their jump sizes, the signs and the small-jump
    normals.  The jumps are added in row-major entry order, so an entry sums
    its jumps in the order they were drawn.
    """
    check_alpha(alpha)
    if not delta > 0:
        raise ParameterError(f"delta must be positive, got {delta}")
    counts = gen.poisson(tempered_tail_intensity(alpha) * delta, shape)
    out = np.zeros(counts.shape)
    total = int(counts.sum())
    if total:
        magnitudes = _tempered_jump_sizes(alpha, total, gen)
        jumps = (2.0 * gen.integers(0, 2, size=total) - 1.0) * magnitudes
        where = np.repeat(np.arange(out.size), counts.reshape(-1))
        np.add.at(out.reshape(-1), where, jumps)
    small = gen.standard_normal(shape)
    out += np.sqrt(tempered_small_jump_variance(alpha) * delta) * small
    return out


def _jump_block(law: JumpLaw, delta: float, gen, shape) -> np.ndarray:
    if law.kind == STABLE:
        return sample_stable_increment(law.alpha, delta, gen, shape)
    return _tempered_block(law.alpha, delta, gen, shape)


# A constant of the draw design: a Monte Carlo cell's replicates come in
# blocks of `block_rows(n)` rows, about this many increments, and each block
# is drawn whole from one stream.  So it fixes which paths share a stream,
# and changing it is a new draw design that moves every Monte Carlo report.
# Blocks are large enough to amortize numpy call overhead over many paths and
# small enough that a whole cell is never held in memory at once.  It also
# bounds the pieces the stable transform works through.
BLOCK_INCREMENTS = 16_384


def block_rows(n: int) -> int:
    """Paths of n increments per simulation block (at least one)."""
    return max(1, BLOCK_INCREMENTS // n)


def simulate_increments(model: ModelSpec, n: int, rows: int, rng) -> np.ndarray:
    """Increments of `rows` paths on the grid t_i = i/n, as a (rows, n) block.

    Each entry is b*delta + sigma*sqrt(delta)*Z + gamma*J.  The whole block
    is drawn from the one stream `rng` (anything `default_rng` accepts; an
    integer seed or a key tuple must not be negative): the Gaussian draws of
    every row first, then the jump draws of every row.
    """
    if n < 2:
        raise ParameterError(f"n must be at least 2, got {n}")
    seeds = rng if isinstance(rng, (int, np.integer, tuple)) else ()
    if min(np.atleast_1d(seeds), default=0) < 0:
        raise ParameterError(f"seeds must be non-negative integers, got {rng}")
    delta = 1.0 / n
    gen = default_rng(rng)
    block = np.full((rows, n), model.drift * delta)
    if model.sigma > 0:
        block += model.sigma * np.sqrt(delta) * gen.standard_normal((rows, n))
    if model.gamma != 0.0:
        block += model.gamma * _jump_block(model.jump_law, delta, gen, (rows, n))
    return block


def simulate_path(model: ModelSpec, n: int, seed) -> np.ndarray:
    """Simulate the increments of X on the grid t_i = i/n, exact in law for
    constant coefficients.

    The one-row case of `simulate_increments`: X_0 = 0 and
    X_{t_{i+1}} - X_{t_i} = b*delta + sigma*sqrt(delta)*Z_i + gamma*J_i.  The
    same (model, n, seed) always yields bit-identical increments; `seed` may
    be a non-negative integer or a numpy SeedSequence.
    """
    return simulate_increments(model, n, 1, seed)[0]
