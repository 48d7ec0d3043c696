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
`sample_stable_increment` is the one public sampler.  The stable transform
takes several alpha at once: one set of uniforms and exponentials gives
every alpha's draws, and the one-alpha case is `sample_stable_increment`.
A block's parts are its unit normals Z and the unscaled jumps J of each of
several models.  `draw_parts` draws them and is the whole draw design: which
stream draws which part, and in what order.  `form_increments` turns parts
into a model's increments, and `block_rows` fixes how many paths share a
block; `harness.replicate_map` says which key each model of a block has.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, gamma, hypot, isfinite, log, pi, sin, sqrt

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

    @property
    def gaussian_scale(self) -> float:
        """hypot(sigma, gamma*sqrt(v)): sigma W and, for tempered jumps, the
        Gaussian of variance rate v (`tempered_small_jump_variance`) that
        stands in for gamma's jumps below the cutoff; sigma for stable jumps."""
        law = self.jump_law
        tempered = law is not None and law.kind == TEMPERED
        v = tempered_small_jump_variance(law.alpha) if tempered else 0.0
        return hypot(self.sigma, self.gamma * sqrt(v))


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


def _chambers_mallows_stuck(alphas, u: np.ndarray, w: np.ndarray, out) -> None:
    """Write into out[i] standard stable draws of alphas[i] from uniforms u
    on [0, 1) and exponentials w, one set for every alpha.

    X = sin(alpha v) / cos(v)^(1/alpha) * (cos((1-alpha) v) / w)^((1-alpha)/alpha)
    for v = pi u - pi/2 (Chambers, Mallows & Stuck 1976); u, w and each
    out[i] are C-contiguous arrays of one shape, and the last out may be u
    itself.  Each sine and cosine comes from the tangent of half its angle,
    which numpy evaluates several times faster:
      cos v = 2s/(1+s^2), s = tan(d/2), d = (pi/2 - |v|) + _HALF_PI_LO,
      sin(alpha v) = 2a/(1+a^2), a = tan(alpha v/2),
      cos((1-alpha) v) = (1-b)(1+b)/(1+b^2), b = tan((1-alpha) v/2).
    pi/2 - |v| is exact for |v| >= pi/4, so cos v keeps its relative
    accuracy up to |v| = pi/2.  The transform is elementwise; it runs over
    pieces of at most BLOCK_INCREMENTS entries through reused buffers, so
    its temporaries stay cache-sized however many draws there are.  Each
    piece takes v and cos v, which no alpha changes, once, then the rest
    once per alpha; v stays in u until the last alpha, whose draws
    overwrite it.  One alpha runs in four buffers, cos v in the one that
    then holds cos(v)^(1/alpha); several keep cos v in a fifth.
    """
    u, w = u.reshape(-1), w.reshape(-1)
    out = [x.reshape(-1) for x in out]
    step = max(1, min(u.size, BLOCK_INCREMENTS))
    several = len(alphas) > 1
    cosine = any(alpha != 1.0 for alpha in alphas)
    buffers = np.empty((4 + several, step))
    for lo in range(0, u.size, step):
        up, wp = u[lo : lo + step], w[lo : lo + step]
        k = buffers[0, : up.size]
        c, a, b, t = buffers[several:, : up.size]
        # uniform(-pi/2, pi/2) bit for bit: it too is -pi/2 + pi * random()
        up *= np.pi
        up += -np.pi / 2
        if cosine:
            # k = cos(v)
            np.abs(up, out=k)
            np.subtract(np.pi / 2, k, out=k)
            k += _HALF_PI_LO
            k *= 0.5
            np.tan(k, out=k)
            np.multiply(k, k, out=t)
            t += 1.0
            k *= 2.0
            k /= t
        for alpha, x in zip(alphas, out):
            xp = x[lo : lo + step]
            if alpha == 1.0:
                np.tan(up, out=xp)
                continue
            # c = cos(v)^(1/alpha)
            np.power(k, 1.0 / alpha, out=c)
            # a = sin(alpha v) / c
            np.multiply(up, alpha / 2, out=a)
            np.tan(a, out=a)
            np.multiply(a, a, out=t)
            t += 1.0
            a *= 2.0
            a /= t
            a /= c
            # c = (cos((1-alpha) v) / w)^((1-alpha)/alpha)
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
            np.multiply(a, c, out=xp)


def _stable_blocks(alphas, delta: float, gen, shape) -> list:
    """Increments L_delta of the stable law of each alpha, of the given
    shape, from one set of uniforms and then exponentials of generator gen:
    one new array per alpha, the last one the uniforms' own."""
    scales = [(stable_scale(alpha) * delta) ** (1.0 / alpha) for alpha in alphas]
    u, w = gen.random(shape), gen.standard_exponential(shape)
    draws = [np.empty(shape) for _ in alphas[1:]] + [u]
    _chambers_mallows_stuck(alphas, u, w, draws)
    for scale, x in zip(scales, draws):
        x *= scale
    return draws


def sample_stable_increment(alpha: float, delta: float, rng, shape) -> np.ndarray:
    """Increments L_delta of the Levy-measure-normalized stable process, delta > 0.

    Equal to (sigma_alpha * delta)^(1/alpha) times draws with characteristic
    function exp(-|t|^alpha), of the given shape.  `rng` may be anything
    `default_rng` accepts (a Generator is used as it is); it gives the
    uniforms of every draw, then their exponentials.
    """
    if not delta > 0:
        raise ParameterError(f"delta must be positive, got {delta}")
    return _stable_blocks([alpha], delta, default_rng(rng), shape)[0]


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
    """Tempered jumps above the cutoff over time delta, of the given shape, from gen.

    A compound Poisson block, exact in law: the total count of every entry,
    that many uniform entry positions, the rejection rounds of their sizes,
    then their signs.  The jumps are added in the order they were drawn.
    """
    check_alpha(alpha)
    if not delta > 0:
        raise ParameterError(f"delta must be positive, got {delta}")
    out = np.zeros(shape)
    total = int(gen.poisson(tempered_tail_intensity(alpha) * delta * out.size))
    if total:
        where = gen.integers(0, out.size, total)
        magnitudes = _tempered_jump_sizes(alpha, total, gen)
        jumps = (2.0 * gen.integers(0, 2, size=total) - 1.0) * magnitudes
        np.add.at(out.reshape(-1), where, jumps)
    return out


# A constant of the draw design: the replicates of a Monte Carlo group come
# in blocks of `block_rows(n)` rows, about this many increments, and each
# block is drawn whole, every row from the same streams.  So it fixes which
# paths share a stream, and changing it is a new draw design that moves
# every Monte Carlo report.  Blocks are large enough to amortize numpy call
# overhead over many paths and small enough that a whole group is never held
# in memory at once.  It also bounds the pieces the stable transform works
# through.
BLOCK_INCREMENTS = 16_384


def block_rows(n: int) -> int:
    """Paths of n increments per simulation block (at least one)."""
    return max(1, BLOCK_INCREMENTS // n)


def draw_parts(models, keys, shape):
    """The parts (Z, J) of a block of `shape` (rows, n) for each of models,
    one key each, yielded in model order as they are drawn.

    n must be at least 2, and every key is checked before any generator is
    made: it is anything `default_rng` accepts, and an integer seed or a key
    tuple or list must not be negative.  Each model has the stream
    `default_rng(key)`, but every stable model with jumps after the first
    makes none.  The unit normals Z of every row are drawn first, from the
    first model's stream, when any model has a positive `gaussian_scale`,
    and every model's parts hold that one array; else Z is None.  A model's
    J is None, drawing nothing, when its gamma is 0.  A tempered law's comes
    from its own stream.  Every stable law's comes from one set of uniforms,
    then exponentials, of every row, drawn from the first stable model's
    stream at its turn; each later stable model's J is then ready.  So each
    stable law's J is `sample_stable_increment` of that stream, bit for bit.
    """
    n = shape[-1]
    if n < 2:
        raise ParameterError(f"n must be at least 2, got {n}")
    for key in keys:
        seeds = key if isinstance(key, (int, np.integer, tuple, list)) else ()
        if min(np.atleast_1d(seeds), default=0) < 0:
            raise ParameterError(f"seeds must be non-negative integers, got {key}")
    stable = [i for i, m in enumerate(models) if m.gamma and m.jump_law.kind == STABLE]
    later = stable[1:]
    streams = [None if i in later else default_rng(key) for i, key in enumerate(keys)]
    gaussian = any(model.gaussian_scale > 0 for model in models)
    normals = streams[0].standard_normal(shape) if gaussian else None
    delta, shared = 1.0 / n, None
    for model, gen in zip(models, streams):
        if not model.gamma:
            jumps = None
        elif model.jump_law.kind == TEMPERED:
            jumps = _tempered_block(model.jump_law.alpha, delta, gen, shape)
        else:
            if shared is None:
                alphas = [models[i].jump_law.alpha for i in stable]
                shared = iter(_stable_blocks(alphas, delta, gen, shape))
            jumps = next(shared)
        yield normals, jumps


def form_increments(model: ModelSpec, parts, shape, out=None) -> np.ndarray:
    """Increments b*delta + gaussian_scale*sqrt(delta)*Z + gamma*J of `shape`
    (rows, n) from parts (Z, J) drawn for any model of this jump law that
    draws what this one scales, written into `out` (of `shape`) when given.
    J is not read at gamma = 0 (0*inf is NaN).
    """
    normals, jumps = parts
    delta, scale = 1.0 / shape[-1], model.gaussian_scale
    out = np.empty(shape) if out is None else out
    if scale > 0:
        np.multiply(scale * np.sqrt(delta), normals, out=out)
    else:
        out.fill(0.0)
    if model.drift:  # s*Z + b*delta is b*delta + s*Z, bit for bit
        out += model.drift * delta
    if model.gamma != 0.0:
        out += model.gamma * jumps
    return out


def simulate_increments(model: ModelSpec, n: int, rows: int, rng) -> np.ndarray:
    """Increments of `rows` paths on the grid t_i = i/n, as a (rows, n) block:
    `form_increments` of the parts `draw_parts` draws for the model alone."""
    shape = (rows, n)
    return form_increments(model, next(draw_parts([model], [rng], shape)), shape)


def simulate_path(model: ModelSpec, n: int, seed) -> np.ndarray:
    """Simulate the increments of X on the grid t_i = i/n, exact in law for
    constant coefficients.

    The one-row case of `simulate_increments`: X_0 = 0 and
    X_{t_{i+1}} - X_{t_i} = b*delta + s*sqrt(delta)*Z_i + gamma*J_i, s being
    model.gaussian_scale.  The same (model, n, seed) always yields
    bit-identical increments.  `seed` is anything `default_rng` accepts: a
    non-negative integer, a key tuple or list of them, a SeedSequence, or a
    Generator, which is used as it is.
    """
    return simulate_increments(model, n, 1, seed)[0]
