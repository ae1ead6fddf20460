"""The closed-form models that ``lm_fit`` fits and ``model_eval`` samples.

Each model declares its free parameters, an evaluator, its derivatives in
closed form, domain checks, a default initial guess, and (for the two
probability-density models) the normalization constant derived from the
shape parameters, so the fitted curve is always a proper density.  The
constants are computed in log space with ``math.lgamma``; the densities'
derivatives need its derivative, the digamma function.

The four models fitted to a few points per text (the word-length
densities and the two mean-syllable laws, 5 to 16 points) are
``pointwise``: they evaluate each point with ``math`` over lists of Python
floats, where numpy's call overhead would outweigh the arithmetic, and
their values come from the C library rather than from numpy's SIMD loops.
ZipfMandelbrot, fitted to every rank, is vectorized over float arrays.
The per-interval rank and coverage fits are not models here: they live in
``segmented``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import DomainError, ValidationError

PHONEME_GAMMA = "PhonemeGamma"
SHIFTED_MENZERATH = "ShiftedMenzerath"
MEAN_SYLLABLE_POWER = "MeanSyllablePower"
MEAN_SYLLABLE_EXP = "MeanSyllableExp"
ZIPF_MANDELBROT = "ZipfMandelbrot"


@dataclass(frozen=True)
class Model:
    id: str
    param_names: tuple[str, ...]
    # (p, x) -> the model at each abscissa
    evaluate: Callable
    x_in_domain: Callable[..., bool]
    params_in_domain: Callable[..., bool]
    # (x, y) -> start values, a list in parameter order
    default_init: Callable
    # (p, x, f) -> df/dp as one row per parameter, given f = evaluate(p, x)
    jacobian: Callable
    derived: Callable[[list[float]], dict[str, float]] | None = None
    # a parameter the model value is proportional to: lm_fit solves it in
    # closed form at each step and iterates on the others alone
    amplitude: str | None = None
    # the callables take and give lists of Python floats (x, f and each
    # Jacobian row), else float arrays; p is a list of floats either way
    pointwise: bool = False

    @property
    def n_params(self) -> int:
        return len(self.param_names)


def digamma(x: float) -> float:
    """psi(x) = d ln Gamma(x) / dx for x > 0.

    The recurrence psi(x) = psi(x + 1) - 1/x lifts x to 10 or more, where the
    asymptotic series is summed to its 1/(132 x^10) term.
    """
    shift = 0.0
    while x < 10.0:
        shift -= 1.0 / x
        x += 1.0
    s = 1.0 / (x * x)
    tail = s * (1 / 12 - s * (1 / 120 - s * (1 / 252 - s * (1 / 240 - s / 132))))
    return shift + math.log(x) - 0.5 / x - tail


def _exp_over_gamma(log_numerator: float, shape: float) -> float:
    """exp(log_numerator) / Gamma(shape); inf where either leaves the float range."""
    try:
        return math.exp(log_numerator - math.lgamma(shape))
    except OverflowError:
        return math.inf


def _check_density(shape: float, rate: float) -> None:
    if not -1.0 < shape < math.inf:
        raise DomainError(f"shape exponent must be finite and > -1, got {shape!r}")
    if not (rate > 0.0):
        raise DomainError(f"decay rate must be > 0, got {rate!r}")


def phoneme_gamma_norm(b: float, alpha: float) -> float:
    """Constant A with integral over x >= 0 of A x^b exp(-alpha x^2) equal to 1."""
    _check_density(b, alpha)
    h = (b + 1.0) / 2.0
    return 2.0 * _exp_over_gamma(h * math.log(alpha), h)


def shifted_menzerath_norm(d: float, rate: float) -> float:
    """Constant B with integral over t >= 0 of B t^d exp(-rate t) equal to 1."""
    _check_density(d, rate)
    return _exp_over_gamma((d + 1.0) * math.log(rate), d + 1.0)


def _fsum(values: list[float]) -> float:
    """The correctly rounded sum; where fsum refuses (inf - inf, overflow), the plain sum."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return sum(values)


def _pow(x: float, y: float) -> float:
    """x ** y for x > 0, or x = 0 and y >= 0; inf where it overflows, as ``np.power`` gives."""
    try:
        return math.pow(x, y)
    except OverflowError:
        return math.inf


def _exp(y: float) -> float:
    """e ** y; inf where it overflows, as ``np.exp`` gives."""
    try:
        return math.exp(y)
    except OverflowError:
        return math.inf


def _eval_phoneme_gamma(p, x):
    b, alpha = p
    a = phoneme_gamma_norm(b, alpha)
    return [a * _pow(v, b) * math.exp(-alpha * v * v) for v in x]


def _eval_shifted_menzerath(p, x):
    d, rate = p
    bnorm = shifted_menzerath_norm(d, rate)
    return [bnorm * _pow(v + 1.0, d) * math.exp(-rate * (v + 1.0)) for v in x]


def _eval_mean_syllable_power(p, x):
    m_inf, scale, c = p
    return [m_inf + scale * _pow(v, c) for v in x]


def _eval_mean_syllable_exp(p, x):
    amp, b, c = p
    return [amp * _pow(v, b) * _exp(c * v) for v in x]


def _eval_zipf_mandelbrot(p, x):
    amp, b, offset = p
    with np.errstate(all="ignore"):
        return amp * np.power(x + offset, -b)


def _jac_phoneme_gamma(p, x, f):
    b, alpha = p
    h = (b + 1.0) / 2.0
    shift = 0.5 * (math.log(alpha) - digamma(h))
    # where the density is 0 (x = 0 with b > 0), so is its b-derivative;
    # at x = 0 with b = 0 it is -inf, as ln 0 is
    d_b = [
        fv * ((math.log(v) if v > 0.0 else -math.inf) + shift) if fv != 0.0 else 0.0
        for v, fv in zip(x, f)
    ]
    return [d_b, [fv * (h / alpha - v * v) for v, fv in zip(x, f)]]


def _jac_shifted_menzerath(p, x, f):
    d, rate = p
    log_rate, psi = math.log(rate), digamma(d + 1.0)
    return [
        [fv * (math.log(v + 1.0) + log_rate - psi) for v, fv in zip(x, f)],
        [fv * ((d + 1.0) / rate - (v + 1.0)) for v, fv in zip(x, f)],
    ]


def _jac_mean_syllable_power(p, x, f):
    m_inf, scale, c = p
    xc = [_pow(v, c) for v in x]
    return [[1.0] * len(x), xc, [scale * w * math.log(v) for v, w in zip(x, xc)]]


def _jac_mean_syllable_exp(p, x, f):
    amp, b, c = p
    if amp != 0:
        d_amp = [fv / amp for fv in f]
    else:
        d_amp = [_pow(v, b) * _exp(c * v) for v in x]
    return [d_amp, [fv * math.log(v) for v, fv in zip(x, f)], [fv * v for v, fv in zip(x, f)]]


def _jac_zipf_mandelbrot(p, x, f):
    amp, b, offset = p
    t = x + offset
    with np.errstate(all="ignore"):
        d_amp = f / amp if amp != 0 else np.power(t, -b)
        return np.stack((d_amp, -f * np.log(t), -b * f / t))


def _init_phoneme_gamma(x, y):
    wsum = _fsum(list(y))
    if wsum > 0:
        mean_sq = _fsum([w * v * v for v, w in zip(x, y)]) / wsum
    else:
        mean_sq = _fsum([v * v for v in x]) / len(x)
    return [1.0, 1.0 / mean_sq]


def _init_shifted_menzerath(x, y):
    wsum = _fsum(list(y))
    if wsum > 0:
        mean_t = _fsum([w * (v + 1.0) for v, w in zip(x, y)]) / wsum
    else:
        mean_t = _fsum([v + 1.0 for v in x]) / len(x)
    return [max(mean_t - 1.0, 0.1), 1.0]


def _init_mean_syllable_power(x, y):
    lo, hi = min(y), max(y)
    spread = hi - lo
    return [lo - 0.25 * spread, spread if spread > 0 else 1.0, -1.0]


def _init_mean_syllable_exp(x, y):
    # y at the smallest x, its first occurrence
    first = y[min(range(len(x)), key=x.__getitem__)]
    return [first if first != 0 else 1.0, -1.0, 0.0]


def _init_zipf_mandelbrot(x, y):
    f0 = float(y[np.argmin(x)])
    return [f0 if f0 > 0 else 1.0, 1.0, 1.0]


MODELS: dict[str, Model] = {
    PHONEME_GAMMA: Model(
        id=PHONEME_GAMMA,
        param_names=("b", "alpha"),
        evaluate=_eval_phoneme_gamma,
        x_in_domain=lambda x: all(v >= 0 for v in x),
        params_in_domain=lambda p, x: p[0] > -1.0 and p[1] > 0.0
        and (p[0] >= 0.0 or all(v > 0 for v in x)),
        default_init=_init_phoneme_gamma,
        jacobian=_jac_phoneme_gamma,
        derived=lambda p: {"A": phoneme_gamma_norm(p[0], p[1])},
        pointwise=True,
    ),
    SHIFTED_MENZERATH: Model(
        id=SHIFTED_MENZERATH,
        param_names=("d", "gamma"),
        evaluate=_eval_shifted_menzerath,
        x_in_domain=lambda x: all(v >= 0 for v in x),
        params_in_domain=lambda p, x: p[0] > -1.0 and p[1] > 0.0,
        default_init=_init_shifted_menzerath,
        jacobian=_jac_shifted_menzerath,
        derived=lambda p: {"B": shifted_menzerath_norm(p[0], p[1])},
        pointwise=True,
    ),
    MEAN_SYLLABLE_POWER: Model(
        id=MEAN_SYLLABLE_POWER,
        param_names=("M_inf", "B", "c"),
        evaluate=_eval_mean_syllable_power,
        x_in_domain=lambda x: all(v > 0 for v in x),
        params_in_domain=lambda p, x: True,
        default_init=_init_mean_syllable_power,
        jacobian=_jac_mean_syllable_power,
        pointwise=True,
    ),
    MEAN_SYLLABLE_EXP: Model(
        id=MEAN_SYLLABLE_EXP,
        param_names=("A", "b", "c"),
        evaluate=_eval_mean_syllable_exp,
        x_in_domain=lambda x: all(v > 0 for v in x),
        params_in_domain=lambda p, x: True,
        default_init=_init_mean_syllable_exp,
        jacobian=_jac_mean_syllable_exp,
        pointwise=True,
    ),
    ZIPF_MANDELBROT: Model(
        id=ZIPF_MANDELBROT,
        param_names=("A", "b", "C"),
        evaluate=_eval_zipf_mandelbrot,
        x_in_domain=lambda x: bool(np.all(x > 0)),
        params_in_domain=lambda p, x: bool(np.all(x + p[2] > 0)),
        default_init=_init_zipf_mandelbrot,
        jacobian=_jac_zipf_mandelbrot,
        amplitude="A",
    ),
}


def get_model(model_id: str) -> Model:
    try:
        return MODELS[model_id]
    except KeyError:
        known = ", ".join(sorted(MODELS))
        raise ValidationError(f"unknown model {model_id!r}; known models: {known}") from None


def _param_values(model: Model, params: dict) -> list[float]:
    """The values of ``params``, a dict naming each parameter once, in model order."""
    missing = [name for name in model.param_names if name not in params]
    if missing:
        raise ValidationError(f"{model.id}: missing parameters {missing}")
    if unknown := [name for name in params if name not in model.param_names]:
        raise ValidationError(f"{model.id}: unknown parameters {unknown}")
    values = [float(params[name]) for name in model.param_names]
    for name, value in zip(model.param_names, values):
        if not math.isfinite(value):
            raise ValidationError(f"{model.id}: parameter {name}={value!r} is not finite")
    return values


def model_eval(model: Model | str, params, x):
    """Evaluate a model at x (scalar or array), enforcing its domain.

    A scalar gives a float and an array an array.  A domain or non-finite
    error names the first offending abscissa.
    """
    if isinstance(model, str):
        model = get_model(model)
    p = _param_values(model, params)
    scalar = np.isscalar(x)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if model.pointwise:
        xs = xs.tolist()
    if not model.x_in_domain(xs):
        bad = next(v for i, v in enumerate(xs) if not model.x_in_domain(xs[i:i + 1]))
        raise DomainError(f"{model.id}: x={float(bad)!r} outside the model domain")
    if not model.params_in_domain(p, xs):
        raise DomainError(f"{model.id}: parameters {p} outside the model domain")
    # a pointwise model's floats, taken as they are
    y = np.asarray(model.evaluate(p, xs))
    finite = np.isfinite(y)
    if not finite.all():
        bad = xs[np.argmin(finite)]
        raise DomainError(f"{model.id}: non-finite value at x={float(bad)!r}")
    return float(y[0]) if scalar else y
