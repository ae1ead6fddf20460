"""The closed-form models that ``lm_fit`` fits and ``model_eval`` samples.

Each model declares its free parameters, a vectorized evaluator, its
derivatives in closed form, domain checks, a default initial guess, and
(for the two probability-density models) the normalization constant derived
from the shape parameters, so the fitted curve is always a proper density.
The constants are computed in log space with ``math.lgamma``; the
densities' derivatives need its derivative, the digamma function.  The
per-interval rank and coverage fits are not models here: they live in
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
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    x_in_domain: Callable[[np.ndarray], bool]
    params_in_domain: Callable[[np.ndarray, np.ndarray], bool]
    default_init: Callable[[np.ndarray, np.ndarray], np.ndarray]
    # (p, x, f) -> df/dp as one row per parameter, given f = evaluate(p, x)
    jacobian: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    derived: Callable[[np.ndarray], dict[str, float]] | None = None
    # a parameter the model value is proportional to: lm_fit solves it in
    # closed form at each step and iterates on the others alone
    amplitude: str | None = None

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


def _eval_phoneme_gamma(p, x):
    b, alpha = p
    a = phoneme_gamma_norm(b, alpha)
    with np.errstate(all="ignore"):
        return a * np.power(x, b) * np.exp(-alpha * x * x)


def _eval_shifted_menzerath(p, x):
    d, rate = p
    bnorm = shifted_menzerath_norm(d, rate)
    t = x + 1.0
    with np.errstate(all="ignore"):
        return bnorm * np.power(t, d) * np.exp(-rate * t)


def _eval_mean_syllable_power(p, x):
    m_inf, scale, c = p
    with np.errstate(all="ignore"):
        return m_inf + scale * np.power(x, c)


def _eval_mean_syllable_exp(p, x):
    amp, b, c = p
    with np.errstate(all="ignore"):
        return amp * np.power(x, b) * np.exp(c * x)


def _eval_zipf_mandelbrot(p, x):
    amp, b, offset = p
    with np.errstate(all="ignore"):
        return amp * np.power(x + offset, -b)


def _jac_phoneme_gamma(p, x, f):
    b, alpha = p
    h = (b + 1.0) / 2.0
    with np.errstate(all="ignore"):
        d_b = f * (np.log(x) + 0.5 * (math.log(alpha) - digamma(h)))
    # where the density is 0 (x = 0 with b > 0), so is its b-derivative
    d_b[f == 0.0] = 0.0
    return np.stack((d_b, f * (h / alpha - x * x)))


def _jac_shifted_menzerath(p, x, f):
    d, rate = p
    t = x + 1.0
    return np.stack((
        f * (np.log(t) + math.log(rate) - digamma(d + 1.0)),
        f * ((d + 1.0) / rate - t),
    ))


def _jac_mean_syllable_power(p, x, f):
    m_inf, scale, c = p
    with np.errstate(all="ignore"):
        xc = np.power(x, c)
        return np.stack((np.ones_like(x), xc, scale * xc * np.log(x)))


def _jac_mean_syllable_exp(p, x, f):
    amp, b, c = p
    with np.errstate(all="ignore"):
        d_amp = f / amp if amp != 0 else np.power(x, b) * np.exp(c * x)
        return np.stack((d_amp, f * np.log(x), f * x))


def _jac_zipf_mandelbrot(p, x, f):
    amp, b, offset = p
    t = x + offset
    with np.errstate(all="ignore"):
        d_amp = f / amp if amp != 0 else np.power(t, -b)
        return np.stack((d_amp, -f * np.log(t), -b * f / t))


def _init_phoneme_gamma(x, y):
    wsum = y.sum()
    mean_sq = float((y * x * x).sum() / wsum) if wsum > 0 else float((x * x).mean())
    return np.array([1.0, 1.0 / mean_sq])


def _init_shifted_menzerath(x, y):
    wsum = y.sum()
    mean_t = float((y * (x + 1.0)).sum() / wsum) if wsum > 0 else float((x + 1.0).mean())
    return np.array([max(mean_t - 1.0, 0.1), 1.0])


def _init_mean_syllable_power(x, y):
    lo, hi = float(y.min()), float(y.max())
    spread = hi - lo
    return np.array([lo - 0.25 * spread, spread if spread > 0 else 1.0, -1.0])


def _init_mean_syllable_exp(x, y):
    first = float(y[np.argmin(x)])
    return np.array([first if first != 0 else 1.0, -1.0, 0.0])


def _init_zipf_mandelbrot(x, y):
    f0 = float(y[np.argmin(x)])
    return np.array([f0 if f0 > 0 else 1.0, 1.0, 1.0])


MODELS: dict[str, Model] = {
    PHONEME_GAMMA: Model(
        id=PHONEME_GAMMA,
        param_names=("b", "alpha"),
        evaluate=_eval_phoneme_gamma,
        x_in_domain=lambda x: bool(np.all(x >= 0)),
        params_in_domain=lambda p, x: p[0] > -1.0 and p[1] > 0.0
        and (p[0] >= 0.0 or bool(np.all(x > 0))),
        default_init=_init_phoneme_gamma,
        jacobian=_jac_phoneme_gamma,
        derived=lambda p: {"A": phoneme_gamma_norm(p[0], p[1])},
    ),
    SHIFTED_MENZERATH: Model(
        id=SHIFTED_MENZERATH,
        param_names=("d", "gamma"),
        evaluate=_eval_shifted_menzerath,
        x_in_domain=lambda x: bool(np.all(x >= 0)),
        params_in_domain=lambda p, x: p[0] > -1.0 and p[1] > 0.0,
        default_init=_init_shifted_menzerath,
        jacobian=_jac_shifted_menzerath,
        derived=lambda p: {"B": shifted_menzerath_norm(p[0], p[1])},
    ),
    MEAN_SYLLABLE_POWER: Model(
        id=MEAN_SYLLABLE_POWER,
        param_names=("M_inf", "B", "c"),
        evaluate=_eval_mean_syllable_power,
        x_in_domain=lambda x: bool(np.all(x > 0)),
        params_in_domain=lambda p, x: True,
        default_init=_init_mean_syllable_power,
        jacobian=_jac_mean_syllable_power,
    ),
    MEAN_SYLLABLE_EXP: Model(
        id=MEAN_SYLLABLE_EXP,
        param_names=("A", "b", "c"),
        evaluate=_eval_mean_syllable_exp,
        x_in_domain=lambda x: bool(np.all(x > 0)),
        params_in_domain=lambda p, x: True,
        default_init=_init_mean_syllable_exp,
        jacobian=_jac_mean_syllable_exp,
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


def _as_param_array(model: Model, params: dict) -> np.ndarray:
    """The values of ``params``, a dict naming each parameter once, in model order."""
    missing = [name for name in model.param_names if name not in params]
    if missing:
        raise ValidationError(f"{model.id}: missing parameters {missing}")
    if unknown := [name for name in params if name not in model.param_names]:
        raise ValidationError(f"{model.id}: unknown parameters {unknown}")
    values = np.array([float(params[name]) for name in model.param_names])
    if not (finite := np.isfinite(values)).all():
        i = int(np.argmin(finite))
        name, value = model.param_names[i], float(values[i])
        raise ValidationError(f"{model.id}: parameter {name}={value!r} is not finite")
    return values


def model_eval(model: Model | str, params, x):
    """Evaluate a model at x (scalar or array), enforcing its domain.

    A domain or non-finite error names the first offending abscissa.
    """
    if isinstance(model, str):
        model = get_model(model)
    p = _as_param_array(model, params)
    scalar = np.isscalar(x)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if not model.x_in_domain(xs):
        bad = next(v for v in xs if not model.x_in_domain(v))
        raise DomainError(f"{model.id}: x={float(bad)!r} outside the model domain")
    if not model.params_in_domain(p, xs):
        raise DomainError(f"{model.id}: parameters {p.tolist()} outside the model domain")
    y = model.evaluate(p, xs)
    finite = np.isfinite(y)
    if not finite.all():
        bad = xs[np.argmin(finite)]
        raise DomainError(f"{model.id}: non-finite value at x={float(bad)!r}")
    return float(y[0]) if scalar else y
