import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from textlaws import DomainError, TextlawsError, ValidationError
from textlaws.fitting import (
    MODELS,
    Model,
    get_model,
    levmar,
    lm_fit,
    model_eval,
)

try:
    from scipy.optimize import least_squares
except ImportError:  # scipy is a test extra
    least_squares = None

# a two-parameter toy, F(r) = A / r**z, outside the registry
POWER = Model(
    id="Power",
    param_names=("A", "z"),
    evaluate=lambda p, x: p[0] * np.power(x, -p[1]),
    x_in_domain=lambda x: bool(np.all(x > 0)),
    params_in_domain=lambda p, x: True,
    default_init=lambda x, y: np.array([float(y[np.argmin(x)] * x.min()), 1.0]),
    jacobian=lambda p, x, f: np.stack((np.power(x, -p[1]), -f * np.log(x))),
)


# |a| * x: at a = 0 its Jacobian gives slope +x, yet every step away from
# the kink raises the SSE of data y = -x
KINK = Model(
    id="Kink",
    param_names=("a",),
    evaluate=lambda p, x: abs(p[0]) * x,
    x_in_domain=lambda x: bool(np.all(x > 0)),
    params_in_domain=lambda p, x: True,
    default_init=lambda x, y: np.array([0.0]),
    jacobian=lambda p, x, f: np.stack((x if p[0] >= 0 else -x,)),
)

# parameter ranges and abscissae on which each registry model is well posed
WELL_POSED = {
    "PhonemeGamma": ({"b": (0.2, 3.0), "alpha": (0.01, 0.5)}, np.arange(1.0, 21.0)),
    # the mode of the shifted density, t = d / gamma, lies inside the abscissae
    "ShiftedMenzerath": ({"d": (0.5, 8.0), "gamma": (1.0, 3.0)}, np.arange(0.0, 13.0)),
    "MeanSyllablePower": (
        {"M_inf": (1.0, 3.0), "B": (1.0, 2.0), "c": (-1.5, -0.5)}, np.arange(1.0, 13.0)
    ),
    "MeanSyllableExp": (
        {"A": (1.0, 5.0), "b": (-1.0, 0.5), "c": (-0.5, -0.05)}, np.arange(1.0, 13.0)
    ),
    "ZipfMandelbrot": (
        {"A": (1e2, 1e5), "b": (0.8, 1.5), "C": (0.0, 10.0)}, np.arange(1.0, 301.0)
    ),
}


def draw_params(data, model_id):
    ranges, _ = WELL_POSED[model_id]
    return {
        name: data.draw(st.floats(lo, hi), label=name) for name, (lo, hi) in ranges.items()
    }


def central_jacobian(model, p, x):
    """df/dp by central differences, one row per parameter: the oracle of the closed forms."""
    rows = []
    for j in range(p.size):
        h = 1e-5 * max(abs(p[j]), 1e-2)
        hi, lo = p.copy(), p.copy()
        hi[j] += h
        lo[j] -= h
        rows.append((model.evaluate(hi, x) - model.evaluate(lo, x)) / (2 * h))
    return np.stack(rows)


def synthetic(model_id, truth, xs):
    x = np.asarray(list(xs), dtype=float)
    y = model_eval(model_id, truth, x)
    return list(zip(x, y))


def test_noiseless_zipf_recovery_from_given_init():
    data = synthetic(POWER, {"A": 50.0, "z": 1.2}, range(1, 25))
    result = lm_fit(POWER, data, init={"A": 40.0, "z": 1.0})
    assert result.converged
    assert result.params["A"] == pytest.approx(50.0, rel=1e-8)
    assert result.params["z"] == pytest.approx(1.2, rel=1e-8)
    assert result.sse < 1e-18


def test_noiseless_mean_syllable_power_recovery():
    truth = {"M_inf": 1.984, "B": 1.464, "c": -1.119}
    data = synthetic("MeanSyllablePower", truth, range(1, 7))
    result = lm_fit("MeanSyllablePower", data)
    assert result.converged
    for name, value in truth.items():
        assert result.params[name] == pytest.approx(value, rel=1e-6)


def test_noisy_phoneme_density_medians_and_grid_oracle():
    """1% multiplicative noise, 100 seeds: medians within 5% of truth.

    Seed 0 is additionally cross-checked against a dense grid search: the
    damped fit must reach at least as small an SSE as the best grid node.
    """
    truth = {"b": 0.6347, "alpha": 0.02579}
    x = np.arange(1.0, 21.0)
    y0 = model_eval("PhonemeGamma", truth, x)
    fitted_b, fitted_alpha = [], []
    seed0_result = None
    for seed in range(100):
        rng = np.random.default_rng(seed)
        y = y0 * (1.0 + 0.01 * rng.standard_normal(x.size))
        result = lm_fit("PhonemeGamma", list(zip(x, y)))
        fitted_b.append(result.params["b"])
        fitted_alpha.append(result.params["alpha"])
        if seed == 0:
            seed0_result = result
            seed0_y = y
    assert abs(np.median(fitted_b) - truth["b"]) / truth["b"] < 0.05
    assert abs(np.median(fitted_alpha) - truth["alpha"]) / truth["alpha"] < 0.05

    # grid-search oracle around the plausible region
    model = get_model("PhonemeGamma")
    b_grid = np.linspace(0.3, 1.0, 141)
    a_grid = np.linspace(0.01, 0.05, 161)
    best = np.inf
    best_node = None
    for b in b_grid:
        for a in a_grid:
            resid = seed0_y - model.evaluate(np.array([b, a]), x)
            sse = float(resid @ resid)
            if sse < best:
                best, best_node = sse, (b, a)
    assert seed0_result.sse <= best + 1e-15
    assert abs(seed0_result.params["b"] - best_node[0]) <= 0.01
    assert abs(seed0_result.params["alpha"] - best_node[1]) <= 0.0005


def test_sse_trace_is_strictly_decreasing():
    for model_id, truth, xs in [
        (POWER, {"A": 120.0, "z": 1.1}, range(1, 40)),
        ("ShiftedMenzerath", {"d": 5.805, "gamma": 2.245}, range(0, 13)),
        ("ZipfMandelbrot", {"A": 900.0, "b": 1.2, "C": 3.0}, range(1, 150)),
    ]:
        x = np.asarray(list(xs), dtype=float)
        rng = np.random.default_rng(17)
        y = model_eval(model_id, truth, x) * (1 + 0.05 * rng.standard_normal(x.size))
        result = lm_fit(model_id, list(zip(x, y)))
        trace = result.sse_trace
        assert all(b < a for a, b in zip(trace, trace[1:]))


def test_bit_identical_reruns():
    data = synthetic("ZipfMandelbrot", {"A": 25000.0, "b": 1.14, "C": 5.2}, range(1, 400))
    first = lm_fit("ZipfMandelbrot", data)
    second = lm_fit("ZipfMandelbrot", data)
    assert first.params == second.params
    assert first.sse_trace == second.sse_trace
    assert first.final_lambda == second.final_lambda


def test_stall_returns_nonconverged_without_exception():
    # no step can lower the SSE, although the derivative promises a decrease:
    # the damping factor must climb past its cap and the fit must report
    # failure instead of raising
    x = np.arange(1.0, 20.0)
    result = lm_fit(KINK, list(zip(x, -x)))
    assert result.converged is False
    assert result.iterations < levmar._MAX_ITERATIONS
    assert result.final_lambda > levmar._MAX_LAMBDA
    assert result.sse == min(result.sse_trace)


def test_noisy_large_frequencies_converge():
    # frequencies of about 1e4 with 5% noise: a gradient test on an absolute
    # scale never fired here, the test scaled by the SSE does
    x = np.arange(1.0, 200.0)
    rng = np.random.default_rng(1)
    y = model_eval("ZipfMandelbrot", {"A": 25000.0, "b": 1.14, "C": 5.2}, x)
    y = y * (1 + 0.05 * rng.standard_normal(x.size))
    result = lm_fit("ZipfMandelbrot", list(zip(x, y)))
    assert result.converged is True
    assert result.iterations < levmar._MAX_ITERATIONS
    assert result.final_lambda <= levmar._MAX_LAMBDA
    assert result.sse == min(result.sse_trace)


@pytest.mark.parametrize(
    "model_id, init",
    [
        ("ZipfMandelbrot", {"A": 0.0, "b": 1.0, "C": 1.0}),
        ("MeanSyllableExp", {"A": 0.0, "b": -1.0, "c": 0.0}),
    ],
)
def test_zero_amplitude_start_fits(model_id, init):
    # the closed-form dF/dA = F/A is 0/0 there; the derivative is still defined.
    # ZipfMandelbrot's fit replaces the start amplitude by its closed form, so
    # its Jacobian at A = 0 is checked against central differences directly
    ranges, x = WELL_POSED[model_id]
    truth = {name: (lo + hi) / 2 for name, (lo, hi) in ranges.items()}
    result = lm_fit(model_id, synthetic(model_id, truth, x), init=init)
    assert result.converged
    assert result.params == pytest.approx(truth, rel=1e-6)
    model = get_model(model_id)
    p = np.array([init[name] for name in model.param_names])
    f = model.evaluate(p, x)
    closed = model.jacobian(p, x, f)
    assert np.all(closed[0] > 0)
    assert closed[0] == pytest.approx(central_jacobian(model, p, x)[0], rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_closed_form_jacobians_match_forward_differences(data):
    model_id = data.draw(st.sampled_from(sorted(MODELS)))
    model = get_model(model_id)
    _, x = WELL_POSED[model_id]
    if model_id == "PhonemeGamma":
        # the density is 0 at the origin for b > 0, and so is its b-derivative
        x = np.concatenate(([0.0], x))
    p = np.array(list(draw_params(data, model_id).values()))
    f = model.evaluate(p, x)
    closed = model.jacobian(p, x, f)
    assert closed.shape == (model.n_params, x.size)
    assert np.all(np.isfinite(closed))
    central = central_jacobian(model, p, x)
    # each parameter's row, relative to its largest entry
    scale = np.max(np.abs(central), axis=1, keepdims=True)
    assert np.all(np.abs(closed - central) <= 1e-7 * scale)


@pytest.mark.skipif(least_squares is None, reason="scipy is not installed")
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fits_match_scipy_least_squares(data):
    model_id = data.draw(st.sampled_from(sorted(WELL_POSED)))
    model = get_model(model_id)
    _, x = WELL_POSED[model_id]
    truth = draw_params(data, model_id)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    y = model_eval(model, truth, x) * (1 + 0.01 * rng.standard_normal(x.size))
    ours = lm_fit(model, list(zip(x, y)))

    def residual(p):
        # scipy's lm has no domain: a huge residual rejects the step, as lm_fit does
        return y - model.evaluate(p, x) if model.params_in_domain(p, x) else np.full(x.size, 1e100)

    theirs = least_squares(residual, model.default_init(x, y), method="lm")
    sse = float(theirs.fun @ theirs.fun)
    assert ours.sse <= sse * (1 + 1e-9)
    cov = np.linalg.inv(theirs.jac.T @ theirs.jac) * (sse / (x.size - model.n_params))
    stderr = [ours.stderr[name] for name in model.param_names]
    assert stderr == pytest.approx(np.sqrt(np.diag(cov)), rel=1e-4)


def test_far_zipf_mandelbrot_optimum_converges_from_the_default_guess():
    # a steep spectrum, b = 7.4 and C = 47, far from the guess b = C = 1: a
    # loop over (A, b, C) together ran all three off and stopped unconverged
    x = np.arange(1.0, 2001.0)
    y = np.round(3000.0 * 48.0 ** 7.4 * (x + 47.0) ** -7.4)
    result = lm_fit("ZipfMandelbrot", np.column_stack((x, y)))
    assert result.converged
    assert result.iterations <= levmar._MAX_ITERATIONS // 4
    amp, b, offset = (result.params[name] for name in ("A", "b", "C"))
    assert b == pytest.approx(7.4, abs=0.1) and offset == pytest.approx(47.0, abs=1.0)
    g = np.power(x + offset, -b)
    assert amp == pytest.approx(float(g @ y) / float(g @ g), rel=1e-12)
    if least_squares is None:
        pytest.skip("scipy is not installed")
    theirs = least_squares(
        lambda p: y - p[0] * np.power(x + p[2], -p[1]), [amp, b, offset], method="lm"
    )
    assert result.sse <= float(theirs.fun @ theirs.fun) * (1 + 1e-9)


def test_exact_recovery_can_reach_zero_sse():
    data = synthetic(POWER, {"A": 5.0, "z": 1.0}, range(1, 12))
    result = lm_fit(POWER, data, init={"A": 4.0, "z": 0.9})
    assert result.converged
    assert result.sse < 1e-18


def test_max_iterations_reached_is_not_converged(monkeypatch):
    monkeypatch.setattr(levmar, "_MAX_ITERATIONS", 1)
    truth = {"A": 25000.0, "b": 1.14, "C": 5.2}
    data = synthetic("ZipfMandelbrot", truth, range(1, 200))
    result = lm_fit("ZipfMandelbrot", data)
    assert result.converged is False
    assert result.iterations == 1


def test_derived_constants_recomputed_from_fit():
    truth = {"d": 5.805, "gamma": 2.245}
    data = synthetic("ShiftedMenzerath", truth, range(0, 13))
    result = lm_fit("ShiftedMenzerath", data)
    d, rate = result.params["d"], result.params["gamma"]
    assert result.derived["B"] == pytest.approx(rate ** (d + 1) / math.gamma(d + 1), rel=1e-12)


@pytest.mark.parametrize(
    "model_id, init",
    [("PhonemeGamma", {"b": 800.0, "alpha": 1e3}), ("ShiftedMenzerath", {"d": 300.0, "gamma": 1e3})],
)
def test_start_at_a_huge_shape_raises_only_textlaws_errors(model_id, init):
    # the norm constant is inf or near the float limit there
    ranges, x = WELL_POSED[model_id]
    truth = {name: (lo + hi) / 2 for name, (lo, hi) in ranges.items()}
    try:
        lm_fit(model_id, synthetic(model_id, truth, x), init=init)
    except TextlawsError:
        pass


def test_too_few_points_rejected():
    with pytest.raises(ValidationError):
        lm_fit("ZipfMandelbrot", [(1.0, 10.0), (2.0, 5.0)])


@pytest.mark.parametrize("model_id", ["MeanSyllablePower", "MeanSyllableExp"])
def test_no_data_reports_too_few_points(model_id):
    # an empty mean-syllable series reaches the fit as no pairs at all
    with pytest.raises(ValidationError, match=f"^{model_id}: 0 data points cannot determine 3 "):
        lm_fit(model_id, [])
    with pytest.raises(ValidationError, match="sequence of \\(x, y\\) pairs"):
        lm_fit(model_id, [(1.0,)])


def test_init_outside_domain_rejected():
    data = synthetic("PhonemeGamma", {"b": 0.6, "alpha": 0.03}, range(1, 15))
    with pytest.raises(DomainError):
        lm_fit("PhonemeGamma", data, init={"b": 0.6, "alpha": -1.0})


def test_data_outside_domain_rejected():
    with pytest.raises(DomainError):
        lm_fit(POWER, [(-1.0, 2.0), (1.0, 1.0), (2.0, 0.5)])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_data_point_named(bad):
    data = synthetic("ZipfMandelbrot", {"A": 900.0, "b": 1.2, "C": 3.0}, range(1, 20))
    data[6] = (data[6][0], bad)
    data[9] = (bad, data[9][1])
    with pytest.raises(ValidationError) as info:
        lm_fit("ZipfMandelbrot", data)
    assert str(info.value) == f"ZipfMandelbrot: data point #7 (7.0, {bad!r}) is not finite"


def test_init_with_unknown_parameter_rejected():
    data = synthetic("ZipfMandelbrot", {"A": 900.0, "b": 1.2, "C": 3.0}, range(1, 20))
    init = {"A": 100.0, "b": 1.1, "C": 2.0, "c": 9.0}
    with pytest.raises(ValidationError, match=r"^ZipfMandelbrot: unknown parameters \['c'\]$"):
        lm_fit("ZipfMandelbrot", data, init=init)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 1e400])
def test_non_finite_init_named(bad):
    data = synthetic("ZipfMandelbrot", {"A": 900.0, "b": 1.2, "C": 3.0}, range(1, 20))
    with pytest.raises(ValidationError) as info:
        lm_fit("ZipfMandelbrot", data, init={"A": 800.0, "b": bad, "C": 2.0})
    assert str(info.value) == f"ZipfMandelbrot: parameter b={float(bad)!r} is not finite"


def test_stderr_reported_for_noisy_fit():
    x = np.arange(1.0, 30.0)
    rng = np.random.default_rng(2)
    y = model_eval(POWER, {"A": 50.0, "z": 1.2}, x) * (1 + 0.02 * rng.standard_normal(x.size))
    result = lm_fit(POWER, list(zip(x, y)))
    assert result.stderr["A"] > 0
    assert result.stderr["z"] > 0


@pytest.mark.parametrize("n", [2, 3])
def test_solver_matches_numpy_on_well_conditioned_systems(n):
    rng = np.random.default_rng(n)
    checked = 0
    while checked < 200:
        a = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3)
        if np.linalg.cond(a) > 100:
            continue
        b = rng.standard_normal(n)
        shift = rng.uniform(0, 1, n)
        for x, expected in (
            (levmar._solve(a.tolist(), b.tolist()), np.linalg.solve(a, b)),
            (levmar._solve(a.tolist(), b.tolist(), shift.tolist()),
             np.linalg.solve(a + np.diag(shift), b)),
        ):
            assert np.max(np.abs(np.array(x) - expected)) <= 1e-12 * np.max(np.abs(expected))
        checked += 1


def test_solver_pivots_and_reports_singular_systems():
    # a zero leading entry needs a row swap
    assert levmar._solve([[0.0, 2.0], [4.0, 0.0]], [2.0, 8.0]).tolist() == [2.0, 1.0]
    assert levmar._solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0]) is None
    assert levmar._solve([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]], [1.0] * 3) is None
    assert levmar._solve([[float("nan"), 1.0], [1.0, 1.0]], [1.0, 1.0]) is None
    assert levmar._solve([[1.0, 1.0], [1.0, float("inf")]], [1.0, 1.0]) is None


def test_singular_normal_equations_at_every_damping_level_do_not_raise():
    # a Jacobian of nan makes every pivot nan, as no damping can repair
    broken = dataclasses.replace(
        POWER, id="Broken", jacobian=lambda p, x, f: np.full((2, x.size), np.nan)
    )
    x = np.arange(1.0, 20.0)
    result = lm_fit(broken, list(zip(x, 50.0 / x)))
    assert result.converged is False
    assert result.final_lambda > levmar._MAX_LAMBDA
    assert result.sse_trace == (result.sse,)
    assert all(np.isnan(e) for e in result.stderr.values())


def test_fit_loop_calls_no_blas():
    # BLAS products and LAPACK solves round per kernel and thread count
    source = Path(levmar.__file__).read_text(encoding="utf-8")
    code = [line.split("#")[0] for line in source.splitlines()]
    assert not [line for line in code if re.search(r"\s@\s|np\.dot|np\.linalg|\.dot\(", line)]
