import math

import numpy as np
import pytest
from scipy.integrate import quad

from textlaws import DomainError, ValidationError
from textlaws.fitting import MODELS, get_model, lm_fit, model_eval
from textlaws.fitting.models import phoneme_gamma_norm, shifted_menzerath_norm


class TestNormalization:
    def test_unit_parameters_give_two(self):
        assert phoneme_gamma_norm(1.0, 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_phoneme_density_integrates_to_one(self):
        b, alpha = 0.6347, 0.02579
        a = phoneme_gamma_norm(b, alpha)
        integral, _ = quad(lambda p: a * p**b * math.exp(-alpha * p * p), 0, math.inf)
        assert abs(integral - 1.0) <= 1e-6

    def test_syllable_density_integrates_to_one(self):
        d, rate = 5.805, 2.245
        bnorm = shifted_menzerath_norm(d, rate)
        integral, _ = quad(lambda t: bnorm * t**d * math.exp(-rate * t), 0, math.inf)
        assert abs(integral - 1.0) <= 1e-6

    @pytest.mark.parametrize("params", [
        {"b": -1.0, "alpha": 1.0},
        {"b": -1.5, "alpha": 1.0},
        {"b": 1.0, "alpha": 0.0},
        {"b": 1.0, "alpha": -2.0},
    ])
    def test_out_of_domain_parameters(self, params):
        with pytest.raises(DomainError):
            phoneme_gamma_norm(params["b"], params["alpha"])

    @pytest.mark.parametrize("real", [float, np.float64])
    def test_large_shapes_neither_overflow_into_nan_nor_raise(self, real):
        # log10 of B = 1e3**301 / 300! summed term by term, independent of lgamma
        log10_b = 903.0 - math.fsum(math.log10(k) for k in range(1, 301))
        b_const = shifted_menzerath_norm(real(300.0), real(1e3))
        assert b_const == pytest.approx(10.0**log10_b, rel=1e-10)
        # A = 2 * 1e3**400.5 / Gamma(400.5) is about 1e335, past the float range
        assert phoneme_gamma_norm(real(800.0), real(1e3)) == math.inf
        # ln Gamma overflows too
        assert shifted_menzerath_norm(real(1e307), real(2.0)) == math.inf

    def test_models_without_constant(self):
        # only the two densities derive a constant from their fitted shape
        assert {m.id for m in MODELS.values() if m.derived} == {"PhonemeGamma", "ShiftedMenzerath"}
        data = [(x, 2.0 * x ** 0.5 + 1.0) for x in (1.0, 2.0, 3.0, 4.0, 5.0)]
        assert lm_fit("MeanSyllablePower", data).derived == {}

    @pytest.mark.parametrize("b,alpha", [(0.2, 0.5), (1.7, 0.01), (3.0, 2.0)])
    def test_normalization_property_random_shapes(self, b, alpha):
        a = phoneme_gamma_norm(b, alpha)
        integral, _ = quad(lambda p: a * p**b * math.exp(-alpha * p * p), 0, math.inf)
        assert abs(integral - 1.0) <= 1e-6


class TestModelEval:
    def test_zipf_mandelbrot_at_rank_one(self):
        expected = 25000.0 / 6.2**1.14
        value = model_eval("ZipfMandelbrot", {"A": 25000.0, "b": 1.14, "C": 5.2}, 1.0)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_phoneme_gamma_is_zero_at_origin_for_positive_shape(self):
        assert model_eval("PhonemeGamma", {"b": 0.6347, "alpha": 0.02579}, 0.0) == 0.0

    def test_shifted_density_valid_at_zero(self):
        value = model_eval("ShiftedMenzerath", {"d": 5.805, "gamma": 2.245}, 0.0)
        assert value > 0.0

    def test_mean_syllable_power_excludes_zero(self):
        with pytest.raises(DomainError):
            model_eval("MeanSyllablePower", {"M_inf": 2.0, "B": 1.5, "c": -1.1}, 0.0)

    def test_negative_rank_rejected(self):
        with pytest.raises(DomainError, match="ZipfMandelbrot"):
            model_eval("ZipfMandelbrot", {"A": 1.0, "b": 1.0, "C": 0.0}, -3.0)

    def test_mandelbrot_offset_domain(self):
        with pytest.raises(DomainError):
            model_eval("ZipfMandelbrot", {"A": 1.0, "b": 1.0, "C": -2.0}, 1.0)

    def test_vectorized_evaluation(self):
        params = {"A": 100.0, "b": 1.0, "C": 0.0}
        values = model_eval("ZipfMandelbrot", params, np.array([1.0, 2.0, 4.0]))
        assert np.allclose(values, [100.0, 50.0, 25.0])

    def test_array_domain_error_names_first_offending_abscissa(self):
        ranks = np.concatenate([np.arange(1.0, 5001.0), [-3.0, -7.0]])
        with pytest.raises(DomainError) as info:
            model_eval("ZipfMandelbrot", {"A": 1.0, "b": 1.0, "C": 0.0}, ranks)
        assert str(info.value) == "ZipfMandelbrot: x=-3.0 outside the model domain"

    def test_array_non_finite_error_names_first_offending_abscissa(self):
        # exp(c x) overflows from x = 710 on
        x = np.arange(1.0, 5001.0)
        with pytest.raises(DomainError) as info:
            model_eval("MeanSyllableExp", {"A": 1.0, "b": 0.0, "c": 1.0}, x)
        assert str(info.value) == "MeanSyllableExp: non-finite value at x=710.0"

    def test_unknown_model(self):
        with pytest.raises(ValidationError, match="unknown model"):
            model_eval("NoSuchModel", {}, 1.0)

    def test_missing_parameter_named(self):
        with pytest.raises(ValidationError, match="alpha"):
            model_eval("PhonemeGamma", {"b": 1.0}, 1.0)

    def test_unknown_parameter_named(self):
        params = {"A": 100.0, "b": 1.1, "C": 2.0, "c": 9.0}
        with pytest.raises(ValidationError, match=r"^ZipfMandelbrot: unknown parameters \['c'\]$"):
            model_eval("ZipfMandelbrot", params, 3.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_parameter_named(self, bad):
        params = {"A": 100.0, "b": 1.1, "C": bad}
        with pytest.raises(ValidationError) as info:
            model_eval("ZipfMandelbrot", params, 3.0)
        assert str(info.value) == f"ZipfMandelbrot: parameter C={bad!r} is not finite"

    def test_mean_syllable_exp_shape(self):
        value = model_eval("MeanSyllableExp", {"A": 2.5, "b": -0.4, "c": 0.05}, 2.0)
        assert value == pytest.approx(2.5 * 2.0**-0.4 * math.exp(0.1), rel=1e-12)


class TestCatalog:
    def test_every_model_has_unique_parameter_names(self):
        for model in MODELS.values():
            assert len(set(model.param_names)) == len(model.param_names)

    def test_default_init_shapes(self):
        x = np.arange(1.0, 11.0)
        y = 1.0 / x
        for model in MODELS.values():
            init = model.default_init(x, y)
            assert init.shape == (model.n_params,)
            assert np.all(np.isfinite(init))

    def test_get_model_round_trip(self):
        assert get_model("ZipfMandelbrot").id == "ZipfMandelbrot"

    def test_registry_holds_the_five_least_squares_models(self):
        assert list(MODELS) == ["PhonemeGamma", "ShiftedMenzerath", "MeanSyllablePower",
                                "MeanSyllableExp", "ZipfMandelbrot"]
        for interval_fit in ("ZipfPower", "LogCoverage"):
            with pytest.raises(ValidationError, match="unknown model"):
                get_model(interval_fit)
