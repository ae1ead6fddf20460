"""Model catalog, damped least squares and segmented fits."""

from .levmar import FitResult, lm_fit
from .models import (
    MEAN_SYLLABLE_EXP,
    MEAN_SYLLABLE_POWER,
    MODELS,
    PHONEME_GAMMA,
    SHIFTED_MENZERATH,
    ZIPF_MANDELBROT,
    Model,
    get_model,
    model_eval,
)
from .segmented import (
    DEFAULT_COVERAGE_BREAKPOINTS,
    DEFAULT_ZIPF_BREAKPOINTS,
    CoverageSegment,
    PowerLawSegment,
    ShortSegment,
    fit_coverage,
    ols_line,
    segmented_loglog_fit,
)

__all__ = [
    "DEFAULT_COVERAGE_BREAKPOINTS",
    "DEFAULT_ZIPF_BREAKPOINTS",
    "MEAN_SYLLABLE_EXP",
    "MEAN_SYLLABLE_POWER",
    "MODELS",
    "PHONEME_GAMMA",
    "SHIFTED_MENZERATH",
    "ZIPF_MANDELBROT",
    "CoverageSegment",
    "FitResult",
    "Model",
    "PowerLawSegment",
    "ShortSegment",
    "fit_coverage",
    "get_model",
    "lm_fit",
    "model_eval",
    "ols_line",
    "segmented_loglog_fit",
]
