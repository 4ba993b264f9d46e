"""Reconstruction of vibrating-string mass distributions from continued-fraction data.

The package splits into small layers: canonical discrete strings and
continued-fraction containers (``strings``, ``continued``), forward evaluation
of characteristic functions (``evaluate``), the inverse algorithm
(``inversion``), string transforms (``transforms``), closed-form coefficient
families (``families``), moment-to-coefficient conversion (``moments``),
error metrics and rate studies (``metrics``), file formats
(``serialization``), and a command-line front end (``cli``).
"""

from .continued import ContinuedFraction, Form, krein_fraction, stieltjes_fraction
from .evaluate import char_function, eval_fraction, levy_exponent
from .families import (
    bessel_drift_coefficients,
    log_limit_coefficients,
    tanh_coefficients,
)
from .inversion import invert
from .metrics import ConvergenceStudy, ErrorReport, averaged_error, convergence_study, sup_error
from .moments import (
    DeterminacyReport,
    coefficients_from_moments,
    determinacy_diagnostic,
    stieltjes_from_moments_exact,
)
from .strings import DiscreteString, eval_mass, validate_string
from .transforms import dual, remove_zero_atom

__version__ = "0.1.0"

__all__ = [
    "ContinuedFraction",
    "ConvergenceStudy",
    "DeterminacyReport",
    "DiscreteString",
    "ErrorReport",
    "Form",
    "averaged_error",
    "bessel_drift_coefficients",
    "char_function",
    "coefficients_from_moments",
    "convergence_study",
    "determinacy_diagnostic",
    "dual",
    "eval_fraction",
    "eval_mass",
    "invert",
    "krein_fraction",
    "levy_exponent",
    "log_limit_coefficients",
    "remove_zero_atom",
    "stieltjes_fraction",
    "stieltjes_from_moments_exact",
    "sup_error",
    "tanh_coefficients",
    "validate_string",
]
