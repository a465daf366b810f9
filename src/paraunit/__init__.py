"""Rational matrix functions (co)isometric on the unit circle.

Three interchangeable certificates of circle (co)isometry (realization
matrix, block-Hankel coefficient tests, direct circle sampling), the
Blaschke-Potapov product representation with its real-angle parametrization,
conversions between the representations, and a lossless-approximation
fitting harness.

``import paraunit`` loads none of the package's modules: each public name
loads the module that defines it on first access (PEP 562), and so does
each submodule name, such as ``paraunit.analysis``.
"""

import importlib

__version__ = "0.1.0"

#: The public names, by the submodule that defines them.
_EXPORTS = {
    "analysis": (
        "Certificate",
        "circle_residual",
        "gramian_certificate",
        "laurent_check",
        "mcmillan_degree",
        "mfd_check",
        "realization_check",
    ),
    "errors": (
        "AngleCountMismatch",
        "ConvergenceFailure",
        "DimensionMismatch",
        "DocumentError",
        "EvalAtPole",
        "ImproperFunction",
        "InconsistentPair",
        "NotCoIsometricRealization",
        "NotFIR",
        "NotHermitian",
        "NotIsometric",
        "NotIsometricConstant",
        "NotSchurStable",
        "ParaunitError",
        "PoleNotInDisk",
        "SideMismatch",
        "SingularDenominator",
    ),
    "fit": ("FitResult", "SampleSet", "fit_lossless", "objective"),
    "forms": (
        "COISO",
        "ISO",
        "LEFT",
        "RIGHT",
        "BlaschkePotapovForm",
        "LaurentPolyForm",
        "MFDForm",
        "Pole",
        "StateSpaceRealization",
        "blaschke_scalar",
        "evaluate",
    ),
    "linalg": ("hermitian_eig", "solve_stein", "spectral_radius", "unitary_completion"),
    "params": (
        "ParaunitaryParam",
        "build_paraunitary",
        "isometry_from_angles",
        "param_count",
        "random_params",
        "unit_vector_from_angles",
    ),
    "transforms": (
        "allpass_embed",
        "bp_to_laurent",
        "bp_to_mfd",
        "bp_to_realization",
        "conjugate",
        "embed_to_square",
        "extract_constant",
        "flip_poles",
        "flip_scalar",
        "ss_to_mfd",
        "truncate_to_rect",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "documents", "tolerances")

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Load ``name`` from its module on first access and keep it as a global."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
