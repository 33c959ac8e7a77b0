"""Codes over F_q + uF_q with u^2 = 1: construction, spectra, verification.

The public names below load on first use (PEP 562), so ``import leecodes``
and ``import leecodes.cli`` compile no numeric submodule and do not import
numpy; a one-shot CLI process pays only for the submodules its command runs.
"""

import importlib

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("CountResult", "GaussValue", "gauss_sum", "gauss_sum_closed", "gauss_sum_oracle",
         "nested_char_sum", "quadratic_sum", "square_trace_char_sum", "square_trace_count",
         "square_trace_pair_count", "zero_trace_pair_count"),
        "charsums"),
    **dict.fromkeys(
        ("CweSpectrum", "DefiningSet", "GrayReport", "LeeSpectrum", "build_defining_set",
         "codeword", "cwe_bruteforce", "cwe_closed", "defining_set_census", "gray_dimension",
         "gray_image_length", "lee_spectrum_bruteforce", "lee_spectrum_closed"),
        "codes"),
    **dict.fromkeys(("Field", "make_field", "root_of_unity"), "gf"),
    **dict.fromkeys(
        ("RingElement", "RingVector", "from_crt", "gray_map", "lee_distance", "lee_weight",
         "ring_trace_frobenius"),
        "ring"),
    **dict.fromkeys(
        ("MinimalityReport", "MinimalityRatios", "ab_check", "covers",
         "minimal_codewords_exhaustive", "minimality_ratios"),
        "sss"),
}

_SUBMODULES = frozenset(_EXPORTS.values()) | {"errors"}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:  # leecodes.gf etc. without importing leecodes.gf first
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
