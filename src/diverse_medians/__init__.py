"""Hamming medians and diverse near-median sets over finite alphabets.

Every name in ``__all__`` is resolved from its module on first access
(PEP 562), so importing the package, or one of its modules, loads no engine
module that the caller does not use.
"""

from importlib import import_module

# module -> the public names it defines
_EXPORTS = {
    "core": (
        "Budget",
        "CandidateSet",
        "CapExceeded",
        "DEFAULT_LIMITS",
        "Dataset",
        "EnumerationLimits",
        "InfeasibleError",
        "InternalError",
        "MedianContext",
        "SolverNotConverged",
        "ValidationError",
        "build_context",
        "context_from_strings",
        "hamming",
        "is_approx_median",
        "is_exact_median",
        "median_cost",
        "min_dispersion",
        "sum_dispersion",
    ),
    "diameter": (
        "DiameterResult",
        "approx_diameter_pair",
        "exact_diameter_pair",
        "min_diff_partition",
    ),
    "lpround": (
        "IlpModel",
        "LpReport",
        "build_ilp",
        "dependent_round",
        "lp_min_dispersion",
        "solve_lp_relaxation",
    ),
    "mindisp": (
        "BoundCertificate",
        "SampleConfig",
        "bound_certificate",
        "greedy_dispersion",
        "min_disp_dp_approx",
        "min_disp_dp_exact",
        "sample_approx_medians",
        "sample_exact_medians",
        "tstar_upper_bound",
    ),
    "oracle": (
        "approx_median_pool",
        "brute_diameter",
        "brute_max_code_size",
        "brute_mindp_k",
        "brute_sumdp_k",
        "enumerate_approx_medians",
        "enumerate_exact_medians",
    ),
    "sumdisp": (
        "build_oplist",
        "cost_greedy_assign",
        "sum_dispersion_approx_k",
        "sum_dispersion_exact_k",
        "sum_dispersion_small_dstar",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
