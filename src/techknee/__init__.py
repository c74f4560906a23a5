"""techknee: fit technology improvement curves, detect performance
crossovers and adoption-curve knees, and sweep forecast uncertainty.

The bundled datasets reproduce two historical case studies (internet
audio vs CD-by-mail, internet video vs DVD-by-mail) end to end; see
`techknee reproduce` and the README. The root package exports what the
README's Library section uses or lists; everything else is imported from
its submodule (`techknee.sweep`, `techknee.costs`, ...). Each root name
imports its submodule the first time it is read, so `import techknee`
alone loads none of them.
"""

__version__ = "0.1.0"

# Root export -> the submodule that defines it.
_EXPORTS = {
    "AnnualSeries": "series",
    "UsageMetric": "adoption",
    "adoption_series": "sweep",
    "crossover_empirical": "fitting",
    "crossover_fitted": "fitting",
    "fit_exponential": "fitting",
    "knee": "fitting",
    "load_all": "datasets",
    "replacement_performance": "sweep",
    "target_performance": "sweep",
    "tir": "fitting",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """Resolve a root export on first use (PEP 562) and keep it bound."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value
