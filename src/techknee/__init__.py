"""techknee: fit technology improvement curves, detect performance
crossovers and adoption-curve knees, and sweep forecast uncertainty.

The bundled datasets reproduce two historical case studies (internet
audio vs CD-by-mail, internet video vs DVD-by-mail) end to end; see
`techknee reproduce` and the README. The root package exports what the
README's Library section uses or lists; everything else is imported from
its submodule (`techknee.sweep`, `techknee.costs`, ...).
"""

__version__ = "0.1.0"

from .adoption import UsageMetric
from .datasets import load_all
from .errors import TechkneeError
from .fitting import crossover_empirical, crossover_fitted, fit_exponential, knee, tir
from .series import AnnualSeries
from .sweep import adoption_series, replacement_performance, target_performance
