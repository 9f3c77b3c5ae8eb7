"""Root statistics for truncated power series.

The package studies where the zeros of the partial sums of a power series
go. Finite truncations are root-found with a certified-tolerance solver,
their zeros are projected to radial counting measures (with deferred mass
at infinity when leading coefficients vanish), and coefficient windows
supply the gauge and index statistics that predict whether those measures
cluster at the unit circle. Random coefficient ensembles and an explicit
universal construction round out the toolkit.
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import (bounds, ensembles, exceptions, gauge, measures, roots, series,
               universal)
from .exceptions import *  # noqa: F401,F403
from .series import *  # noqa: F401,F403
from .roots import *  # noqa: F401,F403
from .measures import *  # noqa: F401,F403
from .bounds import *  # noqa: F401,F403
from .gauge import *  # noqa: F401,F403
from .ensembles import *  # noqa: F401,F403
from .universal import *  # noqa: F401,F403

__all__ = [name for module in (exceptions, series, roots, measures, bounds,
                               gauge, ensembles, universal)
           for name in module.__all__]
