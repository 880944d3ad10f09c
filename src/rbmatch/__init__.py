"""rbmatch: estimators, exact solvers and a Monte-Carlo harness for random
bipartite matching on segments and regular discrete networks.

Each library module's ``__all__`` is its public API, and the package
re-exports exactly those names. ``cli`` is not imported here, so
``import rbmatch`` does not load it."""

from .assignment import *
from .combinatorics import *
from .estimators import *
from .exact1d import *
from .montecarlo import *
from .network import *
from .types import *

__version__ = "0.1.0"
