"""Last-iterate convergence toolkit for SGD on smooth convex finite sums.

The package builds finite-sum problems with certified minimizers, runs
seeded constant-step SGD (single-sample or mini-batch), evaluates
non-asymptotic bounds on the expected final-iterate suboptimality, checks
the supporting numeric inequalities on grids, and compares Monte Carlo
gap estimates against the bounds, all with bitwise-reproducible results.

Each module's ``__all__`` is the one declaration of its public names; the
package re-exports their union.
"""

from . import bounds, config, lemmas, montecarlo, problems, rng, sgd
from .bounds import *  # noqa: F401,F403
from .config import *  # noqa: F401,F403
from .lemmas import *  # noqa: F401,F403
from .montecarlo import *  # noqa: F401,F403
from .problems import *  # noqa: F401,F403
from .rng import *  # noqa: F401,F403
from .sgd import *  # noqa: F401,F403

__all__ = sorted({name for module in (bounds, config, lemmas, montecarlo, problems, rng, sgd)
                  for name in module.__all__})

__version__ = "0.1.0"
