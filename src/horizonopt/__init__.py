"""Expected-utility portfolio optimization with an uncertain discrete horizon.

Closed-form concave (Merton-type) solutions, the concavified solver for
participating-contract payoffs with an uncertain stopping date, and the
Monte-Carlo analytics behind the horizon-risk comparisons.
"""

from .market import *
from .payoff import *
from .concave import *
from .nonconcave import *
from .analytics import *
from . import analytics, concave, market, nonconcave, payoff

__version__ = "0.1.0"

__all__ = [
    *market.__all__,
    *payoff.__all__,
    *concave.__all__,
    *nonconcave.__all__,
    *analytics.__all__,
    "__version__",
]
