"""Fast distributional Shapley data valuation.

Closed-form and sampled estimators of distributional Shapley values for
linear regression, binary classification (via the IRLS working-response
transform) and kernel density estimation, validated against an exact
subset-enumeration oracle and a slow Monte-Carlo baseline.

Each module's ``__all__`` is the one list of its public names; the package
re-exports them all (``cli`` excepted).
"""

from .baseline import *
from .classification import *
from .datasets import *
from .density import *
from .errors import *
from .estimates import *
from .experiments import *
from .numerics import *
from .output import *
from .regression import *

__version__ = "0.1.0"
