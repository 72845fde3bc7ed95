"""fracctrl: fractional-order (Caputo) LTI control systems.

Simulation of commensurate-order state-space systems, modified
controllability Gramians, Kalman rank analysis, and synthesis of
minimum-modified-energy and rank-based steering controls, with
Mittag-Leffler kernel evaluation and grid fractional calculus underneath.
"""

from . import controlsyn, errors, fraccalc, fracsys, mlkernel
# each module's __all__ is the one list of its public names
from .controlsyn import *  # noqa: F403
from .errors import *  # noqa: F403
from .fraccalc import *  # noqa: F403
from .fracsys import *  # noqa: F403
from .mlkernel import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*errors.__all__, *fraccalc.__all__, *fracsys.__all__, *mlkernel.__all__,
           *controlsyn.__all__]
