"""oppwalk: latency analysis for uniform random-walk (stateless
opportunistic) routing on cycle/torus families and wireless topologies.

The package exports exactly the error types and the __all__ of each
module below."""

from .errors import *  # noqa: F401,F403
from .graphs import *  # noqa: F401,F403
from .latency import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403
from .walker import *  # noqa: F401,F403
from .wireless import *  # noqa: F401,F403

__version__ = "0.1.0"
