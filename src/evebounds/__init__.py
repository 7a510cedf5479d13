"""Upper bounds and a Gram-matrix lower bound of an eavesdropper's von
Neumann entropy for discretely modulated continuous-variable QKD under the
entangling-cloner attack, with a truncated Fock-space oracle for
validation.  Each module's `__all__` is the one list of its public names,
and the top level re-exports them."""

from .states import *
from .linalg import *
from .unitaries import *
from .blochmessiah import *
from .cloner import *
from .bounds import *
from .fock import *

__version__ = "0.1.0"
