"""Color reversal of bicolored graphs by local inversions.

The root exports the README's Library API: graphs, word application, the
certified word builders and their verifier, the exact oracle, the errors.
Every other name comes from its module: :mod:`locinv.graph_core`,
:mod:`locinv.partitioner`, :mod:`locinv.synthesizer`, :mod:`locinv.oracle`,
:mod:`locinv.graph6` or :mod:`locinv.cli`.
"""

from .errors import (
    BoundExceededError,
    CapExceededError,
    Graph6Error,
    UnsatisfiableError,
    VerificationError,
)
from .graph_core import BicoloredGraph, Graph, apply_word, flip
from .synthesizer import CertifiedWord, color_reversal_word, transform_word, verify_certificate
from .oracle import exact_cr, min_flip_word

__version__ = "0.1.0"
