"""Color reversal of bicolored graphs by local inversions.

The package provides the inversion calculus (:mod:`locinv.graph_core`),
structural decompositions (:mod:`locinv.partitioner`), bound-certified word
synthesis (:mod:`locinv.synthesizer`), an exact breadth-first oracle
(:mod:`locinv.oracle`), and a command-line interface (:mod:`locinv.cli`).
"""

from .errors import (
    BoundExceededError,
    CapExceededError,
    Graph6Error,
    UnsatisfiableError,
    VerificationError,
)
from .graph_core import (
    BicoloredGraph,
    Coloring,
    Graph,
    Word,
    all_plus,
    apply_word,
    flip,
    local_complement,
    local_inversion,
    reduce_word,
    replay,
)
from .partitioner import (
    EdgePartition,
    RootedTree,
    p3_partition,
    perfect_forest,
)
from .synthesizer import (
    CertifiedWord,
    color_reversal_word,
    complete_word,
    gadget_edge,
    gadget_p3_end,
    gadget_p3_ends,
    gadget_triangle,
    star_word,
    transform_word,
    verify_certificate,
)
from .oracle import (
    CrReport,
    SurveySummary,
    connected_graphs,
    exact_cr,
    min_flip_word,
    summarize,
    survey,
)

__version__ = "0.1.0"
