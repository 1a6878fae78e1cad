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
    components,
    flip,
    is_connected,
    local_complement,
    local_inversion,
    reduce_word,
    replay,
)
from .partitioner import (
    EdgePartition,
    PerfectForest,
    RootedTree,
    p3_partition,
    perfect_forest,
)
from .synthesizer import (
    CertifiedWord,
    base_case_word,
    color_reversal_word,
    complete_word,
    flip_single,
    gadget_edge,
    gadget_p3_end,
    gadget_p3_ends,
    gadget_triangle,
    reverse_even_subgraph,
    reverse_odd_subgraph,
    reverse_odd_tree,
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
    pack_state,
    summarize,
    survey,
)

__version__ = "0.1.0"
