"""Exact counting of maximal independent sets in small graphs, the
extremal tree/unicyclic families attaining the minimum counts, and
exhaustive certification of the minimum-MIS lower bounds."""

from .bounds import (
    BoundQuery,
    ell_seq,
    fib,
    g_seq,
    h_seq,
    majorizes,
    sweep_sequence_lemmas,
    tree_bound,
    unicyclic_bound,
)
from .counting import (
    independence_number,
    mis_alpha,
    mis_count,
    mis_count_cycle,
    mis_enumerate,
)
from .extremal import (
    ExtremalSpec,
    build_cycle,
    build_family,
    build_H,
    build_L,
    build_star,
    build_T,
    build_triangle_star,
    predicted_mis,
)
from .generate import (
    GenerationTask,
    forests,
    free_trees,
    task_stream,
    unicyclic_graphs,
)
from .graphs import (
    Classification,
    Component,
    Graph,
    canonical_form,
    canonical_graph,
    classify,
    components,
    make_graph,
    parse_graph6,
    to_dot,
    write_graph6,
)
from .verify import (
    VerificationRecord,
    export_certificates,
    verify_claim1,
    verify_cycle_bound,
    verify_forest_corollary,
    verify_tree_theorem,
    verify_unicyclic_theorem,
)

__version__ = "0.1.0"
