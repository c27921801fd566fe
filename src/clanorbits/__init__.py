"""Clan combinatorics for symmetric-subgroup orbits on flag varieties.

Enumerates the orbits of the U(p,q), Sp(p,q) and SO*(2n) families via
clans, builds the full closure order from the weak order by diamond
completion, and classifies each orbit closure as smooth or not
rationally smooth twice over: by the seven-pattern avoidance criteria
and independently by root counting over closed orbits.
"""

from .clans import (
    BAD_PATTERNS,
    Clan,
    all_sign_clans,
    avoids_bad_patterns,
    concat,
    count_clans,
    enumerate_clans,
    includes_pattern,
    is_antisymmetric,
    is_symmetric,
    length_stat,
    mirror_clans,
    negate,
    parse_clan,
    reverse_negate_rename,
    reverse_rename,
)
from .closure import (
    OrbitPoset,
    build_poset,
    complete_closure,
    quotient_poset,
    raising_moves_oracle,
    simple_move_a,
    weak_order_graph,
)
from .family_a import FamilyA, nested_open_clan
from .family import middle_crossings
from .family_c import FamilyC, FiberFormC, gamma_circ_c
from .family_d import FamilyD, FiberFormD, compress, expand_compressed, gamma_circ_d
from .springer import SpringerReport, cross_validate, rationally_smooth, springer_report

__all__ = [
    "BAD_PATTERNS",
    "Clan",
    "FamilyA",
    "FamilyC",
    "FamilyD",
    "FiberFormC",
    "FiberFormD",
    "OrbitPoset",
    "SpringerReport",
    "all_sign_clans",
    "avoids_bad_patterns",
    "build_poset",
    "complete_closure",
    "compress",
    "concat",
    "count_clans",
    "cross_validate",
    "enumerate_clans",
    "expand_compressed",
    "gamma_circ_c",
    "gamma_circ_d",
    "includes_pattern",
    "is_antisymmetric",
    "is_symmetric",
    "length_stat",
    "middle_crossings",
    "mirror_clans",
    "negate",
    "nested_open_clan",
    "parse_clan",
    "quotient_poset",
    "raising_moves_oracle",
    "rationally_smooth",
    "reverse_negate_rename",
    "reverse_rename",
    "simple_move_a",
    "springer_report",
    "weak_order_graph",
]
