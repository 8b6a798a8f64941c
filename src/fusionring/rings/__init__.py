"""Ring backends: finite tables, word groups, ladder rings, free monoid rings, products."""

from .au import AuProvider, au_ring
from .products import (
    DirectProductProvider,
    FreeProductProvider,
    direct_product,
    free_product,
)
from .su2 import SO3Provider, SU2Provider, so3_ring, suq2_ring
from .su11 import UqSU11Provider, uq_su11_ring
from .tables import (
    FiniteTableProvider,
    builtin_finite_rings,
    character_ring,
    dump_ring_json,
    finite_group_ring,
    load_ring_json,
)
from .words import WordGroupProvider, WordGroupSpec, parse_word_group_spec, word_group

__all__ = [
    "AuProvider",
    "au_ring",
    "DirectProductProvider",
    "FreeProductProvider",
    "direct_product",
    "free_product",
    "SO3Provider",
    "SU2Provider",
    "so3_ring",
    "suq2_ring",
    "UqSU11Provider",
    "uq_su11_ring",
    "FiniteTableProvider",
    "builtin_finite_rings",
    "character_ring",
    "dump_ring_json",
    "finite_group_ring",
    "load_ring_json",
    "WordGroupProvider",
    "WordGroupSpec",
    "parse_word_group_spec",
    "word_group",
]
