"""Exact-arithmetic engine for fusion rings of compact-type quantum groups.

The core objects are irreducible labels with integer dimensions and a
provider interface producing exact product decompositions.  On top of
that sit closure computations (tensor-generated, conjugation-stable,
normality-forced), torsion certification, identity-component analysis,
ascending-chain probes, dimension-ideal recovery, and a numerical module
that builds concrete matrix models for the sign-graded ladder ring at
real q < 0 and verifies them against the symbolic fusion rules.

Everything but the numerical module is exact integer arithmetic and needs
only the standard library.  ``uqnumeric`` and its re-exports here load on
first attribute access (PEP 562), so numpy is imported only by code that
uses them.
"""

from .axioms import AxiomReport, AxiomViolation, check_axioms
from .components import (
    ComponentReport,
    identity_component_report,
    restriction_hom_dim,
)
from .core import (
    Budget,
    Decomposition,
    FusionProvider,
    IrrLabel,
    canonical_key,
    canonical_sort,
)
from .errors import (
    BadParameter,
    FusionError,
    IllConditioned,
    InvalidRing,
    NotAGroup,
    NotFinite,
    NotSaturated,
    ParseError,
    UnknownLabel,
    UnsupportedProvider,
)
from .lattice import IntegerLattice
from .rings import (
    AuProvider,
    DirectProductProvider,
    FiniteTableProvider,
    FreeProductProvider,
    SO3Provider,
    SU2Provider,
    UqSU11Provider,
    WordGroupProvider,
    WordGroupSpec,
    au_ring,
    builtin_finite_rings,
    character_ring,
    direct_product,
    dump_ring_json,
    finite_group_ring,
    free_product,
    load_ring_json,
    so3_ring,
    suq2_ring,
    uq_su11_ring,
    word_group,
)
from .torsion import (
    ChainProbeReport,
    DimensionIdealReport,
    NormalityViolation,
    NSequenceReport,
    Subcategory,
    TorsionScanReport,
    TorsionVerdict,
    ascending_chain_probe,
    central_closure,
    dimension_ideal_recover,
    enumerate_saturated_subrings,
    generated_subring,
    is_torsion,
    n_sequence_cocommutative,
    normal_forcing_closure,
    normality_consistency,
    torsion_subcategory,
)

__version__ = "0.1.0"

# Re-exported from ``uqnumeric`` by ``__getattr__``, which imports it (and
# numpy) only when one of them is first asked for.
_NUMERIC = frozenset({
    "RESIDUAL_TOL",
    "SV_GAP",
    "RepMatrices",
    "build_pi",
    "build_u",
    "check_star",
    "full_verification",
    "fusion_crosscheck",
    "intertwiner_space",
    "q_int",
    "tensor_rep",
    "unitarizability_witness",
    "verify_conjugate_equations",
    "verify_permutation_intertwiner",
})

__all__ = sorted({*(name for name in dir() if not name.startswith("_")), *_NUMERIC, "uqnumeric"})


def __getattr__(name: str):
    if name in _NUMERIC or name == "uqnumeric":
        # import_module, not ``from . import``: the latter probes this hook again
        from importlib import import_module

        module = import_module(f"{__name__}.uqnumeric")
        return module if name == "uqnumeric" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
