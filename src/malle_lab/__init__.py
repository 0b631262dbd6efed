"""Counting constants for permutation-group field extensions: Malle
invariants a and b, twisted conjugacy-class orbits, Nielsen tuples and
braid orbits, and Euler-product generating functions with dominant-pole
extraction.
"""

from .braid import (
    FROBENIUS_MODEL_WARNING,
    BraidOrbit,
    ClassVector,
    NielsenTuple,
    braid_orbits,
    class_vector_of,
    conway_parker_probe,
    frobenius_stable_orbits,
    nielsen_count,
)
from .errors import MalleLabError
from .groups import (
    ConjugacyClass,
    FiniteGroup,
    GNContext,
    a_invariant,
    centralizer,
    closure,
    derived_subgroup,
    find_cyclic_complement,
    group_index,
    normal_subgroups_with_abelian_quotient,
    normal_subgroups_with_cyclic_quotient,
)
from .invariants import (
    NON_SPLIT_WARNING,
    BReport,
    FunctionField,
    OrbitBlock,
    RationalNumberField,
    RevisedBReport,
    TwistSpec,
    b_constant,
    b_e,
    b_phi,
    b_report,
    b_table,
    minimal_index_classes,
    orbit_blocks,
    render_growth,
    revised_b,
    twist_class,
)
from .perms import Permutation, format_cycles, parse_cycles
from .presets import GroupSpecFile, get_preset, preset_names
from .series import (
    EQUAL_MODULUS_CAVEAT,
    CoefficientTable,
    PoleReport,
    RationalGF,
    brute_force_h3,
    dominant_pole,
    euler_product,
    expand,
    h2_desk_scale,
    prop_main_check,
    tauberian_fit,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
