"""Multipole and local expansion machinery for the 3-D Laplace Green's
function in layered media, with empirical certification of the
exponential truncation-error bounds."""

from .medium import (
    LayeredMedium,
    component_exists,
    polarization_source,
    reflect,
    tau_map,
)
from .densities import (
    InterfaceMatrices,
    ReactionDensity,
    ReactionDensitySet,
    density_bound,
    reaction_densities,
)
from .harmonics import (
    constants,
    legendre_p,
    normalized_legendre,
    sph_harm,
    sph_harm_table,
)
from .sommerfeld import (
    cagniard_identity_check,
    eval_reaction_green,
    sqrt_branch,
)
from .expansions import (
    Box,
    ChargeSystem,
    HarmonicExpansion,
    direct_potential,
    eval_expansion,
    eval_reaction_me,
    le_from_charges,
    l2l,
    m2l_free,
    m2l_reaction,
    m2m,
    me_from_charges,
    reaction_le_from_charges,
    reaction_me_from_charges,
)
from .lab import (
    ConvergenceReport,
    ExperimentConfig,
    fibonacci_sphere,
    generate_charges,
    run_experiment,
    run_property_suite,
)

__version__ = "0.1.0"
