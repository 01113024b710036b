"""Exact computation and verification of higher convolution moments of
finite sets in abelian groups."""

from .groups import GroupSpec, InvariantError, cyclic, lattice, make_group, parse_group
from .gset import GSet, loads_set, read_set, write_set, zset
from .moments import (ConvTable, convolve, correlate, energy_k, energy_k_pair,
                      level_sequence, mult_energy_k, prodset_size, quotset_size,
                      sigma_k, t_k)
from .setops import (Caps, CapExceededError, basis_depth_test, d_k, delta_sumset,
                     diffset, iterated, family_sumset_sizes, magnification,
                     magnification_k, s_k, slice_masks, sumset)
from .spectrum import dft, dim_exact, dim_greedy, dissociated_test, large_spectrum
from .eigen import (PatternGram, build_gram, magnification_lower_bounds,
                    singular_spectrum, subgroup_eigencheck)
from .genset import SetRecipe, gen, mult_subgroup, parse_recipe, quadratic_residues, recipe
from .extract import (ExtractionReport, almost_period_check, bsg_extract,
                      bsg_extract_v2, cs_period_search, energy_profile, find_configuration,
                      nb_cover, popular_set, robust_core, small_t4_extract)
from .checks import CheckResult, REGISTRY, run_check, run_suite

__version__ = "0.1.0"
