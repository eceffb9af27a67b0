"""Plane bundles over momentum spheres.

Builds Nambu spaces and annihilation planes, realizes the tenfold-way
Clifford generators, suspends bundles one sphere dimension at a time, and
computes the associated topological invariants.
"""

from .errors import (FermibundleError, InputError, NumericError,
                     ValidationError)
from .nambu import (CliffordReport, CliffordSet, Generator, NambuSpace,
                    apply_gamma, bracket, check_clifford, classify_generator,
                    make_nambu)
from .planes import (Plane, complement, fermi_check, fermi_perp, is_lagrangian,
                     j_of, plane_distance, plane_from_vectors, pseudo_check,
                     vacuum_plane)
from .symmetry import (AntiUnitary, ClassInfo, TrueSymmetries, class_info,
                       copy_indices, double_one_one, imaginary_realization,
                       kitaev_generators, lift_plane, spin_embed,
                       true_symmetries, unlift_plane)
from .bundles import (Bundle, BundleReport, MomentumGrid, deserialize_bundle,
                      double_bundle, make_sphere_grid, serialize_bundle,
                      validate_bundle)
from .suspension import (SuspensionInput, default_row_count, example_dIII,
                         example_kitaev_chain, example_majorana, rotor,
                         suspend)
from .invariants import (InvariantResult, OmegaForm, chern_number,
                         chiral_winding, class_d_z2, component_index_ai,
                         fermion_parity, kane_mele_z2, omega_form, pfaffian,
                         pfaffian_field)

__version__ = "0.1.0"

__all__ = [
    "FermibundleError", "InputError", "NumericError", "ValidationError",
    "CliffordReport", "CliffordSet", "Generator", "NambuSpace",
    "apply_gamma", "bracket", "check_clifford", "classify_generator",
    "make_nambu",
    "Plane", "complement", "fermi_check", "fermi_perp", "is_lagrangian",
    "j_of", "plane_distance", "plane_from_vectors", "pseudo_check",
    "vacuum_plane",
    "AntiUnitary", "ClassInfo", "TrueSymmetries", "class_info",
    "copy_indices", "double_one_one", "imaginary_realization",
    "kitaev_generators", "lift_plane", "spin_embed", "true_symmetries",
    "unlift_plane",
    "Bundle", "BundleReport", "MomentumGrid", "deserialize_bundle",
    "double_bundle", "make_sphere_grid", "serialize_bundle",
    "validate_bundle",
    "SuspensionInput", "default_row_count", "example_dIII",
    "example_kitaev_chain", "example_majorana", "rotor", "suspend",
    "InvariantResult", "OmegaForm", "chern_number", "chiral_winding",
    "class_d_z2", "component_index_ai", "fermion_parity", "kane_mele_z2",
    "omega_form", "pfaffian", "pfaffian_field",
]
