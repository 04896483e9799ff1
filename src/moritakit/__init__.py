"""moritakit: Morita equivalence and Picard groups for finite groupoids,
labeled-graph classification of stable Poisson surfaces, and numerical
gauge transformations of sampled bivector fields."""

__version__ = "0.1.0"

from .bibundles import (Bibundle, PrincipalityReport, bibundle_isomorphic,
                        from_homomorphism, identity_bibundle,
                        induced_orbit_map, morita_equivalent, principality,
                        tensor, validate_bibundle)
from .gauge import (GridSpec, SampledBivectorField, SampledTwoFormField,
                    apply_gauge, closedness_residual, invertibility_check,
                    jacobi_residual, rank_map, verify_composition)
from .groups import (FiniteGroup, cyclic_group, dihedral_group,
                     direct_product, group_isomorphic, klein_four_group,
                     quaternion_group, symmetric_group, trivial_group,
                     validate_group)
from .groupoids import (FiniteGroupoid, GroupoidHom, PrincipalBundleData,
                        action_groupoid, bundle_of_groups, disjoint_union,
                        gauge_groupoid, group_as_groupoid,
                        groupoid_isomorphic, isotropy, is_transitive, orbits,
                        pair_groupoid, validate)
from .picard import (Bisection, PicardGroup, automorphisms, bisections,
                     center_map, ciso_bisections, inaut, inner_automorphism,
                     j_homomorphism, lemma_section_check, outaut,
                     picard_group, static_picard, verify_exact_sequences)
from .tss import (LabeledSurfaceGraph, PicardIngredients, TssIsomorphism,
                  graph_automorphisms, morita_equivalent_tss,
                  picard_ingredients, poisson_isomorphic_tss, surface_genus,
                  validate_tss)
