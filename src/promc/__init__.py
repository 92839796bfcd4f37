"""Executable strict model structures on pro-categories.

Pluggable exact model instances behind one protocol (``Instance``; two
ship: finite sets with bijections, bounded GF(2) chain complexes),
cofinite directed index posets, pro-objects and pro-maps, the strict
factorization and lifting constructions, pro-iso factorizations, cocell
towers, and replayable certificates.  All values
are immutable after construction and every operation is a pure function
of its inputs.
"""

from .base import (ACOF_FIB, CHAIN_F2, COF_ACF, SET_BIJ, BaseMap, BaseObject,
                   FactorizationPair, Instance, MapClasses, chain_map,
                   chain_obj, classify_map, compose, factor_map, identity,
                   instance_of, inverse, set_map, set_obj, solve_lift,
                   zero_complex)
from .baselim import (ColimitCone, Cone, Diagram, LimitCone, finite_colimit,
                      finite_limit, pullback, pushout)
from .errors import (DepthExhaustedError, MalformedError, PreconditionError,
                     PromcError, UnsupportedRegimeError, VerificationFailure)
from .indexing import (IndexPoset, IndexViolation, WellOrdering, chain_poset,
                       from_covers, index_violation, linear_extension, omega,
                       point_poset, validate_index)
from .prohom import (HFamily, HomSet, IsoCertificate, Levelization, LimResult,
                     ProDiagram, constant_embed, enumerate_base_maps, hom_pro,
                     is_pro_iso, levelize, lim_functor, pro_colimit_levelwise,
                     pro_limit_levelwise, spread_from_max)
from .proobj import (GENERAL, LEVEL, ProMap, ProObject, compose_pro,
                     constant_over, general_map, identity_pro, level_map,
                     omega_pro_object, pro_object, to_general)
from .proiso import (ProIsoFactorization, ProperPullbackResult, RetractDiagram,
                     TwoOfThreeResult, ZigzagWeResult, compose_zigzag_we,
                     pro_factor_iso, proper_pullback, retract_exhibit,
                     two_of_three, verify_witnesses)
from .strict import (ACYCLIC_FIB, FIB, MODE_L1, MODE_L2, LiftResult,
                     MatchingData, SpecialResult, StrictFactorization,
                     detect_special, factor_strict, lift_strict, matching_map)
from .towers import (AdjunctionWitness, Tower, TowerLimit, adjunction_check,
                     build_cocell_tower, omega_constant_tower, tower_limit)

__version__ = "0.1.0"

__all__ = [
    "SET_BIJ", "CHAIN_F2", "COF_ACF", "ACOF_FIB", "FIB", "ACYCLIC_FIB",
    "MODE_L1", "MODE_L2", "LEVEL", "GENERAL",
    "Instance", "instance_of",
    "BaseObject", "BaseMap", "FactorizationPair", "MapClasses",
    "set_obj", "set_map", "chain_obj", "chain_map", "zero_complex",
    "identity", "compose", "inverse", "classify_map", "factor_map",
    "solve_lift",
    "Diagram", "Cone", "LimitCone", "ColimitCone",
    "finite_limit", "finite_colimit", "pullback", "pushout",
    "IndexPoset", "WellOrdering", "IndexViolation",
    "validate_index", "index_violation", "from_covers", "chain_poset",
    "point_poset", "omega", "linear_extension",
    "ProObject", "ProMap", "pro_object", "omega_pro_object", "constant_over",
    "level_map", "general_map", "identity_pro", "compose_pro", "to_general",
    "HomSet", "HFamily", "IsoCertificate", "Levelization", "LimResult",
    "ProDiagram", "hom_pro", "levelize", "is_pro_iso", "constant_embed",
    "lim_functor", "pro_limit_levelwise", "pro_colimit_levelwise",
    "enumerate_base_maps", "spread_from_max",
    "MatchingData", "SpecialResult", "StrictFactorization", "LiftResult",
    "matching_map", "detect_special", "factor_strict", "lift_strict",
    "ProIsoFactorization", "ZigzagWeResult", "TwoOfThreeResult",
    "RetractDiagram", "ProperPullbackResult", "pro_factor_iso",
    "compose_zigzag_we", "two_of_three", "retract_exhibit", "proper_pullback",
    "verify_witnesses",
    "Tower", "TowerLimit", "AdjunctionWitness", "build_cocell_tower",
    "omega_constant_tower", "tower_limit", "adjunction_check",
    "PromcError", "MalformedError", "PreconditionError",
    "UnsupportedRegimeError", "DepthExhaustedError", "VerificationFailure",
]
