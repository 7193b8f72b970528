"""corneropt: optimization on manifolds with corner-set constraints.

A library and CLI for analyzing and locally solving problems
``min f(p) s.t. g(p) in K`` where ``K`` is a submanifold with corners of the
codomain: first- and second-order optimality certification, constraint
qualifications, invariance checks across charts/retractions/linearizing
maps, and a local SQP solver.
"""

__version__ = "0.1.0"

from .cones import PolarCertificate, PolyhedralCone, extreme_rays, polar_contains
from .corners import (AdaptedChartData, CornerSet, DiagonalCornerSet,
                      EuclideanCornerSet, ProductCornerSet,
                      SphereTriangleCornerSet, corner_index, inner_tangent_cone,
                      validate, zero_tangent_space)
from .errors import CornerOptError
from .firstorder import (CQReport, KKTCertificate, check_licq, check_mfcq,
                         check_transversality, check_zkrcq, classical_report,
                         cone_membership_agreement, cq_report,
                         multiplier_set_probe, solve_kkt)
from .geometry import (Chart, Euclidean, LinearizingMap, Manifold, Product,
                       Retraction, Sphere, TangentVec, axiom_check,
                       chart_transition, push_tangent)
from .models import MODELS, build_model, get_model
from .problem import LocalRepresentation, ProblemInstance
from .secondorder import (CriticalCone, HessianForm, PulledBackProblem,
                          build_pullback, critical_cone, invariance_check,
                          lagrangian_hessian, lagrangian_value,
                          second_order_consistent, sonc_check, sosc_check)
from .solver import SolveOptions, SolveResult, solve

__all__ = [
    "AdaptedChartData", "CQReport", "Chart", "CornerOptError", "CornerSet",
    "CriticalCone", "DiagonalCornerSet", "Euclidean", "EuclideanCornerSet",
    "HessianForm", "KKTCertificate", "LinearizingMap", "LocalRepresentation",
    "MODELS", "Manifold",
    "PolarCertificate", "PolyhedralCone", "Product", "ProductCornerSet",
    "ProblemInstance", "PulledBackProblem", "Retraction", "SolveOptions",
    "SolveResult", "Sphere", "SphereTriangleCornerSet", "TangentVec",
    "axiom_check", "build_model", "build_pullback", "chart_transition",
    "check_licq", "check_mfcq", "check_transversality", "check_zkrcq",
    "classical_report", "cone_membership_agreement", "corner_index",
    "cq_report", "critical_cone", "extreme_rays", "get_model",
    "inner_tangent_cone", "invariance_check", "lagrangian_hessian",
    "lagrangian_value", "multiplier_set_probe", "polar_contains",
    "push_tangent", "second_order_consistent", "solve",
    "solve_kkt", "sonc_check", "sosc_check", "validate", "zero_tangent_space",
]
