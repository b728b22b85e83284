"""Numerical toolkit for radial curvature comparison geometry.

Given a radial curvature function of a noncompact surface of revolution,
the toolkit computes the warping function, the total curvature with its
divergence classification, volume growth of the n-dimensional model
space, and an upper bound on the number of ends of any manifold whose
radial curvature is bounded below by the profile; supplied with measured
ball volumes it certifies the supported conclusions.
"""

from .asymptotics import (
    CurvatureClass,
    LimitEstimate,
    TotalCurvatureResult,
    slope_limit,
    total_curvature,
)
from .curvature_profile import (
    ConstantTail,
    CurvatureProfile,
    MomentClass,
    PowerDecayTail,
    Segment,
    ZeroTail,
    constant_profile,
    negative_part,
    positive_part,
    power_tail_profile,
    profile_from_dict,
    profile_to_dict,
    tail_moment_class,
    zero_profile,
)
from .ends import EndsBound, angle_bound, ends_bound, packing_bound
from .errors import (
    ConfigurationError,
    GalleryLookupError,
    IngestError,
    IntegrationError,
    ModelCompactnessError,
    ProfileError,
    RadialGeoError,
)
from .gallery import GalleryEntry, entry_by_name, list_gallery
from .jacobi import WarpingSolution, solve, solve_m
from .model_space import (
    GrowthCoefficient,
    ModelSpace,
    ball_volume,
    ball_volumes,
    growth_coefficient,
    unit_sphere_volume,
)
from .pipeline import (
    AnalysisOptions,
    TheoremReport,
    VolumeSamples,
    bg_ratio_check,
    cli_main,
    evaluate_theorem,
    ingest_samples,
    report_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisOptions",
    "ConfigurationError",
    "ConstantTail",
    "CurvatureClass",
    "CurvatureProfile",
    "EndsBound",
    "GalleryEntry",
    "GalleryLookupError",
    "GrowthCoefficient",
    "IngestError",
    "IntegrationError",
    "LimitEstimate",
    "ModelCompactnessError",
    "ModelSpace",
    "MomentClass",
    "PowerDecayTail",
    "ProfileError",
    "RadialGeoError",
    "Segment",
    "TheoremReport",
    "TotalCurvatureResult",
    "VolumeSamples",
    "WarpingSolution",
    "ZeroTail",
    "angle_bound",
    "ball_volume",
    "ball_volumes",
    "bg_ratio_check",
    "cli_main",
    "constant_profile",
    "ends_bound",
    "entry_by_name",
    "evaluate_theorem",
    "growth_coefficient",
    "ingest_samples",
    "list_gallery",
    "negative_part",
    "packing_bound",
    "positive_part",
    "power_tail_profile",
    "profile_from_dict",
    "profile_to_dict",
    "report_to_json",
    "slope_limit",
    "solve",
    "solve_m",
    "tail_moment_class",
    "total_curvature",
    "unit_sphere_volume",
    "zero_profile",
]
