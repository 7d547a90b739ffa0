"""Exact rational verification of generalized Brocard configurations.

The kernel (:mod:`brocard.geom`) computes over arbitrary-precision
rationals with no epsilon anywhere; scenes (:mod:`brocard.scene`) are
seeded rational instances of a triangle with an inscribed-chord circle;
the pipeline (:mod:`brocard.pipeline`) derives the Miquel pair, the common
circle and its companions; the suite (:mod:`brocard.checks`) verifies each
statement as an exact identity with witness values.
"""

# The one source of the version: packaging metadata and reports read it here.
__version__ = "0.1.0"

from .geom import (
    CenterDegenerate,
    Circle,
    CirclesIdentical,
    CoincidentPoints,
    CollinearPoints,
    ComplexScalar,
    Degenerate,
    DirectedAngleClass,
    GeometryError,
    InverseSimilarity,
    Line,
    ParallelLines,
    Point,
    PointNotOnCircle,
    PointNotOnLine,
    Triangle,
    spiral_ratio,
)
from .pipeline import (
    ClassicalOverlay,
    Configuration,
    InternalInconsistencyError,
    classical_overlay,
    compute_configuration,
    miquel_point,
    miquel_point_quadrangle,
)
from .scene import (
    GenerationExhausted,
    KwonScene,
    Scene,
    SceneParams,
    circle_point_from_parameter,
    classical_brocard_scene,
    generate_scene,
    kwon_scene,
    scene_from_parameters,
    validate_scene,
)
from .checks import CheckResult, SuiteReport, THEOREM_CHECK_IDS, run_suite

__all__ = [
    "CenterDegenerate",
    "CheckResult",
    "Circle",
    "CirclesIdentical",
    "ClassicalOverlay",
    "CoincidentPoints",
    "CollinearPoints",
    "ComplexScalar",
    "Configuration",
    "Degenerate",
    "DirectedAngleClass",
    "GenerationExhausted",
    "GeometryError",
    "InternalInconsistencyError",
    "InverseSimilarity",
    "KwonScene",
    "Line",
    "ParallelLines",
    "Point",
    "PointNotOnCircle",
    "PointNotOnLine",
    "Scene",
    "SceneParams",
    "SuiteReport",
    "THEOREM_CHECK_IDS",
    "Triangle",
    "circle_point_from_parameter",
    "classical_brocard_scene",
    "classical_overlay",
    "compute_configuration",
    "generate_scene",
    "kwon_scene",
    "miquel_point",
    "miquel_point_quadrangle",
    "run_suite",
    "scene_from_parameters",
    "spiral_ratio",
    "validate_scene",
    "__version__",
]
