"""Exact rational verification of generalized Brocard configurations.

The kernel (:mod:`brocard.geom`) computes over arbitrary-precision
rationals with no epsilon anywhere; scenes (:mod:`brocard.scene`) are
seeded rational instances of a triangle with an inscribed-chord circle;
the pipeline (:mod:`brocard.pipeline`) derives the Miquel pair, the common
circle and its companions; the suite (:mod:`brocard.checks`) verifies each
statement as an exact identity with witness values.

``import brocard`` loads no submodule.  Each name of ``__all__`` and each
submodule is loaded on first access (PEP 562), so ``from brocard import
run_suite`` loads ``checks`` and what it imports, and nothing else.
"""

from importlib import import_module

# The one source of the version: packaging metadata and reports read it here.
__version__ = "0.1.0"

#: Render layers in paint order.  ``svgrender`` draws them, and the CLI
#: lists them in its help without loading ``svgrender``.
LAYERS = ("scene", "miquel", "triangles", "brocard-circle", "steiner")

# Each public name under the submodule that defines it.
_EXPORTS = {
    "geom": (
        "Circle", "ComplexScalar", "Degenerate", "GeometryError", "InverseSimilarity", "Line",
        "ParallelLines", "Point", "Triangle", "spiral_ratio",
    ),
    "pipeline": (
        "ClassicalOverlay", "Configuration", "InternalInconsistencyError", "classical_overlay",
        "compute_configuration", "miquel_point", "miquel_point_quadrangle",
    ),
    "scene": (
        "GenerationExhausted", "KwonScene", "Scene", "SceneParams", "circle_point_from_parameter",
        "classical_brocard_scene", "generate_scene", "kwon_scene", "scene_from_parameters",
        "validate_scene",
    ),
    "checks": ("CheckResult", "SuiteReport", "THEOREM_CHECK_IDS", "run_suite"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("checks", "cli", "geom", "pipeline", "scene", "sceneio", "svgrender")

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str):
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
