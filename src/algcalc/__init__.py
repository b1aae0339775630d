"""Numeric local-coordinate tensor calculus on the generalized tangent
bundle of an anchored structure: jets, coefficient fields, nonlinear
connections, d-connections, metric constructions, and Lagrange/Finsler
geometry, plus a deterministic sampling harness and a CLI.

The d-tensor, metric and Lagrange layers (``dtensor``, ``metric`` and
``lagrange``) are imported on first use: ``algcalc.MetricStructure`` or
``from algcalc import hessian_metric`` imports its module then, so a
structure check never loads them."""

from .algebroid import (FrameDiffeoData, GeneralizedAlgebroid, Section,
                        anchor_action, basis_sections, bracket,
                        constant_section, from_frame, jacobi_residual,
                        validate_structure)
from .errors import (ArityError, ConfigError, DimensionMismatch, EmptyBox,
                     ExprSyntaxError, GeometryError, IndexOutOfRange,
                     NonSmoothPoint, ShapeError, SingularFrame,
                     SingularMetric, SingularTransition, UnknownIdentifier)
from .exprlang import parse, parse_field, to_field, to_source
from .jets import Jet, Point, ScalarField, compose, eval_jet, fd_partial
from .nlconn import (ChartFrame, FrameChange, NonlinearConnection,
                     adapted_coframe_matrix, adapted_frame_matrix,
                     default_chart, delta_action, from_adapted_covector,
                     from_adapted_vector, from_ehresmann, to_adapted_covector,
                     to_adapted_vector, transform_chart, transform_gamma,
                     zero_connection)
from .sampling import (SampleBox, ValidationReport, generate)

__version__ = "0.1.0"

# the names of each layer imported on first use
_LAYERS = {
    "dtensor": ("DConnection", "DTensorField", "IndexSignature", "berwald",
                "cov_deriv_along", "h_cov_deriv", "scalar_tensor",
                "tensor_product", "transform_dconnection", "v_cov_deriv"),
    "lagrange": ("FundamentalFunction", "NormalDConnection", "TorsionPair",
                 "build_gl_space", "finsler_checks", "hessian_metric",
                 "levi_civita_normal", "recover_torsions",
                 "regularity_check", "torsion_deform"),
    "metric": ("MetricStructure", "ObataPair", "base_deform",
               "berwald_canonical", "canonical_dconnection",
               "metrizability_residual", "obata_deform", "obata_pair"),
}
# each of those names, and each layer's own name -> the layer
_LAZY = {name: layer for layer, names in _LAYERS.items()
         for name in names + (layer,)}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f"{__name__}.{_LAZY[name]}")
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
