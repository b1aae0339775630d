"""Numeric local-coordinate tensor calculus on the generalized tangent
bundle of an anchored structure: jets, coefficient fields, nonlinear
connections, d-connections, metric constructions, and Lagrange/Finsler
geometry, plus a deterministic sampling harness and a CLI."""

from .algebroid import (FrameDiffeoData, GeneralizedAlgebroid, Section,
                        anchor_action, basis_sections, bracket,
                        constant_section, from_frame, jacobi_residual,
                        validate_structure)
from .dtensor import (DConnection, DTensorField, IndexSignature, berwald,
                      cov_deriv_along, h_cov_deriv, scalar_tensor,
                      tensor_product, transform_dconnection, v_cov_deriv)
from .errors import (ArityError, ConfigError, DimensionMismatch, EmptyBox,
                     ExprSyntaxError, GeometryError, IndexOutOfRange,
                     NonSmoothPoint, ShapeError, SingularFrame,
                     SingularMetric, SingularTransition, UnknownIdentifier)
from .exprlang import parse, parse_field, to_field, to_source
from .jets import Jet, Point, ScalarField, compose, eval_jet, fd_partial
from .lagrange import (FundamentalFunction, NormalDConnection, TorsionPair,
                       build_gl_space, finsler_checks, hessian_metric,
                       levi_civita_normal, recover_torsions,
                       regularity_check, torsion_deform)
from .metric import (MetricStructure, ObataPair, base_deform,
                     berwald_canonical, canonical_dconnection,
                     metrizability_residual, obata_deform, obata_pair)
from .nlconn import (ChartFrame, FrameChange, NonlinearConnection,
                     adapted_coframe_matrix, adapted_frame_matrix,
                     default_chart, delta_action, from_adapted_covector,
                     from_adapted_vector, from_ehresmann, to_adapted_covector,
                     to_adapted_vector, transform_chart, transform_gamma,
                     zero_connection)
from .sampling import (SampleBox, ValidationReport, generate)

__version__ = "0.1.0"
