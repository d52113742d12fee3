"""Exact arithmetic for graph categories, pushouts, path algebras and
Leavitt path algebras, with mechanical verification of their
pushout-to-pullback theorems on finite instances."""

from .fields import QQ, Field, field_from_name
from .graph import (Graph, GraphError, Path, PreconditionError,
                    classify_vertices, intersection_graph, paths_up_to,
                    union_graph)
from .morphism import (AdmissibilityReport, GraphHom, HomClassification,
                       admissible_equiv_crtbpog, breaking_vertices, classify_hom,
                       compose, induced_path_map, is_admissible)
from .pushout import (PushoutGraph, SetPushout,
                      breakarrow_identity, check_theorem_preconditions,
                      graph_pushout, path_pushout_compare, pushout_square,
                      set_pushout)
from .path_algebra import (PAElement, pa_mul, pa_pullback, pa_unit,
                           verify_path_pullback)
from .leavitt import (LElement, LMonomial, ker_generators, l_mul, l_pullback,
                      l_unit, normal_form, verify_leavitt_pullback)

__version__ = "0.1.0"
