"""Symbolic-numeric verification of the symmetry structure of planar
linear Schroedinger-type potentials, plus a finite-groupoid kit for the
underlying factorization theory."""

from .conditions import (InvariantTuple, Potential, classifying_residual,
                         eta0_residual, invariants, kernel_check,
                         lemma_fixtures, prolonged_residual)
from .equivalence import (AdmissibleTransformation, EquivTransformation,
                          act_on_potential, compose, equiv_generator_check,
                          invert, is_free_reducible, is_real_admissible,
                          pushforward)
from .expr import (Expr, FunctionSymbol, SymbolTable, VarId, conj_expr, const,
                   diff, func_app, jet_var, psi_var, subst, t, total_derivative,
                   var, x, x_var)
from .fields import (D, GeneratorCoeffs, Iop, J, M, P, VectorField, Z,
                     bracket_generic, bracket_structural, expand)
from .groupoid import (FiniteGroupoid, GroupoidModel, frobenius_product,
                       is_disjointedly, is_semi_normalized, is_uniform,
                       load_fixture, model_from_json, model_to_json,
                       run_all_checks, verify_extension, verify_factorization)
from .numeric import (Binding, UnsafeSampleError, Workspace, eval_batch, is_zero,
                      max_normalized_residual)
from .parsing import ParseError, UnknownSymbolError, parse, to_text

from .cases import table, verify_case, verify_table

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
