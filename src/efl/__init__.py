"""efl: a type-and-effect checker with inferred, guarded, set-like effects.

Types are explicit; effects are reconstructed. Schemes quantify over effect
variables, guards condition an effect's presence on propositions, and the
residual proposition formula is discharged by a small SAT solver. Every
accepted program comes with a typing certificate that replays against the
declarative rules under the solver's witness valuation.
"""
from .declarative import (Cert, CertificateError, ReplayScope,
                          check_certificate, entails, match_effect,
                          match_type, subeffect_holds, subtype_holds)
from .driver import (CheckOutcome, Discharger, check_program, display_scheme,
                     simplify_constraints, verify_certificates)
from .effects import (PURE, Arrow, Constraint, Effect, ForallEff, ForallTyp,
                      Scheme, TVar, Type, join, omega_to_formula)
from .formulas import BOT, TOP, Formula, Prop, evaluate
from .inference import (Config, GenLimitError, InferError, InferResult,
                        ShapeError, generalize, infer, normalize, separate,
                        subtype, tr_effect, tr_type)
from .names import Name, NameSupply
from .solver import SolverSession
from .syntax import Program, SourceError, parse_program

__version__ = "0.1.0"

__all__ = [
    "Arrow", "BOT", "Cert", "CertificateError", "CheckOutcome", "Config",
    "Constraint", "Discharger", "Effect", "ForallEff", "ForallTyp", "Formula",
    "GenLimitError", "InferError", "InferResult", "Name", "NameSupply",
    "PURE", "Program", "Prop", "ReplayScope", "Scheme", "ShapeError",
    "SolverSession", "SourceError", "TOP", "TVar", "Type",
    "check_certificate", "check_program",
    "display_scheme", "entails", "evaluate", "generalize",
    "infer", "join", "match_effect", "match_type", "normalize",
    "omega_to_formula", "parse_program", "separate",
    "simplify_constraints", "subeffect_holds", "subtype", "subtype_holds",
    "tr_effect", "tr_type", "verify_certificates",
]
