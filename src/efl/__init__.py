"""efl: a type-and-effect checker with inferred, guarded, set-like effects.

Types are explicit; effects are reconstructed. Schemes quantify over effect
variables, guards condition an effect's presence on propositions, and the
residual proposition formula is discharged by a small SAT solver. Every
accepted program comes with a typing certificate that replays against the
declarative rules under the solver's witness valuation.
"""

__version__ = "0.1.0"
