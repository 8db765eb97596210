"""A proof-checking kernel for an intuitionistic axiomatic theory of
meaningfulness (M), assertibility (A), truth (T), and holding (H), with a
proof-script language, proof transformations, a checked corpus of
derivations, and finite countermodel search for the propositional fragment.
"""

from .kernel import (
    ByExtension,
    ByGenE,
    ByGenF,
    ByHyp,
    ByLogical,
    ByMP,
    ByRelease,
    ByTheory,
    ExtensionGrant,
    Judgment,
    Proof,
    ProofCheckError,
    SchemeError,
    Step,
    StepError,
    check_proof,
    extension_instance,
    is_log_instance,
    logical_instance,
    theory_instance,
)
from .parser import ParseError, parse_formula, parse_term
from .script import ScriptError, emit_script, parse_script, script_of
from .syntax import (
    BOT,
    DefinitionError,
    Environment,
    Formula,
    IllFormedError,
    Term,
    free_vars,
    iff,
    neg,
    pformat,
    substitute,
)

__version__ = "0.1.0"

__all__ = [
    "BOT",
    "ByExtension",
    "ByGenE",
    "ByGenF",
    "ByHyp",
    "ByLogical",
    "ByMP",
    "ByRelease",
    "ByTheory",
    "Countermodel",
    "DefinitionError",
    "Environment",
    "ExtensionGrant",
    "Formula",
    "IllFormedError",
    "Judgment",
    "KripkeFrame",
    "KripkeModel",
    "NameStore",
    "ParseError",
    "Proof",
    "ProofBuilder",
    "ProofCheckError",
    "SchemeError",
    "ScriptError",
    "SemanticsError",
    "Step",
    "StepError",
    "TacticError",
    "Term",
    "check_proof",
    "deduction_theorem",
    "emit_script",
    "eval_at",
    "extension_instance",
    "find_countermodel",
    "free_vars",
    "holds_in_all_models",
    "iff",
    "internalize",
    "is_log_instance",
    "logical_instance",
    "meaningfulness_closure",
    "neg",
    "parse_formula",
    "parse_script",
    "parse_term",
    "pformat",
    "provable",
    "script_of",
    "substitute",
    "theory_instance",
    "validity",
]

# the names of countermodel search and of the tactics layer, by module;
# each loads with its module on first use, so a command that runs neither,
# such as `mathkernel check`, imports neither
_LAZY = dict.fromkeys(("Countermodel", "KripkeFrame", "KripkeModel",
                       "SemanticsError", "eval_at", "find_countermodel",
                       "holds_in_all_models", "provable", "validity"),
                      "semantics")
_LAZY.update(dict.fromkeys(("NameStore", "ProofBuilder", "TacticError",
                            "deduction_theorem", "internalize",
                            "meaningfulness_closure"), "tactics"))


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())
