import grass

# Every public name of the package.  A name leaves this list only on
# purpose, with a reason in CHANGES.md.
PUBLIC = [
    "CheckError", "ConfigError", "Derivation", "ElaborationError", "FinSetObj", "Grade",
    "GradeAlgebra", "GrassError", "Ideal", "InputError", "Judgment", "Mode", "ModeMorphism",
    "ModeOrderError", "ModeSpace", "ModelBackend", "ParseError", "Rel", "ShapeError",
    "SubstitutionBundle", "Term", "Type", "algebra_axioms_check", "alpha_eq", "beta_step",
    "builtin_algebra", "check_derivation", "derivation", "elaborate", "errors", "eta_expand",
    "free_vars", "grades", "ideal_check", "ideal_closure", "independence_check", "interp_ctx",
    "interp_derivation", "interp_type", "mode_morphism_check", "model_coherence_validate",
    "modespace", "modespace_validate", "normalize", "preservation_check", "rewrite",
    "scalar_act", "scalar_mul", "scale_vector", "semantic_eq", "semantics",
    "subst_comp_check", "subst_simultaneous", "syntax", "type_wf", "vector_leq",
]


def test_public_names_are_pinned():
    assert sorted(grass.__all__) == PUBLIC
