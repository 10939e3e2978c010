"""Exact computational engine for extended graded Hecke algebras.

Algebra arithmetic, parabolically induced modules, intertwiners and
Hochschild/cyclic/periodic homology censuses over exact rational (and
Gaussian-rational) arithmetic.  Public names load their submodule on first use.
"""

__version__ = "0.1.0"


class GradedHeckeError(ValueError):
    """Base of the library's errors; the CLI maps it to `error:`, exit 1."""


_EXPORTS = {  # submodule -> the public names it defines
    "rootdata": """ParabolicDatum ParameterMap RootDatum RootDatumError
        build_root_datum in_antidual make_parameter_map
        make_root_datum pairing parabolic""",
    "weyl": """ConjugacyClassCensus DiagramAutomorphism ExtendedWeylElement
        GammaGroup HeckeDatum WeylGroup association_action conjugacy_census
        enumerate_group make_diagram_automorphism""",
    "poly": """PoincareSeries Poly act divided_difference invariant_polys
        molien_forms parse_poly reynolds""",
    "hecke": """HeckeAlgebra HeckeElement k_sensitive_part
        parse_element""",
    "modules": """DSCatalogEntry FieldExtensionNeeded FinModule
        InductionDatum UnsplitSpectrumError auto_catalog central_character
        commutant decompose hom_space induce irr0_census
        is_discrete_series is_irreducible is_tempered one_dim_modules
        parabolic_algebra weights""",
    "homology": """FinDimAlgebra HomologyCensus crossed_point_module
        crossed_product_census cyclic_homology hochschild_homology
        verify_basis_theorem"""}
_MODULE_OF = {n: m for m, names in _EXPORTS.items() for n in names.split()}
__all__ = ["GradedHeckeError", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
