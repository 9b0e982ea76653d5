"""Discrete line fields and vector fields on CW decompositions of surfaces.

Importing the package imports none of its modules (PEP 562): a public name,
listed by module in `_MODULES`, imports its module on first access and stays
bound; submodules resolve as attributes too.
"""

__version__ = "0.1.0"

_MODULES = {
    "dynamics": ("ClosedCorridor", "Corridor", "Crossing", "DecompositionReport", "LPath",
                 "Separatrix", "TopologicalGraph", "closed_l_path", "corridors_from", "l_paths",
                 "ms_decomposition", "topological_graph"),
    "errors": ("CancellationError", "CyclicFieldError", "DegenerateOperationError",
               "InvalidComplexError", "NotInImageError", "OperationError", "ParseError"),
    "formats": ("Document", "emit_complex", "emit_line_field", "emit_vector_field", "graph_dot",
                "parse_complex", "parse_document", "parse_graph_json", "parse_line_field",
                "parse_off", "parse_vector_field", "report_json"),
    "linefield": ("LineField", "critical_cells", "validate_line_field"),
    "radial": ("RadialComplex", "dlf_to_dvf", "dvf_to_dlf", "is_radial",
               "radial_decomposition"),
    "simplify": ("CellCorrespondence", "CoreResult", "cancel_vertex_face", "homotopy_core",
                 "merge_critical_faces"),
    "surface": ("SurfaceComplex", "delete_edge_merge_faces", "fresh_id", "occ_text",
                "reversed_walk", "split_face"),
    "vectorfield": ("VectorField", "XPath", "cancel_dvf", "closed_x_path", "count_x_paths",
                    "critical_cells_dvf", "dualize", "validate_vector_field", "x_paths"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name, name)
    if module not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")  # binds the submodule in this namespace
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__():
    return sorted(globals().keys() | _HOME.keys())
