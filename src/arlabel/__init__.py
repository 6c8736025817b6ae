"""arlabel: exact search for distinct-subset-sum sets, the ES sequence, and
AR-labelings of graphs, with certified witnesses and refutations.

Importing the package runs none of its modules: each is registered in
``sys.modules`` with a lazy loader and runs at its first attribute read, so
a caller pays only for the modules it uses.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# Public name -> the module that defines it.
_EXPORTS = {
    **dict.fromkeys(
        ("DuplicateLabels", "Labeling", "SumCollision", "Verdict", "is_ar_labeling",
         "load_labeling", "save_labeling", "verify_files"),
        "check",
    ),
    **dict.fromkeys(("DssSet", "enumerate_dss_sets", "is_dss", "subset_sum_collision"), "dss"),
    **dict.fromkeys(("ParseError", "SearchTimeout"), "errors"),
    **dict.fromkeys(
        ("KNOWN_ES", "EsRecord", "conway_guy_set", "conway_guy_u", "erdos_counting_lb",
         "erdos_moser_lb", "es"),
        "es",
    ),
    **dict.fromkeys(
        ("Graph", "bistar", "complete", "complete_bipartite", "complete_multipartite",
         "cycle", "load_graph", "path", "save_graph", "star", "wheel"),
        "graphs",
    ),
    **dict.fromkeys(("ClaimRow", "ReproReport", "run_reproduction"), "reproduce"),
    **dict.fromkeys(
        ("AriResult", "SearchConfig", "SearchOutcome", "SearchStats", "ari",
         "ari_lower_bound", "counting_prune", "disjoint_dss_cover", "find_ar_labeling",
         "label_wheel"),
        "solver",
    ),
}

__all__ = ["__version__", *_EXPORTS]

# Each module sits in sys.modules from here on, and its code runs at its
# first attribute read.  The import system then never imports it, which
# would bind the module onto the package: ``arlabel.es`` stays the function.
for _name in dict.fromkeys(_EXPORTS.values()):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = _module = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name: str):
    """Resolve a public name, or a lazily registered module, on first read."""
    home = _EXPORTS.get(name)
    try:
        value = sys.modules[f"{__name__}.{name if home is None else home}"]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    if home is not None:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
