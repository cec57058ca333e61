"""Two-robot wireless evacuation from unit disks of l_p norms.

Numerical library and CLI: geometry of the l_p unit circle (perimeter,
arc length and its inversion, chords), the evacuation search and its
worst-case cost, the minimum-chord function with monotonicity
certification, and matching lower bounds.

``import lpevac`` loads no submodule.  A public name is imported from its
module the first time it is read (PEP 562 ``__getattr__``), so a command
that runs a few modules does not compile and run the others.
"""

__version__ = "0.1.0"

# The library modules, each after the package modules it imports (tables
# imports none), so looking a name up imports the modules its own module
# imports anyway, and tables.
_MODULES = ("tables", "numerics", "lp_geometry", "evacuation", "chord_arc", "lower_bound")

__all__ = [
    "__version__",
    # numerics
    "Tolerance",
    "BracketError",
    "IntegrationError",
    "integrate_adaptive",
    "find_root_bracketed",
    "maximize_1d",
    # geometry
    "INF",
    "DomainError",
    "Point2",
    "CirclePoint",
    "validate_p",
    "lp_norm",
    "unit_circle_point",
    "half_perimeter",
    "point_at_arc_length",
    "chord_length",
    # evacuation
    "Branch",
    "AlgoParams",
    "EvacOutcome",
    "CriticalParams",
    "robot_positions",
    "separation",
    "evac_time",
    "simulate_exit",
    "aux_root_equation",
    "worst_case_params",
    "worst_case_cost",
    "worst_case_grid_oracle",
    # chord / arc
    "Direction",
    "MonotonicityReport",
    "tangential_chord",
    "tangential_chord_profile",
    "min_chord",
    "min_chord_curve",
    "verify_min_chord_monotone",
    "verify_tangential_chord_monotone",
    # lower bounds
    "OptimalityReport",
    "weak_lower_bound",
    "generic_lower_bound",
    "optimality_report",
    # tables
    "CurveTable",
    "quantize",
]


def __getattr__(name: str):
    if name in __all__:
        from importlib import import_module

        for home in _MODULES:
            module = import_module(f"{__name__}.{home}")
            if name in module.__all__:
                value = globals()[name] = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
