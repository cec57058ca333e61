"""Two-robot wireless evacuation from unit disks of l_p norms.

Numerical library and CLI: geometry of the l_p unit circle (perimeter,
arc length and its inversion, chords), the evacuation search and its
worst-case cost, the minimum-chord function with monotonicity
certification, and matching lower bounds.

``import lpevac`` loads no submodule.  A public name is imported from its
module the first time it is read (PEP 562 ``__getattr__``), so a command
that runs a few modules does not compile and run the others.  ``__all__``
is ``__version__`` and then each module's ``__all__``; reading it imports
every module.
"""

__version__ = "0.1.0"

# The library modules, each after the package modules it imports (tables
# imports none), so looking a name up imports the modules its own module
# imports anyway, and tables.
_MODULES = ("tables", "numerics", "lp_geometry", "evacuation", "chord_arc", "lower_bound")


def __getattr__(name: str):
    # A public name is looked up in the modules in order, so __all__ and a
    # name that no module exports import them all; a private name imports
    # none.
    if name == "__all__" or not name.startswith("_"):
        from importlib import import_module

        public = ["__version__"]
        for home in _MODULES:
            module = import_module(f"{__name__}.{home}")
            if name in module.__all__:
                value = globals()[name] = getattr(module, name)
                return value
            public += module.__all__
        if name == "__all__":
            globals()[name] = public
            return public
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    # once read, __all__ is a global and no longer reaches __getattr__
    public = globals().get("__all__") or __getattr__("__all__")
    return sorted(set(globals()) | set(public))
