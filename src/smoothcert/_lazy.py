"""Names a module takes from other smoothcert modules when it first needs them.

A module that defers its imports lists the names it takes from each module
as {module: names}. `bind` imports modules and binds their listed names in
the importing module's namespace; `module_getattr` makes the PEP 562
__getattr__ that does the same for one name on its first access from
outside. Neither rebinds a name that is bound already, so a name that a test
or a tracer sets on the module keeps its value.
"""

import importlib

__all__ = ["bind", "module_getattr"]


def bind(namespace: dict, sources: dict, *modules) -> None:
    """Import each of modules and bind in namespace those of its names in
    sources that are not bound there yet."""
    for module in modules:
        loaded = importlib.import_module(f".{module}", __package__)
        for name in sources[module]:
            namespace.setdefault(name, getattr(loaded, name))


def module_getattr(namespace: dict, sources: dict):
    """The module __getattr__ for namespace: a name in sources is bound from
    its module on first access; any other name raises AttributeError."""
    owners = {name: module for module, names in sources.items() for name in names}

    def __getattr__(name):
        if name not in owners:
            raise AttributeError(f"module {namespace['__name__']!r} has no "
                                 f"attribute {name!r}")
        bind(namespace, sources, owners[name])
        return namespace[name]

    return __getattr__
