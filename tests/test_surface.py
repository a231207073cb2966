"""The public surface is declared once, in each module's ``__all__``.

``orthokit`` re-exports the core modules' lists and every public name of
``errors``, which has no ``__all__``.  ``orthokit.apps`` re-exports the
lists of its five modules.  Every re-exported name is bound to its module's
own object, so a name added to a module's ``__all__`` reaches the package
and no second list can drift from the first.
"""

import importlib
import inspect

import orthokit
import orthokit.apps

CORE = ("errors", "matrix", "reflectors", "qr", "projectors", "svd", "lstsq")
APPS = ("digits", "fitting", "image", "pca", "text")


def declared(modname):
    """The module's ``__all__``, or all its public names if it has none."""
    mod = importlib.import_module(modname)  # orthokit.svd is the function
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    return {name: getattr(mod, name) for name in names}


def exported(package):
    return {n: v for n, v in vars(package).items() if not n.startswith("_") and not inspect.ismodule(v)}


def union(modnames):
    names = {}
    for modname in modnames:
        for name, obj in declared(modname).items():
            assert name not in names, f"{name} is declared by two modules"
            names[name] = obj
    return names


def test_package_exports_exactly_the_core_lists():
    want = union(f"orthokit.{m}" for m in CORE)
    got = exported(orthokit)
    assert sorted(got) == sorted(want)
    assert all(got[name] is obj for name, obj in want.items())


def test_apps_all_is_the_union_of_the_app_lists():
    want = union(f"orthokit.apps.{m}" for m in APPS)
    assert sorted(orthokit.apps.__all__) == sorted(want)
    got = exported(orthokit.apps)
    assert sorted(got) == sorted(want)
    assert all(got[name] is obj for name, obj in want.items())
