"""The tests' sweep of the package's caches, the one ``bench/run.py``'s
``clear_package_caches`` makes before each cold solve."""

from aoisched import model, relaxed_solver


def package_caches():
    """Every ``cache_clear``-able object of the model and the solver, by name."""
    return {f"{module.__name__}.{name}": obj
            for module in (model, relaxed_solver)
            for name, obj in vars(module).items() if hasattr(obj, "cache_clear")}


def clear_package_caches():
    """Empty every cache of the model and the solver: the next solve is cold."""
    for cache in package_caches().values():
        cache.cache_clear()
