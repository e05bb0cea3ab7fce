"""Memo tables, and the one place that empties them all.

The derived lattices and spaces of a law run (O X, I O X, spt I O X, ...)
differ from one another mostly in their element names, and the checks and
derivations that build them never read the names. A function decorated
with ``keyed(key)`` runs once per distinct key(*args); later calls with
an equal key return the stored result, and ``.table`` holds the results
under their keys. A miss runs ``.__wrapped__``, and a call that raises
stores nothing: a failed check runs again on the next call, and its
message names that caller's own elements. ``cache_info()`` counts the
misses since the last clear and the stored results.

Two kinds of key are in use. A name-free key holds every input the
function reads except names, so that it determines the result: the shape
of an order (dlat.Shape, which holds its tables), the distributivity and
hom checks, the order of an inclusion family, the ideal image of a hom,
the prime filters, the preorder check of a space with its opens, the
continuity check of a map, the preorder and basic opens of a space of
filters, the point assignment of spectrum_map, the position table of a
family of masks, and ``shared``, the one stored tuple equal to a map's
assignment. The views and pools of the package, and the component of each
natural transformation (``catengine.NatTransInstance``), are keyed by
their one argument itself (``itself``). An object built once, such as a
monad of ``instances``, is a module constant, not a table.

Every table is registered in ``TABLES``, which holds it weakly: a module
holds its decorated functions and a transformation its component table,
so a table lives as long as its holder, and clear_caches empties it while
it lives. A table decorated again is returned as it is, so two
transformations with one component share one table.
"""

from functools import wraps
from typing import NamedTuple
from weakref import WeakSet

# every live memo table
TABLES = WeakSet()

# marks a key with no stored result; None is a stored verdict
_MISS = object()


class CacheInfo(NamedTuple):
    """What cache_info() reports: the misses since the last clear and the
    number of stored results."""

    misses: int
    currsize: int


def itself(arg):
    """The key of a table keyed by its one argument."""
    return arg


def keyed(key):
    """Memoise a function on key(*args), registered in TABLES; a table is
    returned unchanged."""

    def decorate(fn):
        if fn in TABLES:
            return fn
        table = {}
        misses = 0

        @wraps(fn)
        def memoised(*args):
            nonlocal misses
            k = key(*args)
            value = table.get(k, _MISS)
            if value is _MISS:
                misses += 1
                value = table[k] = memoised.__wrapped__(*args)
            return value

        def cache_clear():
            nonlocal misses
            table.clear()
            misses = 0

        memoised.table = table
        memoised.cache_info = lambda: CacheInfo(misses, len(table))
        memoised.cache_clear = cache_clear
        TABLES.add(memoised)
        return memoised

    return decorate


@keyed(itself)
def shared(values: tuple) -> tuple:
    """The stored tuple equal to values: the maps that hold equal
    assignments hold one tuple between them."""
    return values


def clear_caches() -> None:
    """Empty every live memo table, as in a fresh process."""
    for table in list(TABLES):
        table.cache_clear()
