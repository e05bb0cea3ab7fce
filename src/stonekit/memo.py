"""Memo tables for name-free work, cached views, and the one place that
empties every cache.

The derived lattices and spaces of a law run (O X, I O X, spt I O X, ...)
differ from one another mostly in their element names, and the checks and
derivations that build them never read the names. A function decorated
with ``name_free(key)`` runs once per distinct key; later calls with an
equal key return the stored result. The key must hold every input the
function reads except names, so that it determines the result. A call that
raises stores nothing: a failed check runs again on the next call, and its
message names that caller's own elements. The memoised work: the shape
of an order (dlat.Shape, which holds its tables), the distributivity and
hom checks, the order of an inclusion family, the ideal image of a hom,
the prime filters, the preorder check of a space with its opens, the
continuity check of a map, the preorder and basic opens of a space of
filters, the point assignment of spectrum_map, the position table of a
family of masks, and ``shared``, the one stored tuple equal to a map's
assignment.

A function decorated with ``cached`` takes one argument and stores its
result in a dict keyed by that argument itself, for the views and pools
of the package; a miss runs ``.__wrapped__`` and stores nothing if it
raises. Its ``cache_info()`` counts the misses since the last clear and
the stored results. An object built once, such as a monad of
``instances``, is a module constant, not a cache.

``component(fn)`` is the same table for one component of a natural
transformation (``catengine.NatTransInstance``). The transformations are
values, many of them throwaway, so the registry holds each memo weakly:
it lives as long as its transformation, and clear_caches empties it while
it lives. A component memo passed to ``component`` again is returned as
it is, so two transformations with one component share one table.
"""

from functools import wraps
from typing import NamedTuple
from weakref import WeakSet

# every function decorated with name_free, in definition order
MEMOS = []

# every function decorated with cached, in definition order
CACHES = []

# the component memo of every live natural transformation
COMPONENTS = WeakSet()

# marks a key with no stored result; None is a stored verdict
_MISS = object()


class CacheInfo(NamedTuple):
    """What cache_info() reports: the misses since the last clear and the
    number of stored results."""

    misses: int
    currsize: int


def name_free(key):
    """Memoise a function on key(*args); `.table` holds the stored results
    and a miss runs `.__wrapped__`."""

    def decorate(fn):
        table = {}

        @wraps(fn)
        def memoised(*args):
            k = key(*args)
            value = table.get(k, _MISS)
            if value is _MISS:
                value = table[k] = memoised.__wrapped__(*args)
            return value

        memoised.table = table
        MEMOS.append(memoised)
        return memoised

    return decorate


def _argument_table(fn):
    """Memoise a function of one argument on the argument itself: `.table`
    holds the stored results and a miss runs `.__wrapped__`."""
    table = {}
    misses = 0

    @wraps(fn)
    def memoised(arg):
        nonlocal misses
        value = table.get(arg, _MISS)
        if value is _MISS:
            misses += 1
            value = table[arg] = memoised.__wrapped__(arg)
        return value

    def cache_clear():
        nonlocal misses
        table.clear()
        misses = 0

    memoised.table = table
    memoised.cache_info = lambda: CacheInfo(misses, len(table))
    memoised.cache_clear = cache_clear
    return memoised


def cached(fn):
    """fn memoised on its one argument, registered so that clear_caches
    empties it."""
    view = _argument_table(fn)
    CACHES.append(view)
    return view


def component(fn):
    """fn memoised on its one argument, held weakly so that clear_caches
    empties it while it lives; a component memo is returned unchanged."""
    if fn in COMPONENTS:
        return fn
    memo = _argument_table(fn)
    COMPONENTS.add(memo)
    return memo


@name_free(lambda values: values)
def shared(values: tuple) -> tuple:
    """The stored tuple equal to values: the maps that hold equal
    assignments hold one tuple between them."""
    return values


def clear_caches() -> None:
    """Empty every name_free table, every cached view and every live
    component memo, as in a fresh process."""
    for memo in MEMOS:
        memo.table.clear()
    for view in CACHES:
        view.cache_clear()
    for memo in list(COMPONENTS):
        memo.cache_clear()
