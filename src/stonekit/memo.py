"""Memo tables for name-free work, cached views, and the one place that
empties every cache.

The derived lattices and spaces of a law run (O X, I O X, spt I O X, ...)
differ from one another mostly in their element names, and the checks and
derivations that build them never read the names. A function decorated
with ``name_free(key)`` runs once per distinct key; later calls with an
equal key return the stored result. The key must hold every input the
function reads except names, so that it determines the result. A call that
raises stores nothing: a failed check runs again on the next call, and its
message names that caller's own elements.

A function decorated with ``cached`` is an unbounded ``lru_cache`` on its
arguments, for the views and pools of the package.
"""

from functools import lru_cache, wraps

# every function decorated with name_free, in definition order
MEMOS = []

# every function decorated with cached, in definition order
CACHES = []

# marks a key with no stored result; None is a stored verdict
_MISS = object()


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


def cached(fn):
    """lru_cache(maxsize=None), registered so that clear_caches empties it."""
    view = lru_cache(maxsize=None)(fn)
    CACHES.append(view)
    return view


def clear_caches() -> None:
    """Empty every name_free table and every cached view, as in a fresh
    process."""
    for memo in MEMOS:
        memo.table.clear()
    for view in CACHES:
        view.cache_clear()
