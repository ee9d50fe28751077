"""The one base class of every clinpol domain error.

A domain error says that the input or the data cannot support the request:
a malformed file, a degenerate fitting set, a policy without support. The
experiment loop and model selection catch ``ClinpolError`` and log it as a
failed repeat or candidate; any other exception, a bare numpy ``ValueError``
from a shape bug included, is a programming error and propagates.
"""


class ClinpolError(ValueError):
    pass


def keep(cache: dict, key, make) -> None:
    """Set ``cache[key]`` to ``make()``, or to the domain error it raises,
    unless ``key`` is set already. Any other exception is a bug: it
    propagates and leaves ``key`` unset.

    The error is kept without its traceback, whose frames would hold every
    local of the failed attempt (a split search, a copy of rows) for as long
    as the cache lives.
    """
    if key not in cache:
        try:
            cache[key] = make()
        except ClinpolError as e:
            cache[key] = e.with_traceback(None)


def remember(cache: dict, key, make):
    """``cache[key]``, set to ``make()`` on the first request (:func:`keep`).

    A kept domain error is raised again on every request, as a fresh attempt
    would raise it: the same object, with a traceback that starts afresh at
    each raise, so a replay neither lengthens it nor pins the frames of an
    earlier request.
    """
    keep(cache, key, make)
    found = cache[key]
    if isinstance(found, ClinpolError):
        raise found.with_traceback(None)
    return found
