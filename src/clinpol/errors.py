"""The one base class of every clinpol domain error.

A domain error says that the input or the data cannot support the request:
a malformed file, a degenerate fitting set, a policy without support. The
experiment loop and model selection catch ``ClinpolError`` and log it as a
failed repeat or candidate; any other exception, a bare numpy ``ValueError``
from a shape bug included, is a programming error and propagates.
"""


class ClinpolError(ValueError):
    pass


def remember(cache: dict, key, make):
    """``cache[key]``, set to ``make()`` on the first request.

    A domain error that ``make`` raises is stored in the value's place and
    raised again on every later request, as a fresh attempt would raise it.
    Any other exception is a bug: it propagates and leaves ``key`` unset.
    """
    if key not in cache:
        try:
            cache[key] = make()
        except ClinpolError as e:
            cache[key] = e
    found = cache[key]
    if isinstance(found, ClinpolError):
        raise found
    return found
