"""The one base class of every clinpol domain error.

A domain error says that the input or the data cannot support the request:
a malformed file, a degenerate fitting set, a policy without support. The
experiment loop and model selection catch ``ClinpolError`` and log it as a
failed repeat or candidate; any other exception, a bare numpy ``ValueError``
from a shape bug included, is a programming error and propagates.
"""


class ClinpolError(ValueError):
    pass
