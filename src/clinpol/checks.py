"""What a config value must be, and the one reader of every config record.

A config record is a dataclass deriving from :class:`Config`. Each field
declares its kind once: by its annotation (``int``, ``float``, ``bool``,
``str``, a nested ``Config`` class, or one of these ``| None``) or, where an
annotation cannot say it, by :func:`setting` (a pair, a list, the simulator
spec, a lower bound). From that declaration alone a record is checked when it
is built, read from JSON and written back, so a bool is never read as 1, a
string or an infinity never reaches a range check, and a misspelt key never
leaves its setting at the default unnoticed. Domain rules (K in [2, 8], a
fraction in (0, 1)) stay in each record's ``__post_init__``.

One number rule holds for configs and for model and bundle JSON alike: an
integer is a 64-bit integer, stored as a Python ``int``; a number is finite,
kept as given if it is a Python ``int`` or ``float`` and stored as
``float(v)`` otherwise. The model and bundle readers take their values by the
same kinds through :func:`member`.
"""

import copy
import math
import numbers
import typing
from dataclasses import MISSING, field, fields
from functools import cache

from .errors import ClinpolError


def is_integer(value) -> bool:
    """An integral value; a bool is not an integer here."""
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def is_number(value) -> bool:
    """A real number with a finite float value; a bool is not a number here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def check_keys(obj, known, error: type, lead: str) -> None:
    """Raise ``error("<lead> [keys]; valid keys are [...]")`` if ``obj`` sets a
    key outside ``known``."""
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise error(f"{lead} {unknown}; valid keys are {sorted(known)}")


class _Refused(ClinpolError):
    """A value not of its kind; the message says what it must be. Readers
    reraise it as their own error, naming the key."""


def checked(read, value, error: type, label: str):
    """``read(value)``, a refused value raising ``error("<label> must be ...")``."""
    try:
        return read(value)
    except _Refused as exc:
        raise error(f"{label} {exc}") from None


def _lists(value):
    if isinstance(value, (tuple, list)):
        return [_lists(v) for v in value]
    if isinstance(value, dict):
        return {k: _lists(v) for k, v in value.items()}
    return value


class Kind:
    """What a value must be: ``ok`` tells one, ``store`` keeps it, and it lies
    in [``lo``, ``hi``] where those are set. ``what`` names one in an error,
    ``many`` several.

    ``read`` takes a value built in Python, ``load`` one read from JSON, and
    ``dump`` gives the value back as JSON; a list is stored as a tuple.
    """

    def __init__(self, what, ok, store=None, *, many=None, lo=None, hi=None):
        self.what, self.ok, self.store, self.many = what, ok, store, many
        self.lo, self.hi = lo, hi

    def bounded(self, lo, hi=None) -> "Kind":
        """This kind, at least ``lo`` and, if given, at most ``hi``."""
        out = copy.copy(self)
        out.lo, out.hi = lo, self.hi if hi is None else hi
        return out

    def read(self, value):
        if not self.ok(value):
            raise _Refused(f"must be {self.what}, got {value!r}")
        if self.store is not None:
            value = self.store(value)
        if self.lo is not None and value < self.lo:
            raise _Refused(f"must be >= {self.lo}, got {value!r}")
        if self.hi is not None and value > self.hi:
            raise _Refused(f"must be <= {self.hi}, got {value!r}")
        return value

    def load(self, value):
        return self.read(value)

    def dump(self, value):
        return _lists(value)


INT = Kind("an integer", is_integer, int, many="integers", lo=-2**63, hi=2**63 - 1)
NUMBER = Kind("a finite number", is_number,
              lambda v: v if type(v) in (int, float) else float(v), many="finite numbers")
BOOL = Kind("a boolean", lambda v: isinstance(v, bool), many="booleans")
STR = Kind("a string", lambda v: isinstance(v, str), many="strings")
ANY = Kind("a value", lambda v: True)
LIST = Kind("a list", lambda v: isinstance(v, (tuple, list)), tuple)
OBJECT = Kind("a JSON object", lambda v: isinstance(v, dict))


class Items(Kind):
    """A list of ``of`` values (exactly ``size`` of them, if given), stored
    as a tuple."""

    def __init__(self, of: Kind, size: int | None = None):
        count = {None: "a list of", 2: "a pair of"}.get(size, f"a list of {size}")
        super().__init__(f"{count} {of.many}", None)
        self.of, self.size = of, size

    def read(self, value):
        if not (isinstance(value, (tuple, list)) and self.size in (None, len(value))
                and all(map(self.of.ok, value))):
            raise _Refused(f"must be {self.what}, got {value!r}")
        return tuple(map(self.of.read, value))


class Nullable(Kind):
    """A value of ``of``, or None (JSON null)."""

    def __init__(self, of: Kind):
        super().__init__(f"{of.what} or null", None)
        self.of = of

    def read(self, value):
        return None if value is None else self.of.read(value)

    def load(self, value):
        return None if value is None else self.of.load(value)

    def dump(self, value):
        return None if value is None else self.of.dump(value)


class Nested(Kind):
    """A config record of class ``cls``, written as its JSON object."""

    def __init__(self, cls):
        super().__init__(f"a {cls.__name__}", lambda v: isinstance(v, cls))
        self.cls = cls

    def load(self, value):
        if not isinstance(value, dict):
            raise _Refused(f"must be a JSON object, got {value!r}")
        return self.cls.from_json(value)

    def dump(self, value):
        return value.to_json()


class OneOf(Kind):
    """A string among ``names``, each naming a ``noun`` (``nouns`` for several)."""

    def __init__(self, names, noun: str, nouns: str):
        super().__init__(f"a {noun} name", None)
        self.names, self.noun, self.nouns = list(names), noun, nouns

    def read(self, value):
        if isinstance(value, str) and value in self.names:
            return value
        unknown = (f"names an unknown {self.noun} {value!r}" if isinstance(value, str)
                   else f"must be a string, got {value!r}, an unknown {self.noun}")
        raise _Refused(f"{unknown}; valid {self.nouns} are {self.names}")


class Spec(Kind):
    """One of the config records in ``table``, written as ``{"kind": <its
    key>, "config": {...}}``; a ``noun`` names what they configure."""

    def __init__(self, table: dict, noun: str):
        super().__init__(f"a {noun} config",
                         lambda v: isinstance(v, tuple(table.values())))
        self.table, self.noun = table, noun

    def load(self, value):
        if not (isinstance(value, dict) and "kind" in value):
            raise _Refused(f"must be a JSON object with a 'kind' key, got {value!r}")
        check_keys(value, ("kind", "config"), _Refused, "sets unknown keys")
        kind = value["kind"]
        if not (isinstance(kind, str) and kind in self.table):
            raise _Refused(f"names an unknown {self.noun} kind {kind!r}; valid kinds "
                           f"are {sorted(self.table)}")
        return self.table[kind].from_json(value.get("config", {}))

    def dump(self, value):
        kind = next(k for k, cls in self.table.items() if isinstance(value, cls))
        return {"kind": kind, "config": value.to_json()}


def setting(default, kind: Kind | None = None, least=None):
    """A field holding ``default`` unless set; its kind is ``kind`` or, when
    that is None, its annotation's, bounded below by ``least`` if given."""
    return field(default=default, metadata={"kind": kind, "least": least})


_ANNOTATED = {int: INT, float: NUMBER, bool: BOOL, str: STR}


def _annotated(hint) -> Kind:
    if hint in _ANNOTATED:
        return _ANNOTATED[hint]
    args = typing.get_args(hint)
    if len(args) == 2 and type(None) in args:
        return Nullable(_annotated(next(a for a in args if a is not type(None))))
    if isinstance(hint, type) and issubclass(hint, Config):
        return Nested(hint)
    raise TypeError(f"no config kind for the annotation {hint!r}")


@cache
def _kinds(cls) -> dict:
    """Each field's kind, by name, in field order."""
    hints = typing.get_type_hints(cls)
    out = {}
    for f in fields(cls):
        kind = f.metadata.get("kind") or _annotated(hints[f.name])
        least = f.metadata.get("least")
        out[f.name] = kind if least is None else kind.bounded(least)
    return out


class Config:
    """Base of a config record, a dataclass whose fields declare their kinds.

    A subclass names, as class keywords, its module's ``error`` class and the
    ``lead`` that opens its messages; ``quote`` says whether a message names
    a field as ``'key'`` or as ``key``, and ``noun`` what its unknown keys
    are called ("unknown <noun> keys").
    """

    def __init_subclass__(cls, error=None, lead="", quote=True, noun="", **kwargs):
        super().__init_subclass__(**kwargs)
        cls._error, cls._lead, cls._quote = error, lead, quote
        cls._unknown = f"unknown {noun} keys" if noun else "unknown keys"

    def __post_init__(self):
        for name, kind in _kinds(type(self)).items():
            object.__setattr__(self, name, self._checked(kind.read, name,
                                                         getattr(self, name)))

    @classmethod
    def _checked(cls, read, name, value, lead=None):
        label = repr(name) if cls._quote else name
        return checked(read, value, cls._error, f"{lead or cls._lead}: {label}")

    def to_json(self) -> dict:
        return {name: kind.dump(getattr(self, name))
                for name, kind in _kinds(type(self)).items()}

    @classmethod
    def from_json(cls, obj, source: str | None = None):
        """The record a JSON object sets, its other fields at their defaults;
        the messages of the object's faults name its ``source`` (a file path,
        say) after the lead when one is given."""
        lead = f"{cls._lead} {source}" if source else cls._lead
        if not isinstance(obj, dict):
            raise cls._error(f"{lead}: {cls.__name__} needs a JSON object, got {obj!r}")
        kinds = _kinds(cls)
        check_keys(obj, kinds, cls._error, f"{lead}: {cls._unknown}")
        return cls(**{name: cls._checked(kinds[name].load, name, value, lead)
                      for name, value in obj.items()})


def member(obj, key: str, kind: Kind, error: type, what: str, default=MISSING):
    """``obj[key]`` read from JSON as ``kind``, or ``default`` if given and
    ``obj`` lacks the key. ``obj`` belongs to a ``what`` ("tree JSON", say);
    a missing key or a value not of ``kind`` raises ``error`` naming the key."""
    if not isinstance(obj, dict):
        raise error(f"malformed {what}: expected a JSON object, got {obj!r}")
    if key not in obj:
        if default is MISSING:
            raise error(f"{what} lacks the key {key!r}")
        return default
    return checked(kind.load, obj[key], error, f"malformed {what}: {key!r}")
