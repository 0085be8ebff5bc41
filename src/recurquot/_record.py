"""The base of the library's immutable values.

A value class names its fields in ``__slots__`` (plus ``"__dict__"``
when it caches properties).  The base builds, compares, hashes, prints
and pickles a value by those fields, in slot order, and refuses to
assign or delete an attribute afterwards.

``Record.__init__`` takes the fields positionally or by keyword.  Trailing
fields with defaults are declared once, as ``_defaults = {"field": value,
...}`` in field order.  A missing, unknown, repeated or surplus argument
raises TypeError naming the class.  When every field is given
positionally, each slot is set directly, at about the cost of a
hand-written constructor; matching keywords costs a few times that, so
the library's own code passes fields positionally.

Two kinds of class keep their own ``__init__`` and set each field once
with ``object.__setattr__``: records that validate, and raise on bad
input (``FixedDenominator``, ``PolynomialDenominatorBound``, ``Place``,
``HyperplaneForm``, ``SIntegerSpec``), and value types that normalise,
so that equal values have equal fields (``LinearRecurrence``,
``MultiRecurrence``, ``UniPoly``, ``FactoredRational``), which keep
their own ``repr`` too.  Either way the constructor takes the fields in
slot order, because unpickling calls it with them.  Nothing here
generates code, so defining a class costs no more at import than
defining any class.
"""

from operator import attrgetter


class Record:
    """Construction, equality, hashing, ``repr`` and pickling over the fields.

    Two records are equal only when they are of the same class and their
    fields are equal.  The ``repr`` is ``QualName(field=value!r, ...)``.
    """

    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        if tuple(cls._defaults) != fields[len(fields) - len(cls._defaults):]:
            raise TypeError(f"{cls.__qualname__}: defaults must cover trailing fields, in order")
        cls._fields = cls.__match_args__ = fields
        cls._setters = tuple(getattr(cls, name).__set__ for name in fields)
        # One field gives its value, several a tuple: equal either way.
        cls._values = attrgetter(*fields)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._arguments(args, kwargs)
        for set_field, value in zip(self._setters, args):
            set_field(self, value)

    @classmethod
    def _arguments(cls, args, kwargs) -> list:
        """The field values in slot order, from arguments given any other way."""
        name, fields = cls.__qualname__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() has no field {key!r}")
            if key in values:
                raise TypeError(f"{name}() got field {key!r} twice")
            values[key] = value
        values = {**cls._defaults, **values}
        missing = [repr(field) for field in fields if field not in values]
        if missing:
            raise TypeError(f"{name}() is missing {', '.join(missing)}")
        return [values[field] for field in fields]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self._fields)
