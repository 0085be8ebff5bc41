"""The base of the library's immutable result records.

A record names its fields in ``__slots__`` (plus ``"__dict__"`` when it
caches properties) and writes its own ``__init__``, which validates its
arguments and sets each field once with ``object.__setattr__``.  The
base compares, hashes, prints and pickles a record by those fields, in
order, and refuses to assign or delete an attribute afterwards.  Nothing
here generates code, so defining a record costs no more at import than
defining any class.
"""

from operator import attrgetter


class Record:
    """Equality, hashing, ``repr`` and pickling over the fields of a subclass.

    Two records are equal only when they are of the same class and their
    fields are equal.  The ``repr`` is ``QualName(field=value!r, ...)``.
    Pickling calls the constructor again with the fields in order, so
    each subclass's ``__init__`` must take them positionally.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        cls._fields = cls.__match_args__ = fields
        # One field gives its value, several a tuple: equal either way.
        cls._values = attrgetter(*fields)

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
