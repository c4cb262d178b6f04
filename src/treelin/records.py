"""Frozen records: small immutable value classes that generate no code.

A record states its fields once, as ``__slots__`` in constructor order::

    class Point(Record, defaults={"z": 0.0}):
        __slots__ = ("x", "y", "z")

``Point(1, 2)``, ``Point(1, y=2)`` and ``Point(x=1, y=2, z=0.0)`` build the
same record; a default fills a trailing field left out.  Construction then
runs the class's ``__post_init__``, which may check the fields or normalize
them with ``object.__setattr__``.  Assignment and deletion raise
``AttributeError``.  Records of the same class compare and hash by the
fields named in ``compare`` (every field unless given), and print as
``Point(x=1, y=2, z=0.0)``.

Records do what treelin needs of a frozen ``@dataclass``, which builds
its methods from generated source text when its class is defined: about a
millisecond a class in every process, on a 2 vCPU Xeon.  A record's
methods are the ordinary functions below, shared by every record class.
"""

from __future__ import annotations


class Record:
    """The base of every record class (see the module docstring)."""

    __slots__ = ()
    _fields: tuple = ()
    _compared: tuple = ()
    _defaults: dict = {}
    _setters: tuple = ()

    def __init_subclass__(cls, defaults=None, compare=None, **kwargs):
        super().__init_subclass__(**kwargs)
        # a subclass keeps its base's fields and adds those of its own slots
        own = tuple(cls.__dict__.get("__slots__", ()))
        cls._fields = cls._fields + own
        cls._defaults = {**cls._defaults, **(defaults or {})}
        cls._compared = cls._compared + own if compare is None else tuple(compare)
        # the slots' own setters, which bypass __setattr__
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for set_field, value in zip(setters, args):
            set_field(self, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        """The field values of ``cls(*args, **kwargs)``, in field order."""
        name = cls.__name__
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments "
                            f"but {len(args)} were given")
        values = dict(zip(fields, args))
        for key in kwargs:
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
        values.update(kwargs)
        missing = [f for f in fields if f not in values and f not in cls._defaults]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
        return [values[f] if f in values else cls._defaults[f] for f in fields]

    def __post_init__(self):
        pass

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild a record through its constructor
        return self.__class__, tuple([getattr(self, name) for name in self._fields])
