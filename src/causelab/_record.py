"""Frozen value records: in ``class Point(Record): x: int; y: int = 0`` the
class's own annotations, in order, are its fields, and a class attribute of the
same name is that field's default.  Nothing is generated or compiled when the
class is made: one shared ``__init__`` binds positional and keyword arguments,
then runs ``__post_init__``, which may normalize a field with
``object.__setattr__``.  Records equal only records of the same class with equal
fields, hash by their field values, repr as ``Point(x=1, y=0)``, and refuse
assignment and deletion.  ``class X(Record, eq=False)`` keeps identity equality
and hashing.
"""

import operator


class Record:
    def __init_subclass__(cls, eq: bool = True) -> None:
        cls._fields = names = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
        get = operator.attrgetter(*names)
        cls._values = staticmethod(get if len(names) > 1 else lambda obj: (get(obj),))
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs) -> None:
        cls, names = type(self), self._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, {len(args)} given")
        bound = dict(zip(names, args))
        for name in kwargs:
            if name not in names or name in bound:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {name!r}")
        values = {**self._defaults, **bound, **kwargs}
        for name in names:
            if name not in values:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
