"""Value records: the few dataclass behaviours the package relies on, built
once in this module instead of generated and compiled for each class.

A subclass of ``Record`` declares its fields as annotations in its class
body, in constructor order.  A class attribute named like a field is that
field's default, shared by every instance that takes it, so it should not
be mutable.  A record binds its fields by position or keyword, then runs
its ``__post_init__``.  Two records are equal when they are of one class
and their fields are equal, and a record prints as ``Name(field=value,
...)``.  A ``Record`` takes assignment and has no hash; a ``FrozenRecord``
refuses assignment and hashes by its fields.  Every record keeps a
``__dict__``, which ``cached_property`` writes to.
"""

_set = object.__setattr__


class Record:
    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for name, value in zip(self._fields, args):
            _set(self, name, value)
        self.__post_init__()

    def _bind(self, args, kwargs):
        """One value per field from ``args`` and ``kwargs``, a missing one
        from its default."""
        cls = type(self)
        names = cls._fields
        if len(args) > len(names) or \
                not kwargs.keys() <= set(names[len(args):]):
            raise TypeError(f"{cls.__name__} takes the fields "
                            f"({', '.join(names)}), each once")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs[name])
            elif hasattr(cls, name):
                values.append(getattr(cls, name))
            else:
                raise TypeError(f"{cls.__name__} needs its field '{name}'")
        return values

    def __post_init__(self):
        """Check or normalize the fields; a subclass may override it."""

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")

    def __hash__(self):
        return hash(self._values())
