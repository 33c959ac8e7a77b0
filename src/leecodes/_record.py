"""The immutable value type behind the package's result records."""


class Record:
    """Immutable fields named by a subclass's __slots__, set in that order from
    the constructor's arguments (positional or by name).  == and hash compare
    the fields in order, as a frozen dataclass's do; a subclass checks or
    normalises them in _validate."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        values = dict(zip(names, args))
        if len(args) > len(names) or values.keys() & kwargs.keys() or (
                values.keys() | kwargs.keys()) != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        values.update(kwargs)
        for name in names:
            object.__setattr__(self, name, values[name])
        self._validate()

    def _validate(self) -> None:
        pass

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
