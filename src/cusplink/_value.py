"""The value protocol of the immutable types FieldSpec, Permutation and
BraidWord, derived once from each type's __slots__; how refusals show ints."""

from __future__ import annotations

from operator import attrgetter


def int_tuple(values, what: str) -> tuple[int, ...]:
    """The values as a tuple, each of type int exactly: a float, a str or
    a bool is refused, where int() would truncate or convert it."""
    values = tuple(values)
    for value in values:  # a bare loop is the cheapest scan of a short tuple
        if type(value) is not int:
            i = next(i for i, v in enumerate(values) if type(v) is not int)
            raise TypeError(f"{what} {values[i]!r} at position {i} is not an int")
    return values


def shown_int(n: int) -> str:
    """n as a refusal echoes it: in decimal up to 128 bits, else as "a
    <b>-bit integer", not as an error line of thousands of digits."""
    sign = "negative " if n < 0 else ""
    return str(n) if n.bit_length() <= 128 else f"a {sign}{n.bit_length()}-bit integer"


class Value:
    """An immutable value whose fields are its class's __slots__, set in
    __init__ through object.__setattr__.

    It equals only an instance of the same class with equal fields, is
    hashed as the tuple of its fields, shows as Name(field=value, ...),
    pickles through the validating constructor, and refuses every write
    or delete with AttributeError."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # one field gives the bare value, several give a tuple; either
        # compares the same way
        cls._get = attrgetter(*cls.__slots__)

    def _fields(self) -> tuple:
        """The field values, in __slots__ order."""
        values = self._get(self)
        return values if len(self.__slots__) > 1 else (values,)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._get(self) == self._get(other)

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}"
                          for name, value in zip(self.__slots__, self._fields()))
        return f"{self.__class__.__name__}({shown})"

    def __reduce__(self):
        return self.__class__, self._fields()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{self.__class__.__name__} is immutable; cannot change {name!r}")

    __delattr__ = __setattr__
