"""Plain record classes, compared and printed field by field.

A record lists its fields in ``__slots__`` and sets them in its own
``__init__``.  This takes the place of ``dataclasses``, whose import alone
pulls ``inspect``, ``ast`` and ``dis`` into every process that imports
flagvec.
"""


class Record:
    """Base of the report and battery-member classes: two records are equal
    when they are of the same class and their fields are equal, and the repr
    names every field.  Like a dataclass with ``eq=True``, a record is not
    hashable."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
