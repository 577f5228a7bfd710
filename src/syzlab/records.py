"""Record classes: plain classes that name their fields once, in `_fields`.

Each record class assigns its fields in its own `__init__`, in the order of
`_fields`, and checks there what it must.  From that list a record has the
repr, equality and copy-with-changes of a dataclass, and nothing is
generated or compiled when the package is imported: a cell still prints as
`Parameters(n=2, b=0, d=4, p=6, q=1)`.  A frozen record is hashable and
refuses to set or delete an attribute; its `__init__` sets each field with
set_field.
"""

# How a frozen record's __init__ sets a field, past the record's own
# __setattr__, as a frozen dataclass does.  Writing into self.__dict__
# instead would cost every later read of the field the interpreter's fast
# path for instance attributes.
set_field = object.__setattr__


class Record:
    """The fields named in `_fields`, printed, compared and copied in order."""

    _fields = ()
    __hash__ = None     # mutable: equal records may stop being equal

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def replace(self, **changes):
        """A copy with `changes` made to some fields, built and checked by
        `__init__`; a name that is no field raises TypeError."""
        return type(self)(**{**{name: getattr(self, name) for name in self._fields},
                             **changes})


class FrozenRecord(Record):
    """A record whose fields are set once, by `__init__`."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())
