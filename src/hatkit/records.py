"""Flat report records and their JSON form."""


class Record:
    """Base of a flat report record.  Its fields are the annotations of
    its classes, in declaration order (a base class's first), each given
    to the constructor by keyword exactly once (TypeError otherwise).
    Two records are equal when they are of the same class with equal
    fields; records are unhashable.

    A subclass names the set _hidden of its fields (artefacts attached
    for later stages), left out of the repr and the JSON form."""

    _fields = ()
    _hidden = frozenset()
    __hash__ = None

    def __init_subclass__(cls):
        cls._fields += tuple(cls.__annotations__)
        cls._field_set = frozenset(cls._fields)

    def __init__(self, **values):
        if values.keys() != self._field_set:
            raise TypeError(f"{type(self).__name__} takes the fields "
                            f"{self._fields}, not {tuple(values)}")
        self.__dict__.update(values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ([getattr(self, f) for f in self._fields]
                == [getattr(other, f) for f in self._fields])

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields
                          if f not in self._hidden)
        return f"{type(self).__qualname__}({shown})"

    def to_json_dict(self):
        """The fields in declaration order, less the _hidden ones."""
        return {f: getattr(self, f) for f in self._fields
                if f not in self._hidden}


def replace(record, **changes):
    """A new record of record's class, with its fields and the given
    changes.  It is built from the fields alone, so nothing record has
    cached (such as AltDecomposition.cycle_graph) carries over."""
    values = {f: getattr(record, f) for f in record._fields}
    return type(record)(**values | changes)
