"""Exception types and the value-record base shared across the package.

Construction-time referential problems raise InvalidComplexError, as does
every operation that walks a complex validate() faults, with its first
problem.  Operation preconditions raise OperationError subclasses so the CLI
can map them to exit code 2.

`_Record`, the frozen-record base of the value classes, lives here because
every module imports this one; defining a record class compiles no code.
"""

from operator import attrgetter

_MISSING = object()
# Stores a field.  Writing to `self.__dict__` would replace the instance's
# inline attribute values by a dict and slow every later attribute read.
_setattr = object.__setattr__


class _FieldTable:
    """A record class's `__dataclass_fields__`, read by dataclasses.replace,
    fields and asdict; built on a first read with the dataclasses module the
    reader imported, so importing the package loads none of it."""

    tables = {}

    def __get__(self, record, cls):
        if cls not in self.tables:
            import dataclasses as dc
            self.tables[cls] = dc.make_dataclass(cls.__name__, [
                (n, object, dc.field(default=getattr(cls, n, dc.MISSING), compare=n in cls._compared))
                for n in cls._fields]).__dataclass_fields__
        return self.tables[cls]


class _OnRead:
    """A class attribute naming an on-read field: a record made by
    `_traced` stores its private trace, not the field, and the field is
    `build(record)` on first read, kept in the record, or with keep=False
    built again on every read.  A record made by __init__ stores the field,
    so this never runs for it.  Read on the class it raises AttributeError,
    so the field has no default."""

    def __init__(self, build, keep=True):
        self.build, self.keep = build, keep

    def __set_name__(self, cls, name):
        self.name = name

    def __get__(self, record, cls):
        if record is None:
            raise AttributeError(f"{cls.__name__}.{self.name} is built on read")
        value = self.build(record)
        if self.keep:
            _setattr(record, self.name, value)
        return value


class _Record:
    """A frozen value record.

    The fields are the names annotated on the class and its bases, in order;
    a class attribute of the same name, unless an `_OnRead`, is that field's
    default.  __init__ takes them positionally or by keyword, then calls the
    class's __post_init__, if any, which may set a field with object.__setattr__.
    Assigning or deleting an attribute raises AttributeError.  Records of
    one class compare and hash by their `_compared` fields (all unless the
    class names fewer) and print as `Name(field=value, ...)`.
    """

    _fields = _compared = ()
    __dataclass_fields__ = _FieldTable()

    def __init_subclass__(cls, **kwargs):
        """Records the fields and gives the class its __init__, __eq__ and
        __hash__, closures over its field names and compared-fields key."""
        super().__init_subclass__(**kwargs)
        names = {}
        for base in reversed(cls.__mro__):
            names.update(dict.fromkeys(vars(base).get("__annotations__", ())))
        names = cls._fields = tuple(names)
        if "_compared" not in vars(cls):
            cls._compared = names
        compared = cls._compared  # attrgetter of one name gives no tuple
        key = (attrgetter(*compared) if len(compared) > 1
               else lambda r: tuple(getattr(r, n) for n in compared))
        post = getattr(cls, "__post_init__", None) is not None

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != len(names):
                args = cls._bind(args, kwargs)
            for name, value in zip(names, args):
                _setattr(self, name, value)
            if post:
                self.__post_init__()

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return key(self) == key(other)

        cls.__init__, cls.__eq__, cls.__hash__ = __init__, __eq__, lambda self: hash(key(self))

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        """The field values of a call that does not pass each field
        positionally; TypeError for a missing, unknown or repeated one."""
        values = [*args, *(kwargs.pop(n) if n in kwargs else getattr(cls, n, _MISSING)
                           for n in cls._fields[len(args):])]
        if kwargs or len(values) != len(cls._fields) or any(v is _MISSING for v in values):
            raise TypeError(f"{cls.__name__}({', '.join(cls._fields)}) does not take"
                            f" {len(args)} positional arguments and keywords {sorted(kwargs)}")
        return values

    @classmethod
    def _traced(cls, *values):
        """A record holding `values` under the class's `_trace` names, its
        stored fields and private trace, made without __init__."""
        record = cls.__new__(cls)
        for name, value in zip(cls._trace, values):
            _setattr(record, name, value)
        return record

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class ParseError(ValueError):
    """Malformed input text; carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InvalidComplexError(ValueError):
    """A cell reference does not resolve, identifiers collide, or a walked complex is unsound."""


class OperationError(RuntimeError):
    """An operation's precondition does not hold for the given input."""


class CyclicFieldError(OperationError):
    """A closed path exists where acyclicity is required.

    `witness` holds the closed path (an LPath or XPath) when available.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CancellationError(OperationError):
    """Cancellation rejected: wrong number of connecting paths."""


class DegenerateOperationError(OperationError):
    """The move would leave a state the encoding cannot represent, such as an empty walk."""


class NotInImageError(OperationError):
    """The line field is not the image of any vector field."""
