"""The exception taxonomy, and the record base every module shares."""


class RowisoError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(RowisoError):
    """Malformed input: bad presentation data, bad words, bad JSON."""


class ContractViolation(RowisoError):
    """A well-formed input violates a mathematical precondition.

    Raised when data that parsed fine turns out to be inconsistent with
    the structures it claims to present, e.g. a generator that is not
    injective on the basis, or a pair of families that do not satisfy
    the declared commutation rule.
    """


class NotCommuting(ContractViolation):
    """An operator handed in as a commutant member fails to commute."""


class ResourceExceeded(RowisoError):
    """A computation hit its configured budget before reaching a verdict.

    Deciders in this package never guess: when a search or chain
    simulation cannot certify an answer within its budget it raises
    this instead of returning a possibly wrong result.
    """


class _RecordType(type):
    """Builds a record class from the fields its body annotates.

    Fields keep their annotation order; a value in the body is the
    field's default.  The fields become the class's ``__slots__``, and
    one ``__init__`` for the class's own signature is compiled when the
    class is created.  Fields named in ``_hidden`` stay out of
    equality, hash, repr and the command line's rendering.
    """

    def __new__(mcls, name, bases, ns):
        fields = tuple(ns.get("__annotations__", ()))
        hidden = ns.get("_hidden", ())
        env = {"_set": object.__setattr__}
        params = []
        for f in fields:
            if f in ns:  # a default, read once by the compiled signature
                env[f"_{f}"] = ns.pop(f)
                f = f"{f}=_{f}"
            params.append(f)
        shown = tuple(f for f in fields if f not in hidden)
        ns["__slots__"] = ns["_fields"] = fields
        ns["_shown"] = shown
        stores = "".join(f"\n    _set(self, {f!r}, {f})" for f in fields)
        key = "".join(f"self.{f}, " for f in shown)
        exec(f"def __init__(self, {', '.join(params)}):{stores or ' pass'}\n"
             f"def _key(self): return ({key})\n", env)
        ns["__init__"], ns["_key"] = env["__init__"], env["_key"]
        ns["__init__"].__qualname__ = f"{ns['__qualname__']}.__init__"
        return super().__new__(mcls, name, bases, ns)


class _Record(metaclass=_RecordType):
    """Immutable value: equal only to a record of its own class."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)
