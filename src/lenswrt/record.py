"""Frozen records in place of @dataclass(frozen=True), whose import loads
inspect, ast, dis and tokenize into every CLI process.  An instance holds its
fields and nothing else, in order: __eq__ (unless the class has one), __hash__
and the dataclass __repr__ read them there, and assignment raises AttributeError."""


def record(cls):
    names = tuple(cls.__annotations__)
    # a generated __init__: Python checks the arguments, and it costs what a dataclass one does
    body = "".join(f"\n    _set(self, {name!r}, {name})" for name in names)
    post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    scope = {"_set": object.__setattr__}
    exec(f"def __init__(self, {', '.join(names)}):{body}{post}", scope)
    cls.__init__ = scope["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in vars(self).items())})"

    def frozen(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    cls.__eq__ = cls.__dict__.get("__eq__", __eq__)
    cls.__hash__ = lambda self: hash(tuple(vars(self).values()))
    cls.__repr__ = __repr__
    cls.__setattr__ = cls.__delattr__ = frozen
    return cls
