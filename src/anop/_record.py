"""Field records: the methods :mod:`dataclasses` writes, without its import,
which loads ``inspect``, ``ast``, ``dis`` and ``tokenize`` and costs a
command-line start more than deciding a spectrum does."""

_METHODS = """\
def __init__(self{params}):
{body}
def __repr__(self):
    return f'{{type(self).__qualname__}}({shown})'
def __eq__(self, other):
    return ({mine}) == ({theirs}) if other.__class__ is self.__class__ else NotImplemented
def __hash__(self):
    return hash(({mine}))
"""


def _frozen(self, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen record")


def record(*, frozen=False):
    """``dataclass(frozen=True)``, or ``dataclass(eq=False)`` when not frozen:
    the fields are the annotations in order, defaults the same-named class
    attributes; one ``exec`` writes an annotated ``__init__`` that stores
    them in order (as ``vars()`` lists them) and calls any ``__post_init__``,
    and a ``Name(field=value, ...)`` repr.  A frozen record compares and
    hashes its field tuple within one class and refuses assignment and
    deletion (``object.__setattr__`` still writes); any other keeps identity."""
    def build(cls):
        notes = cls.__dict__.get("__annotations__", {})
        scope = {"_set": object.__setattr__}
        scope.update((f"_d_{n}", cls.__dict__[n]) for n in notes if n in cls.__dict__)
        store = "_set(self, {0!r}, {0})" if frozen else "self.{0} = {0}"
        body = [store.format(n) for n in notes]
        body += ["self.__post_init__()"] * hasattr(cls, "__post_init__")
        exec(_METHODS.format(
            params="".join(f", {n}=_d_{n}" if f"_d_{n}" in scope else f", {n}" for n in notes),
            body="\n".join("    " + line for line in body),
            shown=", ".join(f"{n}={{self.{n}!r}}" for n in notes),
            mine="".join(f"self.{n}," for n in notes),
            theirs="".join(f"other.{n}," for n in notes)), scope)
        scope["__init__"].__annotations__ = {**notes, "return": None}
        cls.__init__, cls.__repr__ = scope["__init__"], scope["__repr__"]
        if frozen:
            cls.__eq__, cls.__hash__ = scope["__eq__"], scope["__hash__"]
            cls.__setattr__ = cls.__delattr__ = _frozen
        return cls
    return build
