"""Frozen record classes: the part of ``@dataclass(frozen=True)`` rtflab uses.

``import dataclasses`` loads ``inspect`` (and with it ``ast``, ``dis`` and
``tokenize``), and each dataclass execs six generated functions, so every
subcommand paid both at start-up.  `record` writes the same methods as one
source per class and execs it once.  Each method names the class's fields
directly, as the dataclass methods do, so an instance costs no more to build,
compare or hash than a dataclass instance.
"""

from __future__ import annotations


def record(cls: type) -> type:
    """Class decorator over the annotated fields of ``cls``, in order.

    Adds ``__init__`` (positional or keyword, the class attributes as
    defaults, then ``__post_init__`` if the class has one), ``__eq__`` and
    ``__hash__`` on the field tuple (``NotImplemented`` for another class)
    and the dataclass ``repr`` ``Name(field=value, ...)``.  Instances are
    frozen: assignment and deletion raise AttributeError, and
    ``__post_init__`` writes through ``object.__setattr__``.
    """
    names = list(cls.__dict__.get("__annotations__", {}))
    namespace = {"_setattr": object.__setattr__}
    params = []
    for name in names:
        if name in cls.__dict__:
            namespace[f"_default_{name}"] = cls.__dict__[name]
            params.append(f"{name}=_default_{name}")
        else:
            params.append(name)
    mine = "".join(f"self.{n}, " for n in names)
    theirs = "".join(f"other.{n}, " for n in names)
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    lines = [f"def __init__(self, {', '.join(params)}):"]
    lines += [f"    _setattr(self, {n!r}, {n})" for n in names]
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    lines += [
        "def __setattr__(self, name, value):",
        "    raise AttributeError(f'cannot assign to field {name!r}')",
        "def __delattr__(self, name):",
        "    raise AttributeError(f'cannot delete field {name!r}')",
        "def __hash__(self):",
        f"    return hash(({mine}))",
        "def __repr__(self):",
        f"    return f'{{self.__class__.__qualname__}}({shown})'",
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return ({mine}) == ({theirs})",
        "    return NotImplemented",
    ]
    exec(compile("\n".join(lines), f"<record {cls.__qualname__}>", "exec"), namespace)
    for method in ("__init__", "__setattr__", "__delattr__", "__hash__", "__repr__", "__eq__"):
        setattr(cls, method, namespace[method])
    return cls
