"""The wire-message machinery: registry, encode/decode, validation.

A wire message is a dataclass decorated with :func:`wire_message`.  The
decorator registers the class under its wire ``type`` name, stamps
``TYPE`` / ``VERSION`` class attributes, and appends an ``extra`` dict
field that carries any keys a *newer* peer sent that this process's
schema does not declare -- re-emitted verbatim on encode, so an old
relay never strips fields it does not understand.

Validation is structural, not semantic: each declared field's annotation
is checked against the incoming value (``str``, ``int``, ``float``,
``bool``, ``dict``, ``list`` and ``Optional`` combinations thereof --
ints pass where floats are declared, matching JSON's single number
type).  Semantic checks belong in an optional ``validate()`` method on
the message class.  Both run at construction, and messages are frozen,
so a message that exists is valid: ``decode`` is construction from a
dict, and ``encode`` has nothing left to check.
"""

from __future__ import annotations

import typing
from dataclasses import MISSING, dataclass, field, fields
from typing import Dict, Optional, Tuple, Type

__all__ = ["WireError", "WireMessage", "wire_message", "encode", "decode",
           "registered_types"]


class WireError(ValueError):
    """A payload that does not conform to its declared schema."""


#: wire type name -> message class
_REGISTRY: Dict[str, type] = {}

#: reserved envelope keys, never treated as payload fields
_ENVELOPE_KEYS = ("type", "version")


class WireMessage:
    """Marker base class (set by the decorator; not for direct use)."""

    TYPE: typing.ClassVar[str]
    VERSION: typing.ClassVar[int]

    def validate(self) -> None:
        """Semantic validation hook; raise :class:`WireError` to reject."""


def _type_checker(annotation: object) -> Optional[Tuple[tuple, bool]]:
    """Map an annotation to ``(isinstance types, allow_none)``.

    Returns ``None`` for annotations we do not check (``object``,
    unions of concrete types, exotic generics) -- unknown shapes pass
    rather than rejecting valid traffic.
    """
    allow_none = False
    origin = typing.get_origin(annotation)
    if origin is typing.Union:
        args = [a for a in typing.get_args(annotation) if a is not type(None)]
        if len(args) != 1:
            return None
        allow_none = True
        annotation = args[0]
        origin = typing.get_origin(annotation)
    if origin is not None:  # Dict[...], List[...]: check the container only
        annotation = origin
    simple = {str: (str,), bool: (bool,), int: (int,),
              float: (int, float), dict: (dict,), list: (list,)}
    types = simple.get(annotation)
    if types is None:
        return None
    return types, allow_none


def _validate(message: object) -> None:
    """The decorator's ``__post_init__``: field types, then ``validate()``."""
    cls = type(message)
    for name, checker in cls._WIRE_CHECKS.items():  # type: ignore[attr-defined]
        value = getattr(message, name)
        types, allow_none = checker
        if value is None:
            if allow_none:
                continue
            raise WireError(
                f"{cls.TYPE}: field '{name}' must not be null")
        # bool is an int subclass; reject True where an int count is
        # declared only when bool itself is not the declared type
        if isinstance(value, bool) and bool not in types and float not in types:
            raise WireError(
                f"{cls.TYPE}: field '{name}' has wrong type bool")
        if not isinstance(value, types):
            raise WireError(
                f"{cls.TYPE}: field '{name}' has wrong type "
                f"{type(value).__name__}")
    message.validate()


def wire_message(type_name: str, version: int = 1):
    """Class decorator: declare a dataclass as a named wire message."""

    def decorate(cls: type) -> type:
        if type_name in _REGISTRY:
            raise ValueError(f"duplicate wire type {type_name!r}")
        if not issubclass(cls, WireMessage):
            raise TypeError(f"{cls.__name__} must subclass WireMessage")
        annotations = dict(cls.__dict__.get("__annotations__", {}))
        if "extra" in annotations:
            raise ValueError(f"{cls.__name__}: 'extra' is reserved")
        # append the unknown-field carrier last so declared fields keep
        # their positional order
        annotations["extra"] = Dict[str, object]
        cls.__annotations__ = annotations
        setattr(cls, "extra", field(default_factory=dict, repr=False))
        cls.__post_init__ = _validate
        datacls = dataclass(cls, frozen=True)
        datacls.TYPE = type_name
        datacls.VERSION = int(version)
        checks: Dict[str, Tuple[tuple, bool]] = {}
        for name, annotation in annotations.items():
            if name == "extra" or isinstance(annotation, str):
                continue
            checker = _type_checker(annotation)
            if checker is not None:
                checks[name] = checker
        datacls._WIRE_CHECKS = checks
        _REGISTRY[type_name] = datacls
        return datacls

    return decorate


def registered_types() -> Dict[str, type]:
    """A copy of the wire-type registry (``type name -> class``)."""
    return dict(_REGISTRY)


def encode(message: WireMessage) -> Dict[str, object]:
    """Render a message to its JSON-ready wire dict.

    The envelope (``type``, ``version``) comes first, then every
    declared field, then the ``extra`` passthrough keys (declared
    fields win on collision).
    """
    cls = type(message)
    if not hasattr(cls, "TYPE"):
        raise WireError(f"{cls.__name__} is not a @wire_message class")
    data: Dict[str, object] = {"type": cls.TYPE, "version": cls.VERSION}
    for spec in fields(message):
        if spec.name == "extra":
            continue
        data[spec.name] = getattr(message, spec.name)
    for key, value in (message.extra or {}).items():
        data.setdefault(key, value)
    return data


def decode(data: object, expect: Optional[type] = None) -> WireMessage:
    """Validate a wire dict back into its typed message.

    ``expect`` pins the message class; it is also the fallback when the
    dict carries no ``type`` key (legacy peers, HTTP bodies).  Unknown
    keys are kept in ``.extra`` -- a newer peer's fields survive a
    decode/encode round trip.  Any ``version`` is accepted: additive
    schema evolution plus unknown-field tolerance is the compatibility
    contract.
    """
    if not isinstance(data, dict):
        raise WireError(
            f"wire message must be a JSON object, got {type(data).__name__}")
    type_name = data.get("type")
    if type_name is None:
        if expect is None:
            raise WireError("wire message has no 'type' field")
        cls = expect
    else:
        cls = _REGISTRY.get(str(type_name))
        if cls is None:
            raise WireError(f"unknown wire type {type_name!r}")
        if expect is not None and cls is not expect:
            raise WireError(
                f"expected {expect.TYPE!r} message, got {type_name!r}")
    known = {spec.name for spec in fields(cls)} - {"extra"}
    kwargs: Dict[str, object] = {}
    extra: Dict[str, object] = {}
    for key, value in data.items():
        if key in _ENVELOPE_KEYS:
            continue
        if key in known:
            kwargs[key] = value
        else:
            extra[key] = value
    missing = [spec.name for spec in fields(cls)
               if spec.name != "extra" and spec.name not in kwargs
               and spec.default is MISSING and spec.default_factory is MISSING]
    if missing:
        raise WireError(
            f"{cls.TYPE}: missing required field(s) {', '.join(missing)}")
    return cls(**kwargs, extra=extra)
