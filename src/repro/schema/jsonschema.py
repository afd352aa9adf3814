"""Export / import between the internal grammar and JSON Schema.

The internal grammar is the subset of the json-schema.org specification
identified in Section 4 of the paper, so the mapping is direct:

========================  =============================================
internal node             JSON Schema
========================  =============================================
``PrimitiveSchema``       ``{"type": "number" | "string" | ...}``
``ObjectTuple``           ``{"type": "object", "properties": ...,
                          "required": [...],
                          "additionalProperties": false}``
``ArrayTuple``            ``{"type": "array", "prefixItems": [...],
                          "minItems": m, "maxItems": n, "items": false}``
``ObjectCollection``      ``{"type": "object",
                          "additionalProperties": S}``
``ArrayCollection``       ``{"type": "array", "items": S}``
``Union``                 ``{"anyOf": [...]}``
``NEVER``                 ``false``
========================  =============================================

Collection statistics (active domain, longest observed array) ride
along in an ``x-repro`` extension object so export → import round-trips
exactly, including schema entropy.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.errors import UnsupportedSchemaError
from repro.jsontypes.kinds import Kind
from repro.schema.nodes import (
    ArrayCollection,
    ArrayTuple,
    NEVER,
    ObjectCollection,
    ObjectTuple,
    PRIMITIVE_SCHEMAS,
    PrimitiveSchema,
    Schema,
    Union,
    union,
)

_KIND_TO_NAME = {
    Kind.BOOLEAN: "boolean",
    Kind.NUMBER: "number",
    Kind.STRING: "string",
    Kind.NULL: "null",
}
_NAME_TO_KIND = {name: kind for kind, name in _KIND_TO_NAME.items()}

#: ``$schema`` identifier attached to exported root documents.
DIALECT = "https://json-schema.org/draft/2020-12/schema"


def to_json_schema(schema: Schema, *, root: bool = True) -> Any:
    """Convert an internal schema to a JSON Schema document (a dict).

    ``root=True`` attaches the ``$schema`` dialect marker.
    """
    document = _node_to_json(schema)
    if root and isinstance(document, dict):
        document = {"$schema": DIALECT, **document}
    return document


def _node_to_json(schema: Schema) -> Any:
    if schema is NEVER:
        return False
    if isinstance(schema, PrimitiveSchema):
        return {"type": _KIND_TO_NAME[schema.kind]}
    if isinstance(schema, Union):
        return {"anyOf": [_node_to_json(b) for b in schema.branches]}
    if isinstance(schema, ObjectTuple):
        properties: Dict[str, Any] = {}
        for key, child in schema.required + schema.optional:
            properties[key] = _node_to_json(child)
        document: Dict[str, Any] = {
            "type": "object",
            "properties": properties,
            "additionalProperties": False,
        }
        required = sorted(schema.required_keys)
        if required:
            document["required"] = required
        return document
    if isinstance(schema, ArrayTuple):
        document = {
            "type": "array",
            "prefixItems": [_node_to_json(c) for c in schema.elements],
            "minItems": schema.min_length,
            "maxItems": len(schema.elements),
            "items": False,
        }
        return document
    if isinstance(schema, ArrayCollection):
        return {
            "type": "array",
            "items": _node_to_json(schema.element),
            "x-repro": {"maxLengthSeen": schema.max_length_seen},
        }
    if isinstance(schema, ObjectCollection):
        return {
            "type": "object",
            "additionalProperties": _node_to_json(schema.value),
            "x-repro": {"domain": sorted(schema.domain)},
        }
    raise UnsupportedSchemaError(f"not a schema: {schema!r}")


def _member(
    body: dict, key: str, kind: type, default: Any, item: type = object
) -> Any:
    """``body[key]`` (or ``default``): a ``kind``, and when a list, one
    of ``item`` values."""
    value = body.get(key, default)
    if not isinstance(value, kind) or (
        isinstance(value, list)
        and not all(isinstance(element, item) for element in value)
    ):
        raise UnsupportedSchemaError(
            f"{key!r} must be {kind.__name__}, not {value!r}"
        )
    return value


def from_json_schema(document: Any) -> Schema:
    """Parse a JSON Schema document produced by :func:`to_json_schema`.

    Only the subset emitted by this module is accepted; anything else
    raises :class:`~repro.errors.UnsupportedSchemaError`.
    """
    if document is False:
        return NEVER
    if not isinstance(document, dict):
        raise UnsupportedSchemaError(
            f"unsupported JSON Schema document: {document!r}"
        )
    body = {k: v for k, v in document.items() if k != "$schema"}
    if "anyOf" in body:
        return union(
            *(from_json_schema(b) for b in _member(body, "anyOf", list, []))
        )
    type_name = body.get("type")
    if isinstance(type_name, str) and type_name in _NAME_TO_KIND:
        return PRIMITIVE_SCHEMAS[_NAME_TO_KIND[type_name]]
    extension = _member(body, "x-repro", dict, {})
    if type_name == "object":
        extra = body.get("additionalProperties", True)
        # ``additionalProperties: false`` is ambiguous: it closes an
        # object tuple, but it is also how a collection whose value
        # schema is NEVER (only the empty object) exports.  The
        # ``x-repro`` domain marker — written only for collections —
        # resolves it, so both forms round-trip exactly.
        if extra is False and "domain" not in extension:
            properties = _member(body, "properties", dict, {})
            required_keys = set(_member(body, "required", list, [], str))
            unknown = required_keys - set(properties)
            if unknown:
                raise UnsupportedSchemaError(
                    f"required keys without properties: {sorted(unknown)}"
                )
            required = {
                key: from_json_schema(value)
                for key, value in properties.items()
                if key in required_keys
            }
            optional = {
                key: from_json_schema(value)
                for key, value in properties.items()
                if key not in required_keys
            }
            return ObjectTuple(required, optional)
        domain = _member(extension, "domain", list, [], str)
        return ObjectCollection(from_json_schema(extra), domain)
    if type_name == "array":
        if "prefixItems" in body:
            elements = tuple(
                from_json_schema(value)
                for value in _member(body, "prefixItems", list, [])
            )
            min_length = _member(body, "minItems", int, len(elements))
            return ArrayTuple(elements, min_length)
        items = body.get("items")
        if items is None:
            raise UnsupportedSchemaError(
                "array schema requires items or prefixItems"
            )
        max_seen = _member(extension, "maxLengthSeen", int, 0)
        return ArrayCollection(from_json_schema(items), max_seen)
    raise UnsupportedSchemaError(
        f"unsupported JSON Schema fragment: {document!r}"
    )
