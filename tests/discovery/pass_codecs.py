"""Canonical byte encodings of the synthesis passes' accumulators.

Tuple shapes (pass ②) and fold nodes (pass ③) never cross a process
boundary or reach a checkpoint, so the codec has no format for them.
The differential oracles still compare them byte for byte; these
writers give them a canonical encoding on the codec's own
:class:`~repro.discovery.codec.Encoder`, with unordered containers in
sorted order, so equal accumulators give equal bytes.
"""

from __future__ import annotations

from repro.discovery import codec
from repro.discovery.codec import Encoder


def _write_feature(enc: Encoder, feature) -> None:
    """One key-set member: a plain key (str) or a path (tuple)."""
    if isinstance(feature, str):
        enc.w.uvarint(0)
        enc.w.string(feature)
    else:
        enc.w.uvarint(1)
        codec.write_path(enc, feature)


def _write_key_set(enc: Encoder, key_set) -> None:
    enc.sorted_blobs(key_set, _write_feature)


def write_tuple_shapes(enc: Encoder, shapes) -> None:
    def write_object_entry(e: Encoder, entry) -> None:
        path, feature_sets = entry
        codec.write_path(e, path)
        e.sorted_blobs(feature_sets, _write_key_set)

    def write_array_entry(e: Encoder, entry) -> None:
        path, lengths = entry
        codec.write_path(e, path)
        e.w.uvarint(len(lengths))
        for length in sorted(lengths):
            e.w.uvarint(length)

    enc.sorted_blobs(shapes.object_features.items(), write_object_entry)
    enc.sorted_blobs(shapes.array_lengths.items(), write_array_entry)


def _write_kinds(enc: Encoder, kinds) -> None:
    ordered = sorted(kinds, key=codec._KIND_TAG.__getitem__)
    enc.w.uvarint(len(ordered))
    for kind in ordered:
        codec._write_kind(enc, kind)


def _write_keys(enc: Encoder, keys) -> None:
    enc.w.uvarint(len(keys))
    for key in sorted(keys):
        enc.w.string(key)


def write_fold_node(enc: Encoder, node) -> None:
    _write_kinds(enc, node.primitive_kinds)
    enc.w.uvarint(len(node.object_entities))
    for entity in sorted(node.object_entities):
        acc = node.object_entities[entity]
        enc.w.uvarint(entity)
        _write_keys(enc, acc.required)
        enc.w.uvarint(len(acc.fields))
        for key in sorted(acc.fields):
            enc.w.string(key)
            write_fold_node(enc, acc.fields[key])
    enc.w.boolean(node.object_collection is not None)
    if node.object_collection is not None:
        coll = node.object_collection
        codec._write_opt(enc, coll.value, write_fold_node)
        _write_keys(enc, coll.domain)
    enc.w.uvarint(len(node.array_entities))
    for entity in sorted(node.array_entities):
        acc = node.array_entities[entity]
        enc.w.uvarint(entity)
        enc.w.uvarint(acc.min_length)
        enc.w.uvarint(len(acc.positions))
        for child in acc.positions:
            write_fold_node(enc, child)
    enc.w.boolean(node.array_collection is not None)
    if node.array_collection is not None:
        coll = node.array_collection
        codec._write_opt(enc, coll.element, write_fold_node)
        enc.w.uvarint(coll.max_length)


def _encode(kind: str, write_fn, value) -> bytes:
    enc = Encoder()
    write_fn(enc, value)
    return enc.finish(kind)


def stat_tree_bytes(tree) -> bytes:
    return _encode("stat-tree", codec.write_stat_tree, tree)


def tuple_shapes_bytes(shapes) -> bytes:
    return _encode("tuple-shapes", write_tuple_shapes, shapes)


def fold_node_bytes(node) -> bytes:
    return _encode("fold-node", write_fold_node, node)
