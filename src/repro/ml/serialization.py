"""Serialization of model weights to the byte format stored on IPFS.

UnifyFL stores aggregated model weights "in a serialized format" on IPFS and
passes only the resulting content identifier (CID) through the smart
contract.  This module defines that wire format: a small self-describing
binary container with a magic header, a tensor count, and for each tensor its
dtype, shape and raw bytes.  ``weights_checksum`` gives the stable digest the
orchestrator and tests use to assert that every aggregator retrieved an
identical model.

Serialization packs on every call: a round's model is a new model, so no
workload serializes the same weights twice.  Deserialization is shared by
content address: a run's :class:`DecodedModels` store holds one decoded
model of each recently fetched CID, as read-only views into its payload.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
from collections import OrderedDict
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.ml.tensor_utils import read_only

_MAGIC = b"UFLW"
_VERSION = 1

_DTYPE_CODES = {
    "float64": 0,
    "float32": 1,
    "int64": 2,
    "int32": 3,
}
_CODE_DTYPES = {code: np.dtype(name) for name, code in _DTYPE_CODES.items()}


class SerializationError(ValueError):
    """Raised when a byte payload is not a valid weight container."""


def weights_fingerprint(weights: Sequence[np.ndarray]) -> str:
    """Hex SHA-256 content fingerprint of a weight list.

    Covers the tensor count plus every tensor's post-coercion dtype, shape
    and raw buffer — exactly the information :func:`weights_to_bytes` packs
    — so two weight lists share a fingerprint iff they serialize to the
    same payload.  One streaming hash pass, no container packing.
    """
    digest = hashlib.sha256()
    digest.update(struct.pack("<I", len(weights)))
    for tensor in weights:
        arr = np.ascontiguousarray(tensor)
        encoded_name, coerce = _fingerprint_dtype(arr.dtype)
        if coerce:
            arr = arr.astype(np.float64)
        digest.update(encoded_name)
        digest.update(struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
        digest.update(arr.data)
    return digest.hexdigest()


@functools.lru_cache(maxsize=64)
def _fingerprint_dtype(dtype: np.dtype) -> Tuple[bytes, bool]:
    """The name hashed for tensors of ``dtype`` and whether they are coerced
    to float64 first.  ``dtype.name`` is rebuilt on every read (1.8 us), so
    the answer is kept per dtype; a process sees a handful of them."""
    name = dtype.name
    if name in _DTYPE_CODES:
        return name.encode("ascii"), False
    return b"float64", True


def weights_to_bytes(weights: Sequence[np.ndarray]) -> bytes:
    """Serialize a list of numpy arrays to a compact binary payload."""
    parts: List[bytes] = [_MAGIC, struct.pack("<BI", _VERSION, len(weights))]
    for tensor in weights:
        arr = np.ascontiguousarray(tensor)
        dtype_name = arr.dtype.name
        if dtype_name not in _DTYPE_CODES:
            arr = arr.astype(np.float64)
            dtype_name = "float64"
        parts.append(struct.pack("<BB", _DTYPE_CODES[dtype_name], arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        raw = arr.tobytes()
        parts.append(struct.pack("<Q", len(raw)))
        parts.append(raw)
    return b"".join(parts)


def weights_views(payload: bytes) -> List[np.ndarray]:
    """The tensors of a payload produced by :func:`weights_to_bytes`, in place.

    Each tensor is a read-only ``np.frombuffer`` view into ``payload``: it
    costs its array header, keeps ``payload`` alive, and is not aligned (the
    first tensor starts at byte 35), so code that computes on it copies
    first, as every consumer of a weight list does.

    Raises:
        SerializationError: when the payload is truncated or malformed.
    """
    if len(payload) < 9 or payload[:4] != _MAGIC:
        raise SerializationError("payload is not a UnifyFL weight container")
    version, count = struct.unpack_from("<BI", payload, 4)
    if version != _VERSION:
        raise SerializationError(f"unsupported weight container version {version}")
    offset = 9
    weights: List[np.ndarray] = []
    for _ in range(count):
        if offset + 2 > len(payload):
            raise SerializationError("truncated tensor header")
        dtype_code, ndim = struct.unpack_from("<BB", payload, offset)
        offset += 2
        if dtype_code not in _CODE_DTYPES:
            raise SerializationError(f"unknown dtype code {dtype_code}")
        if offset + 4 * ndim > len(payload):
            raise SerializationError("truncated tensor shape")
        shape = struct.unpack_from(f"<{ndim}I", payload, offset) if ndim else ()
        offset += 4 * ndim
        if offset + 8 > len(payload):
            raise SerializationError("truncated tensor length")
        (nbytes,) = struct.unpack_from("<Q", payload, offset)
        offset += 8
        if offset + nbytes > len(payload):
            raise SerializationError("truncated tensor data")
        dtype = _CODE_DTYPES[dtype_code]
        size = math.prod(shape)
        if nbytes != size * dtype.itemsize:
            raise SerializationError(
                f"tensor byte length {nbytes} does not match shape {shape} and dtype {dtype}"
            )
        view = np.frombuffer(payload, dtype=dtype, count=size, offset=offset)
        weights.append(view.reshape(shape))
        offset += nbytes
    if offset != len(payload):
        raise SerializationError("trailing bytes after the final tensor")
    return weights


def weights_from_bytes(payload: bytes) -> List[np.ndarray]:
    """Deserialize a payload produced by :func:`weights_to_bytes`.

    The tensors are writable and own their data: each is a copy of its
    read-only view (:func:`weights_views`), independent of the payload.

    Raises:
        SerializationError: when the payload is truncated or malformed.
    """
    return [view.copy() for view in weights_views(payload)]


class DecodedModels:
    """The one decoded model of each content-addressed payload, per run.

    Every silo pulls "the latest set of models" by CID, and equal CIDs are
    equal bytes, so the ``n`` aggregators of a wide round would each decode
    and keep a private copy of the same ``n`` models.  Each still fetches its
    own payload from its IPFS node (block transfer and per-block verification
    are modelled and stay per silo); the store only makes the *decoded*
    weight list of a CID one shared, read-only object.

    A decoded model is a list of views into the payload it was decoded from
    (:func:`weights_views`), not a copy.  A payload of one IPFS block (every
    model under 256 KiB) is the ``bytes`` object the swarm's block stores
    already hold, so an entry costs its array headers and nothing else.

    The store is a CID-keyed LRU of at most ``capacity`` models.  The runner
    sizes it from the configuration: two rounds of submissions (this round's
    and the one before), the models a round mostly reads.  The bound limits
    only the array headers the store holds (and keeps alive the payloads the
    block stores have dropped).  A CID that was evicted is simply decoded
    again on its next fetch, to equal tensors, so the bound decides memory
    and never a result.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._models: "OrderedDict[str, List[np.ndarray]]" = OrderedDict()
        #: optional :class:`~repro.analysis.sanitizer.SimulationSanitizer`;
        #: when set, every hit also decodes the payload in hand and compares.
        self.sanitizer: Optional[Any] = None

    def __len__(self) -> int:
        return len(self._models)

    def __contains__(self, cid: str) -> bool:
        return cid in self._models

    def decode(self, cid: str, payload: bytes) -> List[np.ndarray]:
        """The decoded model of ``cid``, whose stored bytes are ``payload``.

        The arrays are not writeable views into ``payload``: every holder of
        the CID reads the same memory.
        """
        weights = self._models.get(cid)
        if weights is not None:
            self._models.move_to_end(cid)
            if self.sanitizer is not None:
                self.sanitizer.check_decoded_model(cid, weights, weights_views(payload))
            return weights
        weights = read_only(weights_views(payload))
        self._models[cid] = weights
        if len(self._models) > self.capacity:
            self._models.popitem(last=False)
        return weights


def weights_checksum(weights: Sequence[np.ndarray]) -> str:
    """Hex SHA-256 digest of the serialized weights (stable across processes)."""
    return hashlib.sha256(weights_to_bytes(weights)).hexdigest()
