"""Transaction/block data model, Merkle commitment, compression, segments.

Wire conventions (all length prefixes are little-endian u32, times are
little-endian i64 fixed-point microseconds):

  tx core    = len(sender) || sender || submit_time_us || len(payload) || payload
  tx id      = sha256(tx core)
  tx wire    = tx core || len(sig) || sig
  header     = hash_prev || merkle_root || timestamp_us || len(proposer) || proposer
  block id   = sha256("block" || header)
  block wire = block_id || header || u32(n_tx) || tx wire...
               (fixed part: three 32 B digests + i64 time + two u32 = 112 B)

Merkle convention: leaves are sha256(tx id); an odd level duplicates its last
node; internal node = sha256(left || right). A single-transaction block has
root sha256(tx.id).

Signatures are opaque bytes of the provider named by ``crypto.scheme``; a
dump names that scheme once, at the top. ``check_block`` is the one block
validity rule: committee members vote its result and the audit
(``verify_segment``) applies it along a chain. ``LedgerSegment.append_block``
does not validate: the engine appends only a block that ``check_block``
passed in the same round, and a loaded dump is for the audit to check.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
import struct
import zlib
from binascii import unhexlify
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Iterator

from .crypto import DIGEST_LEN

ZERO_DIGEST = b"\x00" * DIGEST_LEN
CODECS = ("zlib", "none")


class LedgerError(Exception):
    """A ledger rule violation or a malformed ledger dump."""


def time_to_us(seconds: float) -> int:
    return round(seconds * 1_000_000)


# The wire's fields; times are signed, as senders may back-date below zero.
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_I64_U32 = struct.Struct("<qI")


def encode_tx_core(sender: str, submit_time: float, payload: bytes) -> bytes:
    """The tx core layout; OverflowError when a length or the time does not
    fit its field."""
    sender_bytes = sender.encode("utf-8")
    try:
        return (_U32.pack(len(sender_bytes)) + sender_bytes
                + _I64_U32.pack(time_to_us(submit_time), len(payload)) + payload)
    except struct.error as exc:
        raise OverflowError(str(exc)) from None


@dataclass(slots=True)
class Transaction:
    sender: str
    payload: bytes
    submit_time: float
    signature: bytes
    id: bytes = field(init=False)
    # Length of the canonical encoding, measured once when the id is
    # computed; the encoding itself is not kept, to hold memory down.
    _core_size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        core = encode_tx_core(self.sender, self.submit_time, self.payload)
        self.id = sha256(core).digest()
        self._core_size = len(core)

    def canonical_encoding(self) -> bytes:
        return encode_tx_core(self.sender, self.submit_time, self.payload)

    def wire(self) -> bytes:
        return (self.canonical_encoding() + _U32.pack(len(self.signature))
                + self.signature)

    def wire_size(self) -> int:
        return self._core_size + 4 + len(self.signature)


@dataclass(frozen=True)
class BlockMetadata:
    block_id: bytes
    hash_prev: bytes
    merkle_root: bytes
    timestamp: float


@dataclass
class Block:
    metadata: BlockMetadata
    transactions: list[Transaction]
    proposer: str
    raw_size: int = 0
    compressed_size: int = 0
    utility: float = 0.0

    def tx_ids(self) -> list[bytes]:
        return [tx.id for tx in self.transactions]


def merkle_root(tx_ids: list[bytes]) -> bytes:
    """Merkle root over transaction ids; raises LedgerError on an empty list."""
    if not tx_ids:
        raise LedgerError("merkle root of an empty transaction list")
    level = [sha256(tx_id).digest() for tx_id in tx_ids]
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = [sha256(level[i] + level[i + 1]).digest()
                 for i in range(0, len(level), 2)]
    return level[0]


def block_header(hash_prev: bytes, root: bytes, timestamp: float, proposer: str) -> bytes:
    name = proposer.encode("utf-8")
    return hash_prev + root + _I64_U32.pack(time_to_us(timestamp), len(name)) + name


def block_id_for(header: bytes) -> bytes:
    return sha256(b"block" + header).digest()


def make_block(transactions: list[Transaction], hash_prev: bytes,
               timestamp: float, proposer: str) -> Block:
    root = merkle_root([tx.id for tx in transactions])
    header = block_header(hash_prev, root, timestamp, proposer)
    meta = BlockMetadata(block_id=block_id_for(header), hash_prev=hash_prev,
                         merkle_root=root, timestamp=timestamp)
    block = Block(metadata=meta, transactions=list(transactions), proposer=proposer)
    block.raw_size = block_wire_size(proposer, block.transactions)
    return block


def block_wire_parts(block: Block) -> Iterator[bytes]:
    """The block wire, in pieces: the fixed part with the header, then each
    tx wire. Joined, they are the block's bytes; `compress_block` streams
    them, so a run never holds a whole block's bytes at once."""
    meta = block.metadata
    yield (meta.block_id
           + block_header(meta.hash_prev, meta.merkle_root, meta.timestamp,
                          block.proposer)
           + _U32.pack(len(block.transactions)))
    for tx in block.transactions:
        yield tx.wire()


def block_wire_size(proposer: str, transactions: list[Transaction]) -> int:
    """The joined length of `block_wire_parts` of a block of `transactions`
    by `proposer`, from the layout alone: no bytes are built."""
    return (3 * DIGEST_LEN + _I64_U32.size + _U32.size + len(proposer.encode("utf-8"))
            + sum(tx.wire_size() for tx in transactions))


def compression_ratio(raw_size: int, compressed_size: int) -> float:
    """Fraction of the raw block removed by compression, in [0, 1)."""
    if raw_size <= 0:
        raise LedgerError("raw size must be positive")
    if not 0 < compressed_size <= raw_size:
        raise LedgerError("compressed size must be in (0, raw size]")
    return (raw_size - compressed_size) / raw_size


def compress_block(block: Block, codec: str) -> None:
    """Record the block's stored size under `codec`, one of `CODECS`. Stored
    form falls back to the raw bytes when zlib does not make them smaller, so
    the block's compression ratio is then exactly 0.

    The wire is fed to one deflate stream a piece at a time and only output
    lengths are kept. Without a flush, deflate's output does not depend on
    how its input is split, so the size is that of `zlib.compress(wire, 6)`.
    """
    if codec == "none":
        block.compressed_size = sum(map(len, block_wire_parts(block)))
        return
    deflate = zlib.compressobj(6)
    raw_size = deflated = 0
    for part in block_wire_parts(block):
        raw_size += len(part)
        deflated += len(deflate.compress(part))
    block.compressed_size = min(raw_size, deflated + len(deflate.flush()))


def genesis_metadata(seed: int) -> BlockMetadata:
    """Deterministic chain bootstrap: zero transactions, id bound to the seed."""
    return BlockMetadata(block_id=sha256(b"genesis" + _I64.pack(seed)).digest(),
                         hash_prev=ZERO_DIGEST, merkle_root=ZERO_DIGEST,
                         timestamp=0.0)


@dataclass
class LedgerSegment:
    """Single-writer per-edge chain; snapshots may be shared read-only."""

    owner: str
    genesis: BlockMetadata
    chain: list[Block] = field(default_factory=list)
    committed_ids: set[bytes] = field(default_factory=set)

    def head(self) -> BlockMetadata:
        return self.chain[-1].metadata if self.chain else self.genesis

    def append_block(self, block: Block) -> None:
        """Append `block` as it is; nothing is checked here."""
        self.chain.append(block)
        self.committed_ids.update(block.tx_ids())


# --- dump / load / audit -------------------------------------------------

def _field(data: dict, key: str, kind):
    """`data[key]` if it is a `kind`; a bool is never a number."""
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{key} {value!r} has the wrong type")
    return value


def _name(data: dict, key: str) -> str:
    """`data[key]` if it is a printable str, as the wire and the audit's
    report need: a control character such as a newline would forge report
    lines, and a lone surrogate (which a JSON escape can make) is not
    printable and does not UTF-8 encode."""
    return _printable(_field(data, key, str), key)


def _printable(name: str, what: str) -> str:
    if not name.isprintable():
        raise ValueError(f"{what} {name!r} is not printable")
    return name


def _time(data: dict, key: str) -> float:
    """`data[key]` if it is a time in seconds that the wire's i64
    microseconds can hold."""
    value = _field(data, key, (int, float))
    _I64.pack(time_to_us(value))  # OverflowError, ValueError or struct.error
    return value


def _meta_from_dict(data: dict) -> BlockMetadata:
    return BlockMetadata(block_id=unhexlify(data["block_id"]),
                         hash_prev=unhexlify(data["hash_prev"]),
                         merkle_root=unhexlify(data["merkle_root"]),
                         timestamp=_time(data, "timestamp"))


def segment_from_dict(data: dict) -> LedgerSegment:
    """A dumped segment, each transaction built once and by position (the
    faster call). Only the type of a tx's time is checked here: building the
    tx encodes its core, which refuses a time outside the wire's i64. Hex is
    decoded by `unhexlify`, which refuses the whitespace `bytes.fromhex`
    skips, so one ledger has one dump text."""
    segment = LedgerSegment(owner=_name(data, "owner"),
                            genesis=_meta_from_dict(data["genesis"]))
    for entry in data["blocks"]:
        txs = [Transaction(_name(t, "sender"), unhexlify(t["payload"]),
                           _field(t, "submit_time", (int, float)),
                           unhexlify(t["signature"]))
               for t in entry["transactions"]]
        meta = _meta_from_dict(entry["metadata"])
        block = Block(metadata=meta, transactions=txs,
                      proposer=_name(entry, "proposer"),
                      raw_size=_field(entry, "raw_size", int),
                      compressed_size=_field(entry, "compressed_size", int),
                      utility=_field(entry, "utility", (int, float)))
        segment.append_block(block)
    return segment


# One transaction of a dump after its separator ("\n" for the first, ",\n"
# after that), indented as `json.dump(indent=1)` nests it.
_TX = ('%s      {\n       "payload": "%s",\n       "sender": %s,\n'
       '       "signature": "%s",\n       "submit_time": %s\n      }')


@contextlib.contextmanager
def _replacing(path):
    """A text file beside `path` that replaces it once the block completes;
    if the block raises, the file is removed and `path` is untouched."""
    partial = os.path.join(os.path.dirname(os.path.abspath(path)),
                           f".{os.path.basename(path)}.{os.getpid()}.tmp")
    out = open(partial, "w", encoding="utf-8")
    try:
        with out:
            yield out
        os.replace(partial, path)
    except BaseException:
        os.remove(partial)
        raise


def dump_ledger(path, segments: list[LedgerSegment], registry: dict[str, bytes],
                scheme: str, seed: int, max_block_bytes: int = 0) -> None:
    """Write the ledger dump one transaction at a time, so no block's text is
    ever held, byte for byte as `json.dump(data, sort_keys=True, indent=1)`
    and a newline; LedgerError on NaN or inf, in which case `path` is left
    as it was."""
    quote = json.encoder.encode_basestring_ascii  # a name's JSON literal

    def number(value) -> str:
        text = repr(value)  # what json writes for a finite int or float
        if text in ("nan", "inf", "-inf"):
            raise LedgerError(f"cannot dump the non-finite number {text}")
        return text

    def meta_text(meta: BlockMetadata, pad: str) -> str:
        return (f'{{\n{pad} "block_id": "{meta.block_id.hex()}",\n'
                f'{pad} "hash_prev": "{meta.hash_prev.hex()}",\n'
                f'{pad} "merkle_root": "{meta.merkle_root.hex()}",\n'
                f'{pad} "timestamp": {number(meta.timestamp)}\n{pad}}}')

    keys = ",\n".join(f'  {quote(node)}: "{key.hex()}"'
                      for node, key in sorted(registry.items()))
    registry_text = f"{{\n{keys}\n }}" if keys else "{}"
    with _replacing(path) as out:
        out.write(f'{{\n "format": "uavchain-ledger-v1",\n'
                  f' "max_block_bytes": {number(max_block_bytes)},\n'
                  f' "registry": {registry_text},\n'
                  f' "scheme": {quote(scheme)},\n "seed": {number(seed)},\n'
                  f' "segments": [')
        for i, segment in enumerate(segments):
            out.write((",\n" if i else "\n") + '  {\n   "blocks": [')
            for j, block in enumerate(segment.chain):
                out.write((",\n" if j else "\n") + f'    {{\n'
                          f'     "compressed_size": {number(block.compressed_size)},\n'
                          f'     "metadata": {meta_text(block.metadata, "     ")},\n'
                          f'     "proposer": {quote(block.proposer)},\n'
                          f'     "raw_size": {number(block.raw_size)},\n'
                          f'     "transactions": [')
                out.writelines(_TX % (",\n" if k else "\n", tx.payload.hex(),
                                      quote(tx.sender), tx.signature.hex(),
                                      number(tx.submit_time))
                               for k, tx in enumerate(block.transactions))
                out.write(("\n     ]" if block.transactions else "]") +
                          f',\n     "utility": {number(block.utility)}\n    }}')
            out.write(("\n   ]" if segment.chain else "]") + ',\n   "genesis": '
                      f'{meta_text(segment.genesis, "   ")},\n'
                      f'   "owner": {quote(segment.owner)}\n  }}')
        out.write("\n ]\n}\n" if segments else "]\n}\n")


def _read_text(path) -> str:
    """The file's text, decoded as UTF-8. A non-empty regular file is decoded
    straight from a read-only map of it, so the audit holds the text once and
    no bytes copy; anything else (a pipe, an empty file) is read whole.
    `dump_ledger` replaces a dump by a rename and never shrinks it in place,
    which a map would not survive."""
    with open(path, "rb") as handle:
        info = os.fstat(handle.fileno())
        if not (stat.S_ISREG(info.st_mode) and info.st_size):
            return str(handle.read(), "utf-8")
        import mmap  # here, not at the top: a run never maps a file
        with mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) as mapping:
            return str(mapping, "utf-8")


def load_ledger(path) -> tuple[list[LedgerSegment], dict[str, bytes], str, int, int]:
    """Read a dump as (segments, registry, scheme, seed, max_block_bytes); a
    dump without a size limit gets 0 (none). Any malformed content (bytes
    that are not UTF-8, truncated JSON, `NaN` or `Infinity`, over-deep
    nesting, a missing key, bad hex or hex holding whitespace, a wrongly
    typed field, a name that is not printable, a time outside the wire's
    i64 microseconds, a bad limit) raises LedgerError."""
    def reject(constant: str):
        raise ValueError(f"{constant} is not a JSON number")

    try:
        data = json.loads(_read_text(path), parse_constant=reject)
        if data.get("format") != "uavchain-ledger-v1":
            raise LedgerError("not a uavchain ledger dump")
        registry = {node: unhexlify(key)
                    for node, key in data["registry"].items()}
        for node in registry:
            _printable(node, "registry name")
        segments = [segment_from_dict(s) for s in data["segments"]]
        limit = data.get("max_block_bytes", 0)
        if isinstance(limit, bool) or not isinstance(limit, int) or limit < 0:
            raise ValueError(f"max_block_bytes {limit!r} is not a size in bytes")
        return (segments, registry, _field(data, "scheme", str),
                _field(data, "seed", int), limit)
    except (AttributeError, KeyError, OverflowError, RecursionError,
            TypeError, ValueError, struct.error) as exc:
        raise LedgerError(f"malformed ledger dump {path}: "
                          f"{type(exc).__name__}: {exc}") from None


def check_block(block: Block, prev: BlockMetadata, registry: dict[str, bytes],
                provider, max_block_bytes: int, seen: set[bytes]) -> list[str]:
    """Every finding against `block` appended after `prev`: linkage, block
    id, Merkle root, raw size, size limit, signatures and tx ids already in
    `seen` or earlier in the block. An empty list means the block is valid;
    `seen` is not modified.
    """
    findings: list[str] = []
    meta = block.metadata
    if meta.hash_prev != prev.block_id:
        findings.append("broken linkage")
    if meta.timestamp <= prev.timestamp:
        findings.append("non-increasing timestamp")
    if not block.transactions:
        findings.append("empty block")
        return findings
    header = block_header(meta.hash_prev, meta.merkle_root, meta.timestamp,
                          block.proposer)
    if block_id_for(header) != meta.block_id:
        findings.append("block id mismatch")
    ids = block.tx_ids()
    if merkle_root(ids) != meta.merkle_root:
        findings.append("merkle root mismatch")
    if block.raw_size != block_wire_size(block.proposer, block.transactions):
        findings.append("raw size mismatch")
    if max_block_bytes and block.compressed_size > max_block_bytes:
        findings.append("oversize block")
    if not 0 < block.compressed_size <= block.raw_size:
        findings.append("inconsistent size accounting")
    verify = provider.verify
    in_block: set[bytes] = set()
    for tx, tx_id in zip(block.transactions, ids):
        key = registry.get(tx.sender)
        if key is None:
            findings.append(f"unknown sender {tx.sender}")
        elif not verify(tx_id, tx.signature, key):
            findings.append(f"bad signature on tx {tx_id.hex()[:16]}")
        if tx_id in seen or tx_id in in_block:
            findings.append(f"duplicate tx {tx_id.hex()[:16]}")
        in_block.add(tx_id)
    return findings


def verify_segment(segment: LedgerSegment, registry: dict[str, bytes],
                   provider, max_block_bytes: int = 0) -> list[str]:
    """Apply `check_block` along the whole chain from its genesis.

    Returns a list of human-readable findings; empty list means the segment
    is fully valid.
    """
    findings: list[str] = []
    prev = segment.genesis
    seen: set[bytes] = set()
    for height, block in enumerate(segment.chain, start=1):
        where = f"segment {segment.owner} block {height}"
        findings += [f"{where}: {finding}" for finding in check_block(
            block, prev, registry, provider, max_block_bytes, seen)]
        seen.update(block.tx_ids())
        prev = block.metadata
    return findings
