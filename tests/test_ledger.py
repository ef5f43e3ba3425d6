"""Ledger data model: wire format, Merkle commitment, append rules, audit."""

import copy
import hashlib
import json
import tracemalloc
import zlib

import pytest

import golden
from uavchain import cli, ledger
from uavchain.crypto import MockProvider, hash_bytes
from uavchain.ledger import (Block, BlockMetadata, LedgerError, LedgerSegment,
                             Transaction, genesis_metadata, merkle_root)

provider = MockProvider()
PAIR = provider.keygen(1)
REGISTRY = {"u000": PAIR.public_key}


def make_tx(payload: bytes, t: float = 1.0, sender: str = "u000") -> Transaction:
    core = ledger.encode_tx_core(sender, t, payload)
    sig = provider.sign(PAIR.private_key, hash_bytes(core))
    return Transaction(sender=sender, payload=payload, submit_time=t,
                       signature=sig)


PROPOSERS = ["", "e07", "edge-\u00e9\u6771\U0001f681"]  # empty, ASCII, multi-byte


def wire(block: Block) -> bytes:
    return b"".join(ledger.block_wire_parts(block))


def noise(n_bytes: int, salt: bytes = b"") -> bytes:
    """High-entropy bytes that deflate cannot shrink."""
    return b"".join(hashlib.sha256(salt + i.to_bytes(4, "little")).digest()
                    for i in range(-(-n_bytes // 32)))[:n_bytes]


def test_transaction_has_slots_and_deep_copies_equal():
    tx = make_tx(b"slots", t=2.5, sender="u007")
    assert not hasattr(tx, "__dict__")
    clone = copy.deepcopy(tx)
    assert clone == tx and clone is not tx
    assert (clone.id, clone.wire_size()) == (tx.id, tx.wire_size())


def test_genesis_ids_are_pinned():
    # The genesis id hashes the seed as a signed little-endian i64.
    assert {seed: genesis_metadata(seed).block_id.hex()
            for seed in (-1, 0, 1, 2**63 - 1)} == {
        -1: "a69c96814b4ec9511dba4a33989ffc42b388f9c4ae99c249dab7fc8a30be5a29",
        0: "113c5de3731b7bb2b125910b945c7fc8afd67e8b5ecbd79f511eaa9a1b6ef832",
        1: "9e0e7015180ce018f2f4d1088983d649d09f6d881fcbb1abf8c101e93e6fc623",
        2**63 - 1:
            "2c778c01da34f1a0dc3f42404dcf63c8dbdb29665ea49603f46ad03479843249"}


def test_time_to_us_fixed_point():
    assert ledger.time_to_us(1.5) == 1_500_000
    assert ledger.time_to_us(-2.0) == -2_000_000


def test_tx_id_is_hash_of_core_encoding():
    tx = make_tx(b"hello", t=3.25)
    core = ledger.encode_tx_core("u000", 3.25, b"hello")
    assert tx.id == hashlib.sha256(core).digest()


def test_encode_tx_core_overflows_on_a_field_the_wire_cannot_hold():
    ledger.encode_tx_core("u000", 9.2e12, b"x")  # inside i64 microseconds
    for t in (9.3e12, -9.3e12, 1e300):
        with pytest.raises(OverflowError):
            ledger.encode_tx_core("u000", t, b"x")
    with pytest.raises(OverflowError):
        Transaction(sender="u000", payload=b"x", submit_time=1e300,
                    signature=b"")

    class Huge(bytes):
        """A payload that reports more bytes than a u32 length can count."""

        def __len__(self):
            return 2 ** 32

    with pytest.raises(OverflowError):
        ledger.encode_tx_core("u000", 1.0, Huge(b"x"))


def test_tx_wire_size_matches_wire():
    tx = make_tx(b"x" * 100)
    assert tx.wire_size() == len(tx.wire())
    assert tx.wire() == (tx.canonical_encoding() + b"\x40\x00\x00\x00"
                         + tx.signature)


def test_wire_size_matches_wire_for_adversarial_and_loaded_txs(tmp_path):
    honest = make_tx(b"reading" * 20, t=4.0)
    forged = Transaction(sender="u000", payload=b"f" * 70, submit_time=5.0,
                         signature=bytes(range(64)))
    # A replay resubmits the same fields under the same signature.
    replayed = Transaction(sender=honest.sender, payload=honest.payload,
                           submit_time=honest.submit_time,
                           signature=honest.signature)
    back_dated = make_tx(b"late", t=-3.0)
    seg, block = _segment_with_block([honest, forged, back_dated])
    seg.append_block(block)
    path = tmp_path / "ledger.json"
    ledger.dump_ledger(path, [seg], REGISTRY, "mock-sig", 1)
    (loaded,), *_ = ledger.load_ledger(path)
    txs = [forged, replayed, copy.deepcopy(honest), back_dated]
    txs += loaded.chain[0].transactions
    for tx in txs:
        assert tx.wire_size() == len(tx.wire())


def _merkle_oracle(tx_ids):
    # Independent recursive construction of the same convention.
    level = [hashlib.sha256(i).digest() for i in tx_ids]
    while len(level) > 1:
        nxt = []
        padded = level + ([level[-1]] if len(level) % 2 else [])
        for i in range(0, len(padded), 2):
            nxt.append(hashlib.sha256(padded[i] + padded[i + 1]).digest())
        level = nxt
    return level[0]


def test_merkle_matches_oracle_for_all_small_sizes():
    ids = [hashlib.sha256(bytes([i])).digest() for i in range(16)]
    for n in range(1, 17):
        assert merkle_root(ids[:n]) == _merkle_oracle(ids[:n])


def test_merkle_single_tx_root():
    tx = make_tx(b"only")
    assert merkle_root([tx.id]) == hashlib.sha256(tx.id).digest()


def test_merkle_empty_raises():
    with pytest.raises(LedgerError):
        merkle_root([])


def test_merkle_is_order_sensitive():
    a, b = make_tx(b"a").id, make_tx(b"b").id
    assert merkle_root([a, b]) != merkle_root([b, a])


def test_compression_ratio_arithmetic():
    assert ledger.compression_ratio(1000, 650) == 0.35
    assert ledger.compression_ratio(10, 10) == 0.0
    with pytest.raises(LedgerError):
        ledger.compression_ratio(0, 1)
    with pytest.raises(LedgerError):
        ledger.compression_ratio(100, 101)
    with pytest.raises(LedgerError):
        ledger.compression_ratio(100, 0)


def test_compress_block_sizes_and_fallback():
    def sizes(payload: bytes, codec: str) -> tuple[int, int]:
        block = ledger.make_block([make_tx(payload)], hash_bytes(b"prev"),
                                  1.0, "e00")
        ledger.compress_block(block, codec)
        assert block.raw_size == len(wire(block))
        return block.raw_size, block.compressed_size

    raw, stored = sizes(b"abc" * 1000, "zlib")
    assert stored < raw
    # High-entropy bytes do not shrink; the stored form is the raw form.
    raw, stored = sizes(noise(256), "zlib")
    assert stored == raw
    raw, stored = sizes(b"abc" * 1000, "none")
    assert stored == raw


BLOCK_PAYLOADS = {
    "compressible": [b"reading:%04d;" % i * 40 for i in range(60)],
    # Few, large noise payloads: the repeated tx fields then save less than
    # deflate adds, so the stored fallback is taken.
    "incompressible": [noise(4096, bytes([i])) for i in range(4)],
    "mixed": [b"reading:%04d;" % i * 40 if i % 2 else noise(512, bytes([i]))
              for i in range(60)],
}


@pytest.mark.parametrize("kind", sorted(BLOCK_PAYLOADS))
@pytest.mark.parametrize("proposer", PROPOSERS)
@pytest.mark.parametrize("codec", ledger.CODECS)
def test_streamed_compressed_size_is_the_one_shot_size(kind, proposer, codec):
    # The plain twin: compress_block streams the wire through one deflate
    # stream, and must record what one zlib.compress of the joined wire gives.
    txs = [make_tx(payload, t=1.0 + i) for i, payload in
           enumerate(BLOCK_PAYLOADS[kind])]
    block = ledger.make_block(txs, hash_bytes(b"prev"), 90.0, proposer)
    ledger.compress_block(block, codec)
    raw = wire(block)
    assert block.raw_size == len(raw)
    expected = (min(len(raw), len(zlib.compress(raw, 6))) if codec == "zlib"
                else len(raw))
    assert block.compressed_size == expected
    if codec == "zlib" and kind == "incompressible":
        assert block.compressed_size == block.raw_size  # the stored fallback
    elif codec == "zlib":
        assert block.compressed_size < block.raw_size


def test_deflate_output_length_does_not_depend_on_how_input_is_split():
    # compress_block relies on this: a deflate build that breaks it would
    # change every compressed size, and this test names the cause.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    chunks = st.one_of(st.binary(max_size=200),
                       st.sampled_from([b"reading" * 300, bytes(range(256)) * 20,
                                        noise(5000)]))

    @hypothesis.settings(derandomize=True, max_examples=100, database=None,
                         deadline=None)
    @hypothesis.given(pieces=st.lists(chunks, max_size=40), data=st.data())
    def check(pieces, data):
        stream = b"".join(pieces)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)),
                                         max_size=30)))
        deflate = zlib.compressobj(6)
        total = sum(len(deflate.compress(stream[start:end])) for start, end
                    in zip([0] + cuts, cuts + [len(stream)]))
        total += len(deflate.flush())
        assert total == len(zlib.compress(stream, 6))

    check()


def test_compress_block_never_holds_the_block_bytes():
    # About 2 MB raw; a one-shot compress holds the joined wire and its
    # deflated copy, more than twice the raw size.
    txs = [make_tx(b"reading:%05d;" % i * 50 + noise(300, bytes([i % 256])),
                   t=1.0 + i) for i in range(2200)]
    block = ledger.make_block(txs, hash_bytes(b"prev"), 9000.0, "e00")
    assert block.raw_size >= 2_000_000
    tracemalloc.start()
    try:
        ledger.compress_block(block, "zlib")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < block.compressed_size < block.raw_size
    assert peak < block.raw_size / 4


def test_dump_ledger_never_holds_a_block_text(tmp_path):
    # One 600-transaction block; building its text whole held about 1.6
    # times the dump's size.
    seg, block = _segment_with_block(
        [make_tx(noise(300, bytes([i % 256])), t=1.0 + i) for i in range(600)])
    seg.append_block(block)
    path = tmp_path / "ledger.json"
    tracemalloc.start()
    try:
        ledger.dump_ledger(path, [seg], REGISTRY, "mock-sig", 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4


def test_genesis_is_seed_bound():
    assert genesis_metadata(1) == genesis_metadata(1)
    assert genesis_metadata(1).block_id != genesis_metadata(2).block_id
    assert genesis_metadata(7).hash_prev == ledger.ZERO_DIGEST


def _segment_with_block(txs, t=10.0):
    seg = LedgerSegment(owner="e00", genesis=genesis_metadata(1))
    block = ledger.make_block(txs, seg.head().block_id, t, "e00")
    ledger.compress_block(block, "zlib")
    return seg, block


def test_append_block_happy_path():
    seg, block = _segment_with_block([make_tx(b"a"), make_tx(b"b")])
    seg.append_block(block)
    assert seg.head() == block.metadata
    assert make_tx(b"a").id in seg.committed_ids


def test_dump_load_roundtrip_and_audit(tmp_path):
    seg, block = _segment_with_block([make_tx(b"a"), make_tx(b"b")])
    seg.append_block(block)
    path = tmp_path / "ledger.json"
    ledger.dump_ledger(path, [seg], REGISTRY, "mock-sig", 1)
    segments, registry, scheme, seed, max_block_bytes = ledger.load_ledger(path)
    assert scheme == "mock-sig" and seed == 1 and max_block_bytes == 0
    assert registry == REGISTRY
    assert len(segments) == 1 and len(segments[0].chain) == 1
    assert ledger.verify_segment(segments[0], registry, provider) == []


def _reference_dump(segments, registry, scheme, seed, max_block_bytes) -> bytes:
    """The documented dump layout, written by the json module."""
    def meta(m):
        return {"block_id": m.block_id.hex(), "hash_prev": m.hash_prev.hex(),
                "merkle_root": m.merkle_root.hex(), "timestamp": m.timestamp}

    def block(b):
        return {"metadata": meta(b.metadata), "proposer": b.proposer,
                "raw_size": b.raw_size, "compressed_size": b.compressed_size,
                "utility": b.utility, "transactions": [{
                    "sender": tx.sender, "submit_time": tx.submit_time,
                    "payload": tx.payload.hex(),
                    "signature": tx.signature.hex()} for tx in b.transactions]}

    data = {"format": "uavchain-ledger-v1", "scheme": scheme, "seed": seed,
            "max_block_bytes": max_block_bytes,
            "registry": {node: key.hex() for node, key in registry.items()},
            "segments": [{"owner": s.owner, "genesis": meta(s.genesis),
                          "blocks": [block(b) for b in s.chain]}
                         for s in segments]}
    return (json.dumps(data, sort_keys=True, indent=1) + "\n").encode()


def test_dump_ledger_writes_the_json_modules_bytes_and_round_trips(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # Names that need escaping: quotes, backslashes, control characters and
    # non-ASCII letters, mixed with anything else the text strategy draws.
    names = st.text(st.sampled_from('"\\\x00\x1f\n\t/éЖ😀') | st.characters(),
                    max_size=6)
    # Times the wire's i64 microseconds can hold, as ints and floats.
    times = (st.integers(-10**9, 10**9)
             | st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False))
    digests = st.binary(max_size=32)
    metas = st.builds(BlockMetadata, block_id=digests, hash_prev=digests,
                      merkle_root=digests, timestamp=times)
    txs = st.builds(Transaction, sender=names, payload=st.binary(max_size=40),
                    submit_time=times, signature=st.binary(max_size=16))
    sizes = st.integers(0, 2**40)
    blocks = st.builds(Block, metadata=metas,
                       transactions=st.lists(txs, max_size=3), proposer=names,
                       raw_size=sizes, compressed_size=sizes,
                       utility=st.integers(-10**6, 10**6) | st.floats(
                           allow_nan=False, allow_infinity=False))
    segments = st.builds(LedgerSegment, owner=names, genesis=metas,
                         chain=st.lists(blocks, max_size=3))
    path = tmp_path / "ledger.json"

    @hypothesis.settings(derandomize=True, max_examples=150, database=None,
                         deadline=None)
    @hypothesis.given(segments=st.lists(segments, max_size=3),
                      registry=st.dictionaries(names, digests, max_size=4),
                      scheme=names, seed=st.integers(-2**63, 2**63 - 1),
                      limit=st.integers(0, 2**40))
    def check(segments, registry, scheme, seed, limit):
        ledger.dump_ledger(path, segments, registry, scheme, seed, limit)
        dumped = path.read_bytes()
        assert dumped == _reference_dump(segments, registry, scheme, seed, limit)
        # A name the audit would print must be printable: a newline could
        # forge a report line, so such a dump loads as malformed.
        names = [*registry, *(s.owner for s in segments),
                 *(b.proposer for s in segments for b in s.chain),
                 *(tx.sender for s in segments for b in s.chain
                   for tx in b.transactions)]
        printable = all(name.isprintable() for name in names)
        seen.add(printable)
        if not printable:
            with pytest.raises(LedgerError, match="is not printable"):
                ledger.load_ledger(path)
            return
        loaded = ledger.load_ledger(path)
        assert loaded[1:] == (registry, scheme, seed, limit)
        ledger.dump_ledger(path, *loaded)
        assert path.read_bytes() == dumped

    seen = set()
    check()
    assert seen == {False, True}


def test_ledger_dump_matches_pinned_digest(tmp_path):
    # The default scenario at sim.duration_s = 120, seed 1: its ledger.json
    # digest is pinned across versions of the dump writer in golden.json.
    entry = golden.load()["1"]
    cli.write_run_outputs(golden.simulate(entry), tmp_path, dump_ledger=True)
    digest = hashlib.sha256((tmp_path / "ledger.json").read_bytes()).hexdigest()
    assert digest == entry["files"]["ledger.json"]


def test_dump_ledger_refuses_a_non_finite_number(tmp_path):
    seg, block = _segment_with_block([make_tx(b"a")])
    seg.append_block(block)
    block.utility = float("nan")
    with pytest.raises(LedgerError, match="non-finite"):
        ledger.dump_ledger(tmp_path / "ledger.json", [seg], REGISTRY,
                           "mock-sig", 1)


def test_a_refused_dump_leaves_the_path_as_it_was(tmp_path):
    seg, first = _segment_with_block([make_tx(b"a")])
    seg.append_block(first)
    second = ledger.make_block([make_tx(b"b"), make_tx(b"c"), make_tx(b"d")],
                               seg.head().block_id, 20.0, "e00")
    ledger.compress_block(second, "zlib")
    seg.append_block(second)
    fresh, kept = tmp_path / "fresh", tmp_path / "kept"
    fresh.mkdir()
    kept.mkdir()
    (kept / "ledger.json").write_bytes(b"the previous dump\n")
    # Each is refused after the first block is written: partway through the
    # second block's transactions, or at its utility after all of them.
    for record, name in ((second.transactions[1], "submit_time"),
                         (second, "utility")):
        value = getattr(record, name)
        setattr(record, name, float("nan"))
        for folder in (fresh, kept):
            before = {p.name: p.read_bytes() for p in folder.iterdir()}
            with pytest.raises(LedgerError, match="non-finite"):
                ledger.dump_ledger(folder / "ledger.json", [seg], REGISTRY,
                                   "mock-sig", 1)
            assert {p.name: p.read_bytes() for p in folder.iterdir()} == before
        setattr(record, name, value)
    second.utility = 0.5
    ledger.dump_ledger(kept / "ledger.json", [seg], REGISTRY, "mock-sig", 1)
    assert [p.name for p in kept.iterdir()] == ["ledger.json"]
    assert ledger.load_ledger(kept / "ledger.json")[0][0].chain[-1].utility == 0.5


def test_load_ledger_rejects_foreign_format(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(LedgerError):
        ledger.load_ledger(path)


def test_verify_segment_flags_tampering(tmp_path):
    seg, block = _segment_with_block([make_tx(b"a"), make_tx(b"b")])
    seg.append_block(block)
    path = tmp_path / "ledger.json"
    ledger.dump_ledger(path, [seg], REGISTRY, "mock-sig", 1)
    data = json.loads(path.read_text())
    data["segments"][0]["blocks"][0]["transactions"][0]["payload"] = "ff"
    tampered = ledger.segment_from_dict(data["segments"][0])
    findings = ledger.verify_segment(tampered, REGISTRY, provider)
    assert findings
    assert any("merkle" in f or "signature" in f for f in findings)


def test_verify_segment_flags_broken_linkage():
    seg, block = _segment_with_block([make_tx(b"a")])
    seg.append_block(block)
    seg.genesis = genesis_metadata(99)
    findings = ledger.verify_segment(seg, REGISTRY, provider)
    assert any("linkage" in f for f in findings)


def _check(block, prev=None, registry=None, max_block_bytes=0, seen=()):
    return ledger.check_block(block, prev or genesis_metadata(1),
                              REGISTRY if registry is None else registry,
                              provider, max_block_bytes, set(seen))


def test_check_block_accepts_valid_block():
    _, block = _segment_with_block([make_tx(b"a"), make_tx(b"b")])
    assert _check(block) == []


def test_check_block_flags_broken_linkage():
    _, block = _segment_with_block([make_tx(b"a")])
    assert _check(block, prev=genesis_metadata(99)) == ["broken linkage"]


def test_check_block_flags_non_increasing_timestamp():
    _, block = _segment_with_block([make_tx(b"a")], t=0.0)
    assert _check(block) == ["non-increasing timestamp"]


def test_check_block_flags_empty_block():
    _, block = _segment_with_block([make_tx(b"a")])
    block.transactions = []
    assert _check(block) == ["empty block"]


def test_check_block_flags_block_id_mismatch():
    _, block = _segment_with_block([make_tx(b"a")])
    block.proposer = "e01"  # the header, and so the id, names the proposer
    assert _check(block) == ["block id mismatch"]


def test_check_block_flags_merkle_mismatch():
    _, block = _segment_with_block([make_tx(b"a"), make_tx(b"b")])
    block.transactions.reverse()
    assert _check(block) == ["merkle root mismatch"]


def test_make_block_raw_size_is_the_wire_length():
    block = ledger.make_block([make_tx(b"a"), make_tx(b"b" * 300)],
                              genesis_metadata(1).block_id, 10.0, "e00")
    assert block.raw_size == len(wire(block))
    ledger.compress_block(block, "zlib")
    assert block.raw_size == len(wire(block))


@pytest.mark.parametrize("proposer", PROPOSERS)
def test_block_wire_size_is_the_wire_length(proposer):
    honest = make_tx(b"reading" * 20, t=4.0)
    txs = [honest,
           Transaction(sender="u000", payload=b"f" * 70, submit_time=5.0,
                       signature=bytes(range(64))),  # forged
           Transaction(sender=honest.sender, payload=honest.payload,
                       submit_time=honest.submit_time,
                       signature=honest.signature),  # replayed
           make_tx(b"late", t=-3.0),  # back-dated
           make_tx(b"", t=0.0)]
    for n in range(1, len(txs) + 1):
        block = ledger.make_block(txs[:n], genesis_metadata(1).block_id, 10.0,
                                  proposer)
        assert ledger.block_wire_size(proposer, txs[:n]) == len(
            wire(block))


@pytest.mark.parametrize("proposer", PROPOSERS)
def test_empty_block_wire_size_is_the_header_and_36_bytes(proposer):
    # 36 = the block id and the u32 tx count around the header.
    header = ledger.block_header(hash_bytes(b"prev"), ledger.ZERO_DIGEST, 10.0,
                                 proposer)
    empty = Block(metadata=genesis_metadata(1), transactions=[],
                  proposer=proposer)
    assert ledger.block_wire_size(proposer, []) == len(header) + 36 == len(
        wire(empty))


def test_check_block_flags_raw_size_mismatch():
    _, block = _segment_with_block([make_tx(b"a" * 500)])
    block.raw_size += 1
    assert _check(block) == ["raw size mismatch"]


def test_check_block_flags_oversize_block():
    _, block = _segment_with_block([make_tx(b"a" * 500)])
    assert _check(block, max_block_bytes=block.compressed_size) == []
    assert _check(block, max_block_bytes=block.compressed_size - 1) == [
        "oversize block"]


def test_check_block_flags_inconsistent_size_accounting():
    _, block = _segment_with_block([make_tx(b"a")])
    block.compressed_size = block.raw_size + 1
    assert _check(block) == ["inconsistent size accounting"]
    block.compressed_size = 0
    assert _check(block) == ["inconsistent size accounting"]


def test_check_block_flags_unknown_sender():
    _, block = _segment_with_block([make_tx(b"a")])
    assert _check(block, registry={}) == ["unknown sender u000"]


def test_check_block_flags_bad_signature():
    forged = Transaction(sender="u000", payload=b"f", submit_time=1.0,
                         signature=bytes(64))
    _, block = _segment_with_block([make_tx(b"a"), forged])
    assert _check(block) == [f"bad signature on tx {forged.id.hex()[:16]}"]


def test_check_block_flags_duplicate_inside_block():
    tx = make_tx(b"twin")
    _, block = _segment_with_block([tx, make_tx(b"other"), tx])
    assert _check(block) == [f"duplicate tx {tx.id.hex()[:16]}"]


def test_check_block_flags_duplicate_of_seen_and_keeps_seen():
    tx = make_tx(b"again")
    _, block = _segment_with_block([make_tx(b"new"), tx])
    seen = {tx.id}
    assert ledger.check_block(block, genesis_metadata(1), REGISTRY, provider,
                              0, seen) == [f"duplicate tx {tx.id.hex()[:16]}"]
    assert seen == {tx.id}


def test_verify_segment_prefixes_check_block_findings():
    seg, block = _segment_with_block([make_tx(b"a")])
    seg.append_block(block)
    block.compressed_size = block.raw_size + 1
    assert ledger.verify_segment(seg, REGISTRY, provider) == [
        "segment e00 block 1: inconsistent size accounting"]
