import hashlib
import hmac
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trctee import puf
from trctee.crypto import Rng

from oracles import enroll_reference


@pytest.fixture
def device():
    return puf.PufDevice(Rng(101).bytes(32))


class TestRespond:
    def test_deterministic(self, device):
        challenge = b"\x01\x02\x03\x04"
        assert device.respond(challenge) == device.respond(challenge)

    def test_response_width(self, device):
        assert len(device.respond(bytes(4))) == 32

    def test_fixed_reference_value(self, device):
        # Independent recomputation of the keyed-PRF construction, plus the
        # frozen value from a reference run under the fixture seed.
        import hashlib
        import hmac

        expected = hmac.new(Rng(101).bytes(32), bytes(4), hashlib.sha256).digest()
        assert device.respond(bytes(4)) == expected
        assert (
            expected.hex()
            == "d0a28195a8fd96b69993c6648c380309a51f73d11fc25c3293823b29ea732361"
        )

    def test_distinct_seeds_distinct_responses(self):
        # Brute-force over a set of enrolled seeds: no collisions anywhere.
        devices = [puf.PufDevice(Rng(i).bytes(32)) for i in range(8)]
        challenges = [Rng(1000 + i).bytes(4) for i in range(16)]
        for challenge in challenges:
            responses = [d.respond(challenge) for d in devices]
            assert len(set(responses)) == len(devices)

    def test_bad_challenge_width(self, device):
        with pytest.raises(ValueError):
            device.respond(b"\x00" * 5)

    def test_bad_seed_width(self):
        with pytest.raises(ValueError):
            puf.PufDevice(b"short")

    @given(seed=st.binary(min_size=32, max_size=32), challenge=st.binary(min_size=4, max_size=4))
    def test_equals_hmac_sha256(self, seed, challenge):
        device = puf.PufDevice(seed)
        assert device.respond(challenge) == hmac.new(seed, challenge, hashlib.sha256).digest()
        # Pad states are copied, never advanced: a second call agrees.
        assert device.respond(challenge) == device.respond(challenge)

    @given(seed=st.binary(min_size=32, max_size=32),
           challenge=st.binary(max_size=8).filter(lambda c: len(c) != 4))
    def test_wrong_challenge_length_raises(self, seed, challenge):
        with pytest.raises(ValueError):
            puf.PufDevice(seed).respond(challenge)

    @given(seed=st.binary(max_size=80).filter(lambda s: len(s) != 32))
    def test_wrong_seed_length_raises(self, seed):
        with pytest.raises(ValueError):
            puf.PufDevice(seed)


def counter_blocks(seed: int):
    """SHA-384 in counter mode over the hashed seed, written out by hand."""
    state = hashlib.sha384(seed.to_bytes(16, "big")).digest()
    for counter in itertools.count():
        yield hashlib.sha384(state + counter.to_bytes(8, "big")).digest()


class TestRngBlocks:
    @pytest.mark.parametrize("n", [0, 1, 4, 47, 48, 49, 100])
    def test_bytes_is_the_counter_stream(self, n):
        expected = b"".join(itertools.islice(counter_blocks(7), 3))[:n]
        assert Rng(7).bytes(n) == expected

    def test_blocks_and_bytes_share_one_counter(self):
        rng, reference = Rng(7), counter_blocks(7)
        blocks = rng.blocks()
        assert next(blocks) == next(reference)
        assert rng.bytes(4) == next(reference)[:4]
        assert next(blocks) == next(reference)
        assert rng.bytes(49) == (next(reference) + next(reference))[:49]
        assert next(rng.blocks()) == next(reference)

    def test_negative_count_is_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            Rng(7).bytes(-1)


class TestEnroll:
    def test_single_record(self, device):
        store = puf.enroll(device, 1, Rng(5))
        assert len(store) == 1

    def test_hundred_distinct_challenges(self, device):
        store = puf.enroll(device, 100, Rng(5))
        assert len(store.challenges()) == 100

    def test_enrollment_fidelity(self, device):
        store = puf.enroll(device, 50, Rng(5))
        for record in store.records():
            assert device.respond(record.challenge) == record.response
            assert not record.used

    def test_zero_count_rejected(self, device):
        with pytest.raises(ValueError):
            puf.enroll(device, 0, Rng(5))

    def test_count_beyond_the_challenge_space_is_refused_before_any_draw(self, device):
        rng = Rng(5)
        with pytest.raises(ValueError, match="challenge space exhausted"):
            puf.enroll(device, 2 ** (8 * puf.CHALLENGE_LEN) + 1, rng)
        assert rng._counter == 0


def enrolled(store):
    return [(r.challenge, r.response, r.used) for r in store.records()]


class ScriptedRng(Rng):
    """An Rng whose blocks come from a list, so draws can be made to collide."""

    def __init__(self, blocks):
        super().__init__(0)
        self._script = list(blocks)

    def blocks(self):
        while True:
            block = self._script[self._counter]
            self._counter += 1
            yield block


class TestEnrollMatchesReference:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 255, 256, 1024])
    def test_same_crps_order_and_counter(self, seed, n):
        device_seed = Rng(seed).bytes(32)
        rng, reference_rng = Rng(1000 + seed), Rng(1000 + seed)
        store = puf.enroll(puf.PufDevice(device_seed), n, rng)
        assert enrolled(store) == enroll_reference(device_seed, n, reference_rng)
        assert len(store) == n
        # The DRBG is left where one ``bytes(4)`` per draw leaves it.
        assert rng.bytes(48) == reference_rng.bytes(48)

    def test_colliding_draws_are_skipped_alike(self):
        heads = [i.to_bytes(4, "big") for i in (1, 2, 1, 3, 2, 3, 4, 5)]
        # Blocks 2, 4 and 5 repeat an earlier 4-byte head with a different tail.
        script = [head + bytes([j]) * 44 for j, head in enumerate(heads)]
        script += [bytes([0xEE]) * 48] * 4
        device_seed = Rng(9).bytes(32)
        rng, reference_rng = ScriptedRng(script), ScriptedRng(script)
        store = puf.enroll(puf.PufDevice(device_seed), 5, rng)
        reference = enroll_reference(device_seed, 5, reference_rng)
        assert enrolled(store) == reference
        assert [c for c, _, _ in reference] == [i.to_bytes(4, "big") for i in (1, 2, 3, 4, 5)]
        assert rng._counter == reference_rng._counter == 8


class TestStore:
    def test_take_unused_then_exhausted(self, device):
        store = puf.enroll(device, 1, Rng(5))
        record = store.take_unused()
        assert record.used
        with pytest.raises(puf.CrpExhausted):
            store.take_unused()

    def test_pigeonhole_distinct_takes(self, device):
        n = 20
        store = puf.enroll(device, n, Rng(5))
        taken = {store.take_unused().challenge for _ in range(n)}
        assert len(taken) == n

    def test_empty_store_exhausted(self):
        with pytest.raises(puf.CrpExhausted):
            puf.CrpStore().take_unused()

    def test_peek_with_every_record_used_is_exhausted(self, device):
        store = puf.enroll(device, 1, Rng(5))
        store.take_unused()
        with pytest.raises(puf.CrpExhausted, match="no unused CRP left"):
            store.peek_unused_challenge()

    def test_take_specific_challenge_once(self, device):
        store = puf.enroll(device, 4, Rng(5))
        challenge = store.peek_unused_challenge()
        record = store.take(challenge)
        assert record.challenge == challenge
        with pytest.raises(puf.CrpExhausted):
            store.take(challenge)

    def test_take_unknown_challenge(self, device):
        store = puf.enroll(device, 4, Rng(5))
        with pytest.raises(puf.CrpExhausted):
            store.take(b"\xff\xff\xff\xff")

    def test_duplicate_challenge_rejected(self):
        store = puf.CrpStore()
        record = puf.CrpRecord(challenge=bytes(4), response=bytes(32))
        store.add(record)
        with pytest.raises(ValueError):
            store.add(puf.CrpRecord(challenge=bytes(4), response=bytes(32)))

    def test_split_moves_disjoint_records(self, device):
        store = puf.enroll(device, 10, Rng(5))
        a = store.split(4, owner="user")
        b = store.split(4, owner="user")
        assert len(a) == 4 and len(b) == 4 and len(store) == 2
        assert not a.challenges() & b.challenges()
        assert not a.challenges() & store.challenges()

    @pytest.mark.parametrize("n", [0, -3])
    def test_split_below_one_rejected(self, device, n):
        store = puf.enroll(device, 10, Rng(5))
        before = enrolled(store)
        with pytest.raises(ValueError):
            store.split(n, owner="user")
        assert enrolled(store) == before

    def test_split_exhausted(self, device):
        store = puf.enroll(device, 3, Rng(5))
        with pytest.raises(puf.CrpExhausted):
            store.split(4, owner="user")

    def test_persistence_round_trip(self, device, tmp_path):
        store = puf.enroll(device, 6, Rng(5))
        store.take_unused()
        path = str(tmp_path / "crps.txt")
        store.save(path)
        loaded = puf.CrpStore.load(path, owner="ttp")
        assert {r.challenge: (r.response, r.used) for r in loaded.records()} == {
            r.challenge: (r.response, r.used) for r in store.records()
        }
        assert loaded.unused_count() == 5


class TestWriteAhead:
    def test_take_unused_is_on_disk_when_it_returns(self, device, tmp_path):
        path = str(tmp_path / "crps.txt")
        puf.enroll(device, 4, Rng(5)).save(path)
        store = puf.CrpStore.load(path, owner="user")
        first = store.take_unused()
        assert [r.challenge for r in puf.CrpStore.load(path).records() if r.used] == [
            first.challenge
        ]
        second = store.take(store.peek_unused_challenge())
        on_disk = puf.CrpStore.load(path)
        assert {r.challenge for r in on_disk.records() if r.used} == {
            first.challenge, second.challenge
        }

    def test_store_built_in_memory_does_no_io(self, device, monkeypatch):
        def no_write(*args):
            raise AssertionError("an in-memory store wrote a file")

        monkeypatch.setattr(puf.statefile, "write", no_write)
        store = puf.enroll(device, 4, Rng(5))
        store.take_unused()
        store.split(2, owner="user").take_unused()
