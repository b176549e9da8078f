import hashlib

import pytest

from trctee import crypto, device, puf, ttp
from trctee.crypto import Rng


@pytest.fixture
def service():
    return ttp.TtpService(rng=Rng(11), enroll_crps=32)


@pytest.fixture
def enrolled(service):
    puf_device = puf.PufDevice(Rng(12).bytes(32))
    image = device.BootImage.synthetic("dev1", service.pk_ttp)
    record = service.enroll_device("dev1", puf_device, image)
    service.register_user("alice")
    return service, puf_device, image, record


class TestCertificate:
    def test_issued_cert_verifies(self, service):
        service.register_user("alice")
        bundle = service.enroll_vtpm("alice")
        assert bundle.cert.verify(service.pk_ttp)
        assert bundle.cert.pk_tpm == bundle.pk_tpm

    def test_tampered_cert_fails(self, service):
        service.register_user("alice")
        cert = service.enroll_vtpm("alice").cert
        broken = ttp.Certificate(
            user_id=cert.user_id,
            pk_tpm=cert.pk_tpm,
            signature=cert.signature[:-1] + bytes([cert.signature[-1] ^ 1]),
        )
        assert not broken.verify(service.pk_ttp)

    def test_encode_decode_round_trip(self, service):
        service.register_user("alice")
        cert = service.enroll_vtpm("alice").cert
        assert ttp.Certificate.decode(cert.encode()) == cert

    def test_wrong_key_fails(self, service):
        service.register_user("alice")
        cert = service.enroll_vtpm("alice").cert
        other = ttp.TtpService(rng=Rng(99))
        assert not cert.verify(other.pk_ttp)


class TestEnrollDevice:
    def test_manifest_has_eight_components(self, enrolled):
        _, _, _, record = enrolled
        assert len(record.golden_manifest) == 8
        assert [name for name, _ in record.golden_manifest] == list(device.BOOT_COMPONENTS)

    def test_duplicate_device(self, enrolled):
        service, puf_device, image, _ = enrolled
        with pytest.raises(ttp.DuplicateDevice):
            service.enroll_device("dev1", puf_device, image)

    def test_manifest_digests_match_hash_oracle(self, enrolled):
        _, _, image, record = enrolled
        for (name, digest), (_, blob) in zip(record.golden_manifest, image.items()):
            assert digest == hashlib.sha384(blob).digest()

    def test_manifest_digests_match_crypto_sha384(self, enrolled):
        # Cross-module oracle against the one SHA-384 the device and the vTPM share.
        _, _, image, record = enrolled
        for (name, digest), (_, blob) in zip(record.golden_manifest, image.items()):
            assert digest == crypto.sha384(blob)

    def test_manifest_reproducible(self, enrolled):
        service, puf_device, image, record = enrolled
        again = [(n, hashlib.sha384(b).digest()) for n, b in image.items()]
        assert again == record.golden_manifest

    def test_crps_verify_against_device(self, enrolled):
        _, puf_device, _, record = enrolled
        for crp in record.crp_store.records():
            assert puf_device.respond(crp.challenge) == crp.response


class TestEnrollVtpm:
    def test_unknown_user(self, service):
        with pytest.raises(ttp.UnknownUser):
            service.enroll_vtpm("nobody")

    def test_two_enrollments_distinct_keys(self, service):
        service.register_user("alice")
        first = service.enroll_vtpm("alice")
        second = service.enroll_vtpm("alice")
        assert first.pk_tpm != second.pk_tpm

    def test_bundle_carries_ttp_key(self, service):
        service.register_user("alice")
        assert service.enroll_vtpm("alice").pk_ttp == service.pk_ttp


class TestProvision:
    def test_slice_size(self, enrolled):
        service, _, _, _ = enrolled
        _, manifest, crps = service.provision_user("alice", "dev1", slice_size=8)
        assert len(crps) == 8
        assert len(manifest) == 8

    def test_slices_disjoint_from_each_other_and_ttp(self, enrolled):
        service, _, _, record = enrolled
        _, _, first = service.provision_user("alice", "dev1", slice_size=8)
        _, _, second = service.provision_user("alice", "dev1", slice_size=8)
        assert not first.challenges() & second.challenges()
        assert not first.challenges() & record.crp_store.challenges()
        assert not second.challenges() & record.crp_store.challenges()

    def test_unknown_device(self, enrolled):
        service = enrolled[0]
        with pytest.raises(ttp.UnknownDevice):
            service.provision_user("alice", "ghost")

    def test_unknown_user(self, enrolled):
        service = enrolled[0]
        with pytest.raises(ttp.UnknownUser):
            service.provision_user("mallory", "dev1")

    def test_crp_exhaustion(self, enrolled):
        service = enrolled[0]
        with pytest.raises(puf.CrpExhausted):
            service.provision_user("alice", "dev1", slice_size=1000)


class TestPersistence:
    def test_registry_round_trip(self, enrolled, tmp_path):
        service = enrolled[0]
        bundle = service.enroll_vtpm("alice")
        service.provision_user("alice", "dev1", slice_size=4)
        saved, resaved = tmp_path / "saved", tmp_path / "resaved"
        saved.mkdir()
        resaved.mkdir()
        service.save(str(saved / "registry.txt"))
        loaded = ttp.TtpService.load(str(saved / "registry.txt"))
        assert loaded.pk_ttp == service.pk_ttp
        assert f"cert {bundle.cert.encode().hex()}\n" in (saved / "registry.txt").read_text()
        # The registry file, its certificates and the CRP file, as they were.
        loaded.save(str(resaved / "registry.txt"))
        files = sorted(path.name for path in saved.iterdir())
        assert files == ["crps_ttp_dev1.txt", "registry.txt"]
        assert sorted(path.name for path in resaved.iterdir()) == files
        for name in files:
            assert (resaved / name).read_bytes() == (saved / name).read_bytes()
        # A freshly loaded registry can still provision.
        _, _, more = loaded.provision_user("alice", "dev1", slice_size=4)
        assert len(more) == 4
