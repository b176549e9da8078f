import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from trctee import device, puf, runtime, transport, ttp
from trctee.crypto import Rng


@dataclass
class World:
    """One enrolled device plus one provisioned user, not yet connected."""

    master: Rng
    ttp: ttp.TtpService
    puf_device: puf.PufDevice
    boot_image: device.BootImage
    device: device.FpgaSocDevice
    user: runtime.UserNode
    thread: object = None  # the device's ``serve`` thread, in the tests that run one


def build_world(
    seed: int = 7,
    rekey_threshold: int = 1024,
    crp_slice: int = 64,
    device_id: str = "dev1",
    user_id: str = "alice",
) -> World:
    master = Rng(seed)
    ttp_service = ttp.TtpService(rng=master.child("ttp"))
    puf_device = puf.PufDevice(master.child(f"puf-{device_id}").bytes(32))
    image = device.BootImage.synthetic(device_id, ttp_service.pk_ttp)
    ttp_service.enroll_device(device_id, puf_device, image)
    ttp_service.register_user(user_id)
    bundle = ttp_service.enroll_vtpm(user_id)
    dev_id, manifest, crps = ttp_service.provision_user(user_id, device_id, crp_slice)
    dev = device.FpgaSocDevice(
        device_id=device_id,
        puf=puf_device,
        boot_image=image,
        rng=master.child(f"device-{device_id}"),
        recv_timeout=2.0,
    )
    user = runtime.UserNode(
        bundle=bundle,
        device_id=dev_id,
        golden_manifest=manifest,
        crp_store=crps,
        rng=master.child("user"),
        rekey_threshold=rekey_threshold,
        recv_timeout=2.0,
    )
    return World(
        master=master,
        ttp=ttp_service,
        puf_device=puf_device,
        boot_image=image,
        device=dev,
        user=user,
    )


def connect_world(world: World) -> None:
    """Boot the device and run the handshake through a direct pair, with no thread."""
    world.device.boot()
    world.user.connect(device.DirectPair(world.device))


def tapped(dev: device.FpgaSocDevice, direction: str, k: int, action: str):
    """A direct pair with ``dev`` behind an adversary tap whose one fault is
    ``action`` on the k-th record in ``direction``."""
    tap = transport.AdversaryTap(device.DirectPair(dev))
    tap.schedule(direction, k, action)
    return tap


@pytest.fixture
def world():
    w = build_world()
    yield w
    if w.user.endpoint is not None:
        w.user.close()


def _no_thread(thread):
    raise AssertionError(f"the in-process handshake started thread {thread.name}")


@pytest.fixture
def connected(world, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(threading.Thread, "start", _no_thread)
        connect_world(world)
    return world
