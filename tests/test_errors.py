"""Every trctee error derives from one root class that states how it is
reported: its scenario outcome token and its CLI exit code."""

import importlib
import inspect
import pkgutil

import pytest

import trctee
from trctee import (
    channel, device, messages, puf, runtime, scenario, statefile, transport, ttp, vtpm, wire,
)
from trctee.errors import TrcteeError

from oracles import ERROR_TOKENS, table_token

MODULES = [
    importlib.import_module(f"trctee.{info.name}")
    for info in pkgutil.iter_modules(trctee.__path__)
]
# Every exception class a trctee module defines (not the ones it imports).
ERRORS = [
    cls
    for module in MODULES
    for _, cls in inspect.getmembers(module, inspect.isclass)
    if issubclass(cls, BaseException) and cls.__module__ == module.__name__
]


def test_every_error_derives_from_the_root():
    assert len(ERRORS) > len(ERROR_TOKENS)
    assert [cls for cls in ERRORS if not issubclass(cls, TrcteeError)] == []


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: f"{cls.__module__}.{cls.__qualname__}")
def test_token_matches_the_old_table(cls):
    assert (cls.token or f"error:{cls.__name__}") == table_token(cls)


@pytest.mark.parametrize(
    "cls,code",
    [
        (statefile.StateFileError, 2),
        (runtime.HistoryFormatError, 2),
        (vtpm.LogFormatError, 2),
        (scenario.ParseError, 2),
        (TrcteeError, 1),
        (channel.ChannelError, 1),
        (device.DeviceError, 1),
        (messages.MessageError, 1),
        (puf.CrpExhausted, 1),
        (runtime.OrchestrationError, 1),
        (transport.TransportError, 1),
        (ttp.TtpError, 1),
        (vtpm.VtpmError, 1),
        (wire.WireError, 1),
        (scenario.ExpectationFailed, 1),
        (scenario.OperationFailed, 1),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
)
def test_exit_code(cls, code):
    assert cls.exit_code == code


def test_a_bad_identifier_in_a_state_file_is_a_state_file_error(tmp_path):
    path = str(tmp_path / "f.txt")
    with pytest.raises(ttp.BadIdentifier):
        ttp.check_identifier("../x")
    with pytest.raises(statefile.StateFileError, match="line 2") as info:
        with statefile.located(path, 2):
            ttp.check_identifier("../x")
    assert info.value.exit_code == 2
