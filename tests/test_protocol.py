"""PROTOCOL.md checked against the code: each table it states, by value.

The byte layouts of section 1.5 are checked in ``test_messages.py`` and the
attacks each step mounts in ``test_scenario.py``; the known-answer session
of Appendix A in ``test_known_answer.py``.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
import struct
import textwrap
from pathlib import Path

import pytest

import trctee
from conftest import build_world
from test_messages import handshake_roles
from trctee import channel, device, messages, scenario, wire
from trctee.crypto import hmac_sha384, sha384
from trctee.errors import TrcteeError

ROOT = Path(__file__).parent.parent
PROTOCOL = ROOT / "PROTOCOL.md"
MODULES = {
    m.name.rpartition(".")[2]: importlib.import_module(m.name)
    for m in pkgutil.iter_modules(trctee.__path__, "trctee.")
}


def section(title: str) -> str:
    """The text under the heading ``title``, up to the next heading of its level or above."""
    text = PROTOCOL.read_text(encoding="utf-8")
    heading = re.search(rf"^(#+) {re.escape(title)}$", text, re.M)
    return re.split(rf"^#{{1,{len(heading[1])}}} ", text[heading.end() :], flags=re.M)[0]


def table(title: str, header: str | None = None) -> list[list[str]]:
    """The body rows of the table under ``title`` whose first header cell is
    ``header`` (the first table when None), each a list of cells."""
    blocks = re.findall(r"^\|.*(?:\n\|.*)*", section(title), re.M)
    rows = [
        [cell.strip().replace("\\|", "|") for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
        for line in next(b for b in blocks if header is None or b.startswith(f"| {header} |"))
        .splitlines()
    ]
    return rows[2:]


def quoted(cell: str) -> list[str]:
    return re.findall(r"`([^`]+)`", cell)


def error_classes() -> list[type]:
    found, pending = [], [TrcteeError]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def qualified(cls: type) -> str:
    return f"{cls.__module__.rpartition('.')[2]}.{cls.__name__}"


class TestKeySchedule:
    def test_each_hkdf_info_constant_is_the_label_stated(self):
        rows = table("3. Key schedule")
        stated = {row[0].strip("`"): quoted(row[1])[0].split(" || ")[0] for row in rows}
        constants = {name for name in vars(channel) if re.fullmatch(r"_[A-Z]+_INFO", name)}
        assert set(stated) == constants
        for name, label in stated.items():
            assert getattr(channel, name) == label.encode(), name

    def test_every_derivation_of_a_session_is_one_stated_row(self, monkeypatch):
        """Each HKDF call of a session with a key update matches one row, by
        its info label, salt and length; each row is used."""
        calls = []
        derive = channel.hkdf_sha384

        def recorded(ikm, *, salt=b"", info=b"", length=32):
            calls.append((ikm, salt, info, length))
            return derive(ikm, salt=salt, info=info, length=length)

        monkeypatch.setattr(channel, "hkdf_sha384", recorded)
        world = build_world()
        world.device.boot()
        world.user.connect(device.DirectPair(world.device))
        assert world.user.update_key() == 0
        rows = table("3. Key schedule")
        patterns = [self._info_pattern(quoted(row[1])[0]) for row in rows]
        used = set()
        for ikm, salt, info, length in calls:
            (index,) = [i for i, p in enumerate(patterns) if p.fullmatch(info)]
            used.add(index)
            salt_cell, ikm_cell = rows[index][2], rows[index][3]
            if salt_cell == "(empty)":
                assert salt == b"", rows[index][0]
            elif quoted(salt_cell):
                assert salt == quoted(salt_cell)[0].encode(), rows[index][0]
            else:  # SHA-384 over the 24 PCRs
                assert len(salt) == 48
            sizes = re.findall(r"\((\d+)\)", ikm_cell)
            if ikm_cell.startswith("`") and sizes:
                assert len(ikm) == sum(map(int, sizes)), rows[index][0]
            assert length == 32
        assert used == set(range(len(rows)))

    @staticmethod
    def _info_pattern(grammar: str) -> re.Pattern:
        parts = []
        for token in grammar.split(" || "):
            sized = re.fullmatch(r"\w+\((\d+)\)", token)
            parts.append(f".{{{sized[1]}}}" if sized else re.escape(token))
        return re.compile("".join(parts).encode(), re.S)

    def test_mac_labels_by_value(self):
        inputs = {row[0]: quoted(row[2]) for row in table("3. Key schedule", "MAC")}
        label = {name: cells[0].split(" || ")[0].encode() for name, cells in inputs.items() if cells}
        assert channel._CONFIRM_LABELS == {
            channel.Role.VTPM: label["vTPM confirmation"],
            channel.Role.TMM: label["device confirmation"],
        }
        key = bytes(range(32))
        for side in "dv":
            mac = hmac_sha384(key, label[f"update confirmation {side.upper()}"] + struct.pack(">I", 7))
            assert channel._update_mac(key, side.encode(), 7) == mac

    def test_the_transcript_starts_with_the_stated_prefix(self):
        (grammar,) = re.findall(r"The transcript is\s+`([^`]+)`", section("3. Key schedule"))
        prefix = grammar.split(" || ")[0]
        assert channel._Transcript().digest() == sha384(prefix.encode())


class TestHandshakeStates:
    ROLES = {"vTPM": channel.VtpmHandshake, "device": channel.DeviceHandshake}

    def test_each_handler_is_one_row(self):
        rows = table("2.1 Handshake states")
        for role, cls in self.ROLES.items():
            stated = {
                row[2].strip("`"): row[1].strip("`")
                for row in rows
                if row[0] == role and row[2].startswith("`_handle_")
            }
            handlers = {name for name in dir(cls) if name.startswith("_handle_")}
            assert set(stated) == handlers, role
            for handler, state in stated.items():
                assert handler == f"_handle_{state}"

    def test_an_honest_handshake_moves_through_the_stated_states(self):
        vtpm_hs, device_hs = handshake_roles()
        observed = set()
        before = vtpm_hs._state
        message = vtpm_hs.start()
        observed.add(("vTPM", before, vtpm_hs._state))
        receiver = device_hs
        while message is not None:
            before = receiver._state
            message = receiver.on_message(message)
            observed.add(("vTPM" if receiver is vtpm_hs else "device", before, receiver._state))
            receiver = vtpm_hs if receiver is device_hs else device_hs
        stated = {(row[0], row[1].strip("`"), row[6].strip("`")) for row in table("2.1 Handshake states")}
        assert observed == stated
        assert vtpm_hs.session.sess_key == device_hs.session.sess_key


class TestDeviceCoreStates:
    FIELDS = ("_handshake", "session", "_pending", "tmm")

    def held(self, dev) -> set[str]:
        return {name for name in self.FIELDS if getattr(dev, name) is not None}

    def test_a_session_with_a_key_update_moves_through_the_stated_states(self):
        rows = {row[0]: row for row in table("2.2 The device core")}
        assert set(rows) == {"idle", "handshaking", "established", "awaiting V"}
        world = build_world()
        dev, user = world.device, world.user
        observed = [self.held(dev)]
        dev.boot()
        pair = device.DirectPair(dev)
        observed.append(self.held(dev))
        user.connect(pair)
        observed.append(self.held(dev))
        session = user.endpoint.session
        crp = user.crp_store.take_unused()
        payload, pending = channel.start_update(
            session, crp.challenge, crp.response, user.vtpm.pcrs.state_hash()
        )
        reply = user.endpoint.request(payload)
        observed.append(self.held(dev))
        pair.send_record(channel.confirm_update(session, reply, pending))
        observed.append(self.held(dev))
        user.close()
        observed.append(self.held(dev))
        names = ["idle", "handshaking", "established", "awaiting V", "established", "idle"]
        assert observed == [set(quoted(rows[name][1])) for name in names]
        for state, after in zip(names, names[1:-1]):
            assert rows[state][3].startswith(after), state
        assert dev.session is None and session.epoch == 1


class TestSessionEnds:
    REFUSALS = re.compile(r"Refusals that leave the session up: (.*?)\.\s", re.S)

    @pytest.mark.parametrize("cls", error_classes(), ids=qualified)
    def test_only_the_stated_refusals_leave_the_session_up(self, connected, cls):
        (line,) = self.REFUSALS.findall(section("2.4 When a session ends"))
        stays = set(quoted(line))
        assert stays <= {c.__name__ for c in error_classes()}
        connected.user._fail(cls.__new__(cls))
        assert (connected.user.endpoint is not None) == (cls.__name__ in stays)


class TestErrorTable:
    def test_every_error_class_is_one_row_with_its_token_abort_code_and_exit_code(self):
        rows = {row[0].strip("`"): row for row in table("4.1 Error classes")}
        classes = {qualified(cls): cls for cls in error_classes()}
        assert set(rows) == set(classes)
        named = (channel.ChannelError, messages.MessageError, wire.WireError)
        for name, cls in classes.items():
            _, _, token, abort, exit_code = rows[name]
            assert token == f"`{cls.token or f'error:{cls.__name__}'}`", name
            if issubclass(cls, named) and cls is not channel.PeerAborted:
                assert abort == str(channel.abort_record(cls.__new__(cls))[1]), name
            else:
                assert abort == "–", name
            assert exit_code == str(cls.exit_code), name

    def test_the_abort_codes_are_abort_reasons_in_order(self):
        rows = table("4.2 Abort reason codes")
        assert [int(row[0]) for row in rows] == list(range(len(channel.ABORT_REASONS)))
        assert [quoted(row[1])[0] for row in rows] == [c.__name__ for c in channel.ABORT_REASONS]


# Each step's attacks; the agent-deploy step is an attack of its own.
ATTACKS = {(name, a) for name, spec in scenario.STEPS.items() for a in spec.attacks} | {
    ("agent-deploy", "agent-deploy")
}


class TestAttacks:
    STEP = re.compile(r"^- `([a-z-]+)`: (.*(?:\n  .*)*)", re.M)
    ATTACK = re.compile(r"^  - `([a-z-]+)`: (.*(?:\n    .*)*)", re.M)
    SETUP = ["enroll-device id=dev1", "enroll-vtpm user=alice", "provision user=alice device=dev1"]
    FLOW = ["boot", "handshake", "deploy ip=1 kernel=xor params=hex:" + bytes(16).hex(),
            "invoke ip=1 input=hex:" + bytes(16).hex(), "update-key", "agent-deploy ip=1"]

    def stated(self) -> dict[tuple[str, str], str]:
        """``(step, attack)`` -> the text stating its check, outcome and test."""
        text = section("5.1 Attacks")
        found = {
            (step, attack): detail
            for step, body in self.STEP.findall(text)
            for attack, detail in self.ATTACK.findall("\n" + body.split("\n", 1)[-1])
        }
        (agent,) = re.findall(r"The `agent-deploy` step is itself an attack(.*?)\n\n", text, re.S)
        found["agent-deploy", "agent-deploy"] = agent
        return found

    def test_every_attack_a_step_mounts_is_stated_once(self):
        assert set(self.stated()) == ATTACKS

    @pytest.mark.parametrize("step, attack", sorted(ATTACKS))
    def test_each_attack_reports_its_stated_outcome_and_names_a_test(self, step, attack):
        detail = " ".join(self.stated()[step, attack].split())
        (outcome,) = re.findall(r"outcome `([^`]+)`", detail, re.I)
        (shown,) = re.findall(r"shown by `([^`]+)`", detail, re.I)
        path, *names = shown.split("::")
        target = importlib.import_module(Path(path).stem)
        for name in names:
            target = getattr(target, name)
        assert callable(target) or inspect.isclass(target)
        flow = self.SETUP + self.FLOW[: [line.split()[0] for line in self.FLOW].index(step) + 1]
        if step != "agent-deploy":
            flow[-1] += f" adversary={attack}"
        flow[-1] += f" expect={outcome}"
        steps = scenario.parse_scenario("\n".join(["trctee-scenario v1", *flow]))
        report = scenario.ScenarioRunner(steps, seed=5).run()
        assert report.exit_code == 0, report.text()


# -- every name the documents give resolves --------------------------------------------

DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")


def init_attributes(cls: type) -> set[str]:
    """The attributes an instance of ``cls`` gets: those ``__init__`` assigns
    to ``self`` in ``cls`` or a base, and its dataclass fields."""
    names = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    for base in cls.__mro__:
        init = vars(base).get("__init__")
        if not inspect.isfunction(init) or dataclasses.is_dataclass(base):
            continue  # a dataclass's __init__ is generated: its fields are counted above
        tree = ast.parse(textwrap.dedent(inspect.getsource(init)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                if isinstance(node.value, ast.Name) and node.value.id == "self":
                    names.add(node.attr)
    return names


def classes_named(name: str) -> list[type]:
    return [
        value for module in MODULES.values() for value in vars(module).values()
        if inspect.isclass(value) and value.__module__.startswith("trctee.") and value.__name__ == name
    ]


def resolves(name: str) -> bool:
    """``name`` is a module attribute, a class attribute, or an instance
    attribute that ``__init__`` assigns, reached from trctee, one of its
    modules or one of its classes."""
    head, *rest = name.split(".")
    if head == "trctee" or head in MODULES:
        starts = [trctee if head == "trctee" else MODULES[head]]
    else:
        starts = classes_named(head)
    return any(walks(start, rest) for start in starts)


def walks(target, attrs: list[str]) -> bool:
    for i, attr in enumerate(attrs):
        if target is trctee and attr in MODULES:
            target = MODULES[attr]
        elif hasattr(target, attr):
            target = getattr(target, attr)
        else:
            last = i == len(attrs) - 1
            return last and inspect.isclass(target) and attr in init_attributes(target)
    return True


def documented_names(path: Path) -> set[str]:
    """Each backticked dotted name in ``path`` that starts at trctee, one of
    its modules or one of its classes; a call's arguments are dropped."""
    names = set()
    for span in re.findall(r"`([^`\n]+)`", path.read_text(encoding="utf-8")):
        span = re.sub(r"\(.*\)$", "", span)
        head = span.split(".")[0]
        if DOTTED.fullmatch(span) and (head in ("trctee", *MODULES) or classes_named(head)):
            names.add(span)
    return names


@pytest.mark.parametrize("document", ["README.md", "PROTOCOL.md"])
def test_every_dotted_trctee_name_in_the_documents_resolves(document):
    names = documented_names(ROOT / document)
    assert names
    assert sorted(name for name in names if not resolves(name)) == []


def test_a_deleted_name_does_not_resolve():
    assert resolves("FpgaSocDevice.agent") and resolves("channel.SessionState.switch_epoch")
    assert not resolves("ChannelEndpoint.send") and not resolves("device.TpmAgent")
    assert not resolves("runtime.UserNode.no_such_attribute")
