"""Every on-disk state file goes through one total codec: a malformed file
raises StateFileError naming the file and line, and nothing else escapes."""

import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trctee import cli, puf, runtime, statefile, ttp

HISTORY = runtime.ExpectedHistory(
    deployments=[(1, bytes(range(48)))],
    inputs=[bytes([0xAB]) * 48, bytes([0xCD]) * 48],
    outputs=[bytes([0xEF]) * 48],
)


def load_device(path):
    return statefile.read_keys(path, cli.DEVICE_HEADER, cli.DEVICE_FIELDS)


def save_device(path, fields):
    lines = [f"{key} {value.hex() if isinstance(value, bytes) else value}"
             for key, value in fields.items()]
    statefile.write(path, cli.DEVICE_HEADER, lines)


# kind -> (file name in the store, loader, saver of what the loader returns)
KINDS = {
    "registry": ("registry.txt", ttp.TtpService.load, lambda path, t: t.save(path)),
    "crp": ("crps_user_alice.txt", puf.CrpStore.load, lambda path, s: s.save(path)),
    "device": ("device_dev1.txt", load_device, save_device),
    "user": ("user_alice.txt", cli._load_user, lambda path, u: cli._save_user(path, *u)),
    "history": ("history_alice.txt", runtime.ExpectedHistory.load,
                lambda path, h: h.save(path)),
}


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """The files the enroll/provision CLI flow writes, plus a history file."""
    root = tmp_path_factory.mktemp("store")
    for argv in (
        ["enroll-device", "--id", "dev1"],
        ["enroll-vtpm", "--user", "alice"],
        ["provision", "--user", "alice", "--device", "dev1"],
    ):
        assert cli.main(["--store", str(root), "--seed", "3", *argv]) == 0
    HISTORY.save(str(root / "history_alice.txt"))
    return root


@pytest.fixture
def scratch(store, tmp_path):
    """A copy of the valid store to break one file in."""
    shutil.copytree(store, tmp_path / "s")
    return tmp_path / "s"


class TestRoundTrip:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_load_then_save_is_byte_identical(self, store, tmp_path, kind):
        name, load, save = KINDS[kind]
        save(str(tmp_path / name), load(str(store / name)))
        assert (tmp_path / name).read_bytes() == (store / name).read_bytes()
        if kind == "registry":  # the TTP's CRP store is written beside it
            crps = "crps_ttp_dev1.txt"
            assert (tmp_path / crps).read_bytes() == (store / crps).read_bytes()

    def test_crp_file_has_a_header(self, store):
        assert (store / "crps_user_alice.txt").read_text().startswith("trctee-crps v1\n")

    def test_write_leaves_no_temporary_file(self, tmp_path):
        statefile.write(str(tmp_path / "f.txt"), "h v1", ["a b"])
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]
        assert (tmp_path / "f.txt").read_bytes() == b"h v1\na b\n"

    def test_write_into_a_missing_directory_is_a_state_file_error(self, tmp_path):
        path = tmp_path / "gone" / "f.txt"
        with pytest.raises(statefile.StateFileError, match="cannot write"):
            statefile.write(str(path), "h v1", ["a b"])
        assert not (tmp_path / "gone").exists()


def edit_line(no, old, new):
    def edit(lines):
        assert old in lines[no - 1]
        lines[no - 1] = lines[no - 1].replace(old, new, 1)
    return edit


def edit_field(no, index, value):
    def edit(lines):
        fields = lines[no - 1].split(" ")
        fields[index] = value
        lines[no - 1] = " ".join(fields)
    return edit


def drop_line(no):
    def edit(lines):
        del lines[no - 1]
    return edit


def insert_line(no, text):
    def edit(lines):
        lines.insert(no - 1, text)
    return edit


def duplicate_line(no):
    def edit(lines):
        lines.insert(no, lines[no - 1])
    return edit


# (case, kind, edit, line named in the error)
MALFORMED = [
    ("user manifest entry without '='", "user", edit_line(8, "fsbl=", "fsbl"), 8),
    ("registry manifest entry without '='", "registry", edit_line(4, "optee=", "optee"), 4),
    ("registry manifest missing a component", "registry", edit_line(4, "fsbl=", "fsb="), 4),
    ("registry manifest with a ninth entry", "registry", edit_line(4, "fsbl=", "x=00,fsbl="), 4),
    ("garbage in a CRP file", "crp", insert_line(2, "garbage"), 2),
    ("device file without seed", "device", drop_line(3), 3),
    ("device file cut after id", "device", lambda lines: lines.__delitem__(slice(2, None)), 3),
    ("ttpkey zz", "registry", edit_field(2, 1, "zz"), 2),
    ("second ttpkey", "registry", duplicate_line(2), 3),
    ("no ttpkey", "registry", drop_line(2), 5),
    ("second record for a device", "registry", duplicate_line(4), 5),
    ("unknown registry record", "registry", insert_line(3, "group admins"), 3),
    ("device id with a path separator", "registry", edit_line(4, "device dev1", "device ../dev1"), 4),
    ("short sk", "user", edit_field(3, 1, "00" * 31), 3),
    ("bad cert in a user file", "user", edit_line(5, "cert 01", "cert 02"), 5),
    ("bad cert in the registry", "registry", edit_line(5, "cert 01", "cert 0100"), 5),
    ("cert that is not hex", "user", edit_line(5, "cert 01", "cert zz"), 5),
    ("duplicate challenge", "crp", duplicate_line(2), 3),
    ("used flag 2", "crp", edit_field(4, 2, "2"), 4),
    ("short response", "crp", edit_field(2, 1, "00"), 2),
    ("challenge not hex", "crp", edit_field(3, 0, "6x7b5ebe"), 3),
    ("user keys out of order", "user", lambda lines: lines.insert(2, lines.pop(3)), 3),
    ("device without manifest", "user", drop_line(8), 8),
    ("trailing record in a device file", "device", insert_line(5, "id dev2"), 5),
    ("history digest of the wrong length", "history", edit_line(3, "input ", "input 00"), 3),
    ("missing header: registry", "registry", drop_line(1), 1),
    ("missing header: crp", "crp", drop_line(1), 1),
    ("missing header: device", "device", drop_line(1), 1),
    ("missing header: user", "user", edit_field(1, 1, "v2"), 1),
    ("missing header: history", "history", drop_line(1), 1),
]


class TestMalformed:
    @pytest.mark.parametrize(
        "kind,edit,line", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED]
    )
    def test_named_malformed_input(self, scratch, kind, edit, line):
        name, load, _ = KINDS[kind]
        path = scratch / name
        lines = path.read_text().split("\n")[:-1]
        edit(lines)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(statefile.StateFileError) as info:
            load(str(path))
        assert str(info.value).startswith(f"{path} line {line}: "), str(info.value)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_missing_file_is_a_state_file_error(self, tmp_path, kind):
        name, load, _ = KINDS[kind]
        with pytest.raises(statefile.StateFileError, match="cannot read"):
            load(str(tmp_path / name))

    def test_not_utf8_is_a_state_file_error(self, scratch):
        path = scratch / "device_dev1.txt"
        path.write_bytes(path.read_bytes().replace(b"id dev1", b"id dev\xff"))
        with pytest.raises(statefile.StateFileError, match="cannot read"):
            load_device(str(path))


FUZZ_ALPHABET = "0123456789abcdef =,xyz-/\t\r\x00é"


@st.composite
def mutations(draw, data: bytes) -> bytes:
    """``data`` after one to three line- or byte-level edits."""
    lines = data.split(b"\n")
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["drop", "dup", "swap", "replace", "cut", "flip"]))
        i = draw(st.integers(0, len(lines) - 1))
        if op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "replace":
            lines[i] = draw(st.text(FUZZ_ALPHABET, max_size=80)).encode()
        elif op == "cut":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        else:
            line = bytearray(lines[i]) or bytearray(b" ")
            line[draw(st.integers(0, len(line) - 1))] = draw(st.integers(0, 255))
            lines[i] = bytes(line)
        if not lines:
            break
    return b"\n".join(lines)


class TestTotality:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_only_state_file_errors_escape(self, store, scratch, kind, data):
        name, load, _ = KINDS[kind]
        path = scratch / name
        path.write_bytes(data.draw(mutations((store / name).read_bytes())))
        try:
            load(str(path))
        except statefile.StateFileError:
            pass
