"""The CLI's write contract: what `mine`, `frequent` and `classify` write,
and what they leave alone when they fail."""

from __future__ import annotations

import contextlib
import errno
import io
import os
import random
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rareminer
from rareminer import (
    ItemUniverseError,
    MiningConfig,
    classify_all,
    format_result_line,
    mine_frequent,
    mine_rare,
    parse_database,
)
from rareminer import cli
from rareminer.itemsets import canonical_key

OLD_BYTES = b"old bytes\n"


def _chunks_with_a_probe(first: str, probe):
    """Two chunks; `probe()` runs when the second one is asked for."""
    yield first
    probe()
    yield "z : 0 NONPRESENT\n"


def test_stdout_gets_each_chunk_before_the_next_is_made(monkeypatch):
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)
    monkeypatch.setattr(sys, "stdout", stdout)
    first = "a b : 1 RARE\n" * 10
    seen = []
    cli._write_output(_chunks_with_a_probe(first, lambda: seen.append(stdout.buffer.getvalue())), None)
    assert seen == [first.encode()]
    assert stdout.buffer.getvalue() == (first + "z : 0 NONPRESENT\n").encode()


def test_output_temp_file_gets_each_chunk_before_the_next_is_made(tmp_path):
    # Past every write buffer, so the first chunk is on disk, in the temp
    # file, while the target still holds its old bytes.
    target = tmp_path / "out.txt"
    target.write_bytes(OLD_BYTES)
    first = "a b : 1 RARE\n" * 100_000
    seen = []

    def probe():
        temps = [p for p in tmp_path.iterdir() if p.name.startswith("out.txt.")]
        seen.append(([p.stat().st_size for p in temps], target.read_bytes()))

    cli._write_output(_chunks_with_a_probe(first, probe), str(target))
    assert seen == [([len(first)], OLD_BYTES)]
    assert target.read_bytes() == (first + "z : 0 NONPRESENT\n").encode()
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_a_reader_that_stops_early_fails_the_run(tmp_path):
    # Output far past a pipe's buffer: once the reader has closed the pipe,
    # the next chunk's write fails, and the run says so and exits 1.
    path = tmp_path / "db.txt"
    rng = random.Random(5)
    path.write_text("".join(" ".join(i for i in "abcdefghijklmnop" if rng.random() < 0.3) + " a\n"
                            for _ in range(3000)))
    env = {**os.environ, "PYTHONPATH": str(Path(rareminer.__file__).parents[1])}
    proc = subprocess.Popen([sys.executable, "-m", "rareminer.cli", "mine", "--input", str(path),
                             "--max-support", "2"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().endswith((b" RARE\n", b" NONPRESENT\n"))
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(60) == 1
    assert err == f"rareminer: error: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n".encode()


def _old_file_is_left_alone(tmp_path) -> None:
    """`_make_target("file", tmp_path)` keeps its old bytes and mode, and no temp file is left."""
    target = tmp_path / "out.txt"
    assert target.read_bytes() == OLD_BYTES
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith("out.txt.")] == []


def test_a_write_past_the_file_size_limit_leaves_the_old_file(tmp_path):
    # Past RLIMIT_FSIZE a write fails with EFBIG; CPython ignores SIGXFSZ.
    resource = pytest.importorskip("resource")
    rng = random.Random(27)
    (tmp_path / "db.txt").write_text("".join(" ".join(i for i in "abcdefghijkl" if rng.random() < 0.5) + " a\n"
                                             for _ in range(40)))
    _make_target("file", tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(rareminer.__file__).parents[1]), "PYTHONDONTWRITEBYTECODE": "1"}
    # |D| + 1 keeps all 4,095 item-sets, about 100 kB of lines.
    proc = subprocess.run(
        [sys.executable, "-m", "rareminer.cli", "mine", "--input", "db.txt", "--max-support", "41",
         "--output", "out.txt"],
        cwd=tmp_path, env=env, capture_output=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (20_000, 20_000)),
    )
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr == f"rareminer: error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: 'out.txt'\n".encode()
    _old_file_is_left_alone(tmp_path)


def test_an_interrupted_write_leaves_the_old_file(tmp_path):
    def chunks():
        yield "a b : 1 RARE\n"
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        cli._write_output(chunks(), _make_target("file", tmp_path))
    _old_file_is_left_alone(tmp_path)


# Tokens that stress the input reader: NUL, U+0001, non-ASCII text and a
# very long token; at most 8 items, within `classify`'s 16-item cap.
TOKENS = ("a", "b", "c\x00", "\x01", "a\x01", "é", "日", "x" * 5000)
TARGETS = ("stdout", "missing", "missing-dir", "directory", "symlink", "fifo", "file")


@st.composite
def input_bytes(draw) -> bytes:
    lines = draw(st.lists(st.lists(st.sampled_from(TOKENS), max_size=4).map(" ".join), min_size=1, max_size=8))
    raw = draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines).encode()
    if draw(st.booleans()):
        raw = "\ufeff".encode() + raw
    # Now and then a byte sequence that is not UTF-8.
    bad = draw(st.sampled_from([b""] * 9 + [b"\xff", b"\xc3", b"\xed\xa0\x80"]))
    at = draw(st.integers(0, len(raw)))
    return raw[:at] + bad + raw[at:]


@st.composite
def subcommands(draw) -> tuple[list[str], str, int, str, int]:
    """argv without `--input` and `--output`, and its command, threshold,
    `--emit` and `--max-items`."""
    command = draw(st.sampled_from(["mine", "frequent", "classify"]))
    # Mostly within [1, |D|+1]; now and then out of it.
    threshold = draw(st.sampled_from([1, 2, 3, 4, 1, 2, 3, 0, 10]))
    flag = "--min-support" if command == "frequent" else "--max-support"
    argv = [command, flag, str(threshold)]
    emit = "both"
    if command == "mine" and draw(st.booleans()):
        emit = draw(st.sampled_from(["both", "rare", "nonpresent"]))
        argv += ["--emit", emit]
    max_items = draw(st.sampled_from([24] * 7 + [0, 1, 3]))
    if max_items != 24 or draw(st.booleans()):
        argv += ["--max-items", str(max_items)]
    return argv, command, threshold, emit, max_items


def _library_bytes(raw: bytes, command: str, threshold: int, emit: str, max_items: int):
    """The bytes the library gives for this run, or None for a usage error."""
    try:
        db = parse_database(raw.decode("utf-8"), max_items=max_items)
    except (UnicodeDecodeError, ItemUniverseError, ValueError):
        return None
    if not 1 <= threshold <= len(db) + 1:
        return None
    if command == "mine":
        results = mine_rare(db, MiningConfig(threshold, emit=emit))
    elif command == "frequent":
        results = mine_frequent(db, threshold)
    else:
        results = sorted(classify_all(db, threshold), key=lambda e: canonical_key(e.itemset.mask, db))
    return "".join(format_result_line(r.itemset, r.support, r.classification, db) + "\n"
                   for r in results).encode()


def _drain(fd: int, done: threading.Event, received: list) -> None:
    """Read a FIFO opened non-blocking until the run is over and no writer
    is left, so a run that never opens it leaves no thread waiting."""
    chunks = []
    while True:
        # Read after looking at `done`: a read of b"" made before the run
        # wrote anything, then `done` set, must not end the loop.
        over = done.is_set()
        try:
            data = os.read(fd, 1 << 16)
        except BlockingIOError:  # a writer is open; nothing to read yet
            data = None
        if data:
            chunks.append(data)
        elif data == b"" and over:
            break
        else:
            time.sleep(0.001)
    received.append(b"".join(chunks))


def _make_target(kind: str, tmp) -> str:
    """The `--output` path for `kind`, under `tmp`."""
    target = tmp / "out.txt"
    if kind == "missing-dir":
        return str(tmp / "nodir" / "out.txt")
    if kind == "directory":
        target.mkdir()
        (target / "inside.txt").write_bytes(OLD_BYTES)
    elif kind == "symlink":
        (tmp / "real.txt").write_bytes(OLD_BYTES)
        target.symlink_to("real.txt")
    elif kind == "fifo":
        os.mkfifo(target)
    elif kind == "file":
        target.write_bytes(OLD_BYTES)
        target.chmod(0o640)
    return str(target)


def _snapshot(tmp) -> dict:
    """Every entry under `tmp`: its file type, and a regular file's bytes and mode."""
    out = {}
    for root, dirs, files in os.walk(tmp):
        for name in dirs + files:
            path = os.path.join(root, name)
            mode = os.lstat(path).st_mode
            content = None
            if stat.S_ISREG(mode):
                with open(path, "rb") as fh:
                    content = fh.read(), stat.S_IMODE(mode)
            out[os.path.relpath(path, tmp)] = stat.S_IFMT(mode), content
    return out


@settings(deadline=None, max_examples=200)
@given(raw=input_bytes(), run=subcommands(), kind=st.sampled_from(TARGETS))
def test_write_contract(tmp_path_factory, raw, run, kind):
    argv, command, threshold, emit, max_items = run
    tmp = tmp_path_factory.mktemp("contract")
    source = tmp_path_factory.mktemp("input") / "db.txt"
    source.write_bytes(raw)
    argv = [*argv, "--input", str(source)]
    if kind != "stdout":
        output = _make_target(kind, tmp)
        argv += ["--output", output]
    before = _snapshot(tmp)

    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    stderr = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    done, received = threading.Event(), []
    reader = None
    if kind == "fifo":
        fd = os.open(output, os.O_RDONLY | os.O_NONBLOCK)
        reader = threading.Thread(target=_drain, args=(fd, done, received), daemon=True)
        reader.start()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    finally:
        done.set()
        if reader is not None:
            reader.join(10)
            os.close(fd)
    assert reader is None or not reader.is_alive()
    stdout.flush()
    stderr.flush()
    out, err = stdout.buffer.getvalue(), stderr.buffer.getvalue().decode("utf-8")

    expected = _library_bytes(raw, command, threshold, emit, max_items)
    want = 2 if expected is None else 1 if kind in ("missing-dir", "directory") else 0
    assert code == want, err
    assert "Traceback" not in err
    if code:
        assert err.startswith("rareminer: error: ") and err.count("\n") == 1
        if code == 1:
            assert repr(output) in err
        assert out == b""
        assert received in ([], [b""])
        assert _snapshot(tmp) == before
        return
    assert err == ""
    if kind == "stdout":
        assert out == expected
        return
    assert out == b""
    after = _snapshot(tmp)
    if kind == "fifo":
        assert received == [expected]
        assert after == before
    elif kind == "symlink":
        assert after == {**before, "real.txt": (stat.S_IFREG, (expected, before["real.txt"][1][1]))}
    else:
        mode = 0o640 if kind == "file" else 0o666 & ~_umask()
        assert after == {**before, "out.txt": (stat.S_IFREG, (expected, mode))}


def _umask() -> int:
    umask = os.umask(0)
    os.umask(umask)
    return umask
