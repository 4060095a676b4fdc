"""The bulk event-file parser against the per-line parser it replaced.

``load_event_file`` reads the header lines one by one, then splits the
whole event body at once and converts it column by column. The reference
here is the per-line loop the loader used to run, with the one rule added
since: header lines come before the first event, each key once. On valid
files the two must give the same streams and binned spike tensors byte
for byte; on malformed files the same exception type and message, which
names the earliest failing line.
"""
from pathlib import Path

import numpy as np
import pytest

from taxelsnn import DataFormatError, EventStream, bin_events, load_event_file, write_event_file
from taxelsnn.events import parse_header_line

HEADER = ("taxels", "channels", "duration")


def reference_load(path) -> EventStream:
    """Per-line parser: every check runs on each event as it is read."""
    path = Path(path)
    try:
        raw_lines = path.read_text().splitlines()
    except FileNotFoundError:
        raise DataFormatError(f"file not found: {path}") from None
    header: dict = {}
    times, taxels, channels = [], [], []
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] in HEADER:
            if times:
                raise DataFormatError(f"{path}:{lineno}: header line after the first event")
            if parts[0] in header:
                raise DataFormatError(f"{path}:{lineno}: duplicate header line {parts[0]!r}")
            try:
                header[parts[0]] = parse_header_line(parts)
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
            continue
        if len(parts) != 3:
            raise DataFormatError(f"{path}:{lineno}: expected 'timestamp taxel channel', got {raw!r}")
        try:
            times.append(float(parts[0]))
            taxels.append(int(parts[1]))
            channels.append(int(parts[2]))
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
        n, c = header.get("taxels", 0), header.get("channels", 0)
        if not header.keys() >= set(HEADER):
            raise DataFormatError(f"{path}:{lineno}: event before complete header")
        if not 0 <= taxels[-1] < n:
            raise DataFormatError(f"{path}:{lineno}: taxel id {taxels[-1]} outside 0..{n - 1}")
        if not 0 <= channels[-1] < c:
            raise DataFormatError(f"{path}:{lineno}: channel {channels[-1]} outside 0..{c - 1}")
        if not 0 <= times[-1] <= header["duration"]:
            raise DataFormatError(f"{path}:{lineno}: timestamp {times[-1]} outside [0, duration]")
    missing = set(HEADER) - header.keys()
    if missing:
        raise DataFormatError(f"{path}: missing header line(s): {', '.join(sorted(missing))}")
    return EventStream(np.array(times), np.array(taxels), np.array(channels),
                       duration=header["duration"],
                       num_taxels=header["taxels"],
                       num_channels=header["channels"])


def outcome(load, path):
    """Everything a load gives: array bytes and binned spikes, or the error's type and text."""
    try:
        stream = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    arrays = [(a.dtype.str, a.shape, a.tobytes())
              for a in (stream.times, stream.taxels, stream.channels)]
    spikes = bin_events(stream, 0.02)
    return (arrays, stream.duration, stream.num_taxels, stream.num_channels,
            spikes.shape, spikes.tobytes())


def assert_same(path):
    new, ref = outcome(load_event_file, path), outcome(reference_load, path)
    assert new == ref
    return new


# --- valid files ------------------------------------------------------------

def spell_id(value, rng):
    return rng.choice([str(value), f"+{value}", f"{value:03d}", str(value)])


def spell_time(value, duration, rng):
    spelled = rng.choice([repr(value), f"{value:.3e}", f"{value:.6f}", repr(value)])
    return spelled if float(spelled) <= duration else repr(value)


def valid_text(seed, events):
    """A valid event file in seeded, varied spelling; returns (text, newline)."""
    rng = np.random.default_rng(seed)
    n, c, duration = int(rng.integers(1, 40)), int(rng.integers(1, 3)), float(rng.uniform(0.1, 3))
    sep = lambda: rng.choice([" ", "  ", "\t", " \t ", "\x1f"])
    lines = ["# sample"] if rng.random() < 0.5 else []
    lines += [f"taxels {n}", f"channels {c}{sep()}", "", f"duration {duration!r}  # seconds"]
    times = rng.uniform(0, duration, events)
    times[: events // 10] = rng.choice([0.0, duration], events // 10)
    for t, i, ch in zip(times, rng.integers(0, n, events), rng.integers(0, c, events)):
        line = sep().join([spell_time(float(t), duration, rng), spell_id(int(i), rng), spell_id(int(ch), rng)])
        roll = rng.random()
        if roll < 0.05:
            line += f"{sep()}# note"
        elif roll < 0.1:
            line = sep() + line + sep()
        elif roll < 0.15:
            lines.append(rng.choice(["", "   ", "# comment", "\t# x"]))
        lines.append(line)
    newline = rng.choice(["\n", "\r\n", "\r", "\n", "\f", "\x1c"])
    return newline.join(lines) + (newline if rng.random() < 0.8 else ""), newline


@pytest.mark.parametrize("seed", range(12))
def test_varied_valid_files_match_reference(tmp_path, seed):
    text, newline = valid_text(seed, events=(0, 1, 7, 300)[seed % 4])
    path = tmp_path / "sample.events"
    path.write_bytes(text.encode())
    arrays = assert_same(path)[0]
    assert len(arrays[0][2]) == 8 * (0, 1, 7, 300)[seed % 4]


@pytest.mark.parametrize("body", [
    "5 0 0\n1e-3 1 1\n0.5 +3 007\n",   # integral and exponent times, signed and padded ids
    "",                               # zero events
    "# nothing but a comment\n\n",
    "0 0 0",                          # no final newline
])
def test_spelled_out_files_match_reference(tmp_path, body):
    path = tmp_path / "sample.events"
    path.write_text(f"taxels 4\nchannels 2\nduration 5.0\n{body}")
    assert_same(path)


@pytest.mark.parametrize("seed", range(4))
def test_written_files_round_trip_like_reference(tmp_path, seed):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(0, 500))
    stream = EventStream(rng.uniform(0, 2.0, count), rng.integers(0, 39, count),
                         rng.integers(0, 2, count), duration=2.0, num_taxels=39, num_channels=2)
    path = tmp_path / "written.events"
    write_event_file(stream, path)
    arrays = assert_same(path)[0]
    assert arrays[0][2] == stream.times.tobytes()


# --- malformed files --------------------------------------------------------

GOOD_HEADER = "taxels 3\nchannels 2\nduration 1.0\n"

MALFORMED = {
    "two tokens": GOOD_HEADER + "0.1 0 0\n0.5 1\n",
    "four tokens": GOOD_HEADER + "0.5 1 0 0\n",
    "short line then long line": GOOD_HEADER + "0.5 2\n1 0 0 0\n",
    "one token": GOOD_HEADER + "0.5\n",
    "bad float": GOOD_HEADER + "0.5x 1 0\n",
    "bad taxel int": GOOD_HEADER + "0.5 1.0 0\n",
    "bad channel int": GOOD_HEADER + "0.5 1 one\n",
    "nan time": GOOD_HEADER + "nan 1 0\n",
    "inf time": GOOD_HEADER + "0.1 1 0\ninf 1 0\n",
    "negative time": GOOD_HEADER + "-0.25 1 0\n",
    "time past duration": GOOD_HEADER + "1.0 0 0\n1.5 0 0\n",
    "negative taxel": GOOD_HEADER + "0.5 -1 0\n",
    "taxel too large": GOOD_HEADER + "0.5 3 0\n",
    "taxel beyond int64": GOOD_HEADER + "0.5 99999999999999999999999 0\n",
    "channel too large": GOOD_HEADER + "0.5 0 2\n",
    "negative channel": GOOD_HEADER + "0.5 0 -1\n",
    "several checks on one line": GOOD_HEADER + "nan 7 9\n",
    "event before complete header": "taxels 3\nchannels 2\n0.5 0 0\nduration 1.0\n",
    "bad token before incomplete header": "taxels 3\nx 0 0\n",
    "header key inside the body": GOOD_HEADER + "0.5 0 0\nduration 1.0 2.0\n",
    "duplicate header key": "taxels 3\ntaxels 4\nchannels 2\nduration 1.0\n",
    "bad header value": "taxels 3\nchannels two\nduration 1.0\n",
    "missing header": "taxels 3\n# no channels\n\n",
    "earlier range error, later token error": GOOD_HEADER + "0.1 0 0\n2.0 0 0\nx 0 0\n",
    "earlier token error, later range error": GOOD_HEADER + "0.1 0 0\n0.5 0\n0.5 5 0\n",
    "errors after comments and CRLF": "taxels 3\r\n# c\r\nchannels 2\r\nduration 1.0\r\n\r\n0.5 0 0 # x\r\n0.6 0 7\r\n",
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_file_raises_reference_error(tmp_path, case):
    path = tmp_path / "bad.events"
    path.write_bytes(MALFORMED[case].encode())
    kind, message = assert_same(path)
    assert kind is DataFormatError
    assert message.startswith(f"{path}:")


def test_missing_file_raises_reference_error(tmp_path):
    assert_same(tmp_path / "absent.events")


MUTATIONS = ["0.5 1", "0.5 1 0 1", "x 1 0", "0.5 y 0", "0.5 1 z", "nan 0 0", "inf 0 0",
             "-1 0 0", "0.5 -2 0", "0.5 100 0", "0.5 0 9", "9e9 0 0", "taxels 5", "duration 1",
             "channels 3 # late", "0.5 +1 00", "", "# just a comment", "1e-9 0 0"]


@pytest.mark.parametrize("seed", range(40))
def test_mutated_files_match_reference(tmp_path, seed):
    """Seeded valid files with a few lines replaced, inserted or dropped."""
    rng = np.random.default_rng(1000 + seed)
    text, newline = valid_text(seed, events=int(rng.integers(1, 40)))
    lines = text.split(newline)
    for _ in range(int(rng.integers(1, 4))):
        at = int(rng.integers(0, len(lines)))
        roll = rng.random()
        if roll < 0.4:
            lines[at] = str(rng.choice(MUTATIONS))
        elif roll < 0.8:
            lines.insert(at, str(rng.choice(MUTATIONS)))
        else:
            del lines[at]
    path = tmp_path / "mutated.events"
    path.write_bytes(newline.join(lines).encode())
    assert_same(path)
