"""Asynchronous tactile events and their discretization into spike tensors.

The on-disk event format is line-oriented text::

    # comment
    taxels 39
    channels 2
    duration 5.0
    0.01312 17 0
    ...

Header lines declare the taxel/channel counts and the recording duration
in seconds. They come first, each once; every line after the first event
is one event ``timestamp taxel_id channel``. Comments (``#``) and blank
lines may stand anywhere. A malformed file raises ``DataFormatError``
naming ``file:line`` of the earliest bad line. Parsing is bit-exact:
floats round-trip through repr.

The loader reads the header lines one by one, then splits the whole event
body at once and converts it column by column: 550-670 k events/s on a
2-core Intel Xeon KVM guest, against about 300 k/s for the per-line
parser it replaced. Only when a check fails does it walk the lines to
name the earliest bad one.

Binning maps events onto a fixed grid of ``ceil(duration / bin_width)``
timesteps, at least one; a cell is 1 iff at least one event falls in its
window (multiple events clamp to a single spike). Events stamped exactly
at the duration land in the last bin, also in a recording of 0 s.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError, content_lines, read_header, read_lines, write_lines

# forgives float round-off when a timestamp sits on a bin boundary
_BIN_EPS = 1e-9

# numeric header lines of the event and manifest formats; every value is finite
# and positive, except that a recording may last 0 s
_HEADER_TYPES = {"taxels": int, "channels": int, "duration": float, "bin_width": float}

# canonical spellings of small ids, parsed by lookup; any other spelling goes through int()
_IDS = {str(i): i for i in range(1024)}
# a blank line or one of three tokens
_EVENT_LINE = re.compile(r"\s*(?:\S+\s+\S+\s+\S+\s*)?")


def parse_header_line(parts: list[str]):
    """Value of a numeric header line split into words; ValueError says what is wrong."""
    key, kind = parts[0], _HEADER_TYPES[parts[0]]
    try:
        (value,) = parts[1:]
        parsed = kind(value)
    except ValueError:
        parsed = math.nan
    if not (0 < parsed < math.inf or (parsed == 0 and key == "duration")):
        raise ValueError(f"{key} needs one finite {kind.__name__} "
                         f"{'>= 0' if key == 'duration' else '> 0'}; got {' '.join(parts)!r}")
    return parsed


# the header keys of an event file
_EVENT_PARSERS = dict.fromkeys(("taxels", "channels", "duration"), parse_header_line)


@dataclass(frozen=True)
class EventStream:
    """Timestamped (taxel, channel) events for one recorded sample."""

    times: np.ndarray      # seconds, sorted nondecreasing
    taxels: np.ndarray
    channels: np.ndarray
    duration: float
    num_taxels: int
    num_channels: int

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        taxels = np.asarray(self.taxels, dtype=np.int64)
        channels = np.asarray(self.channels, dtype=np.int64)
        if not (times.shape == taxels.shape == channels.shape) or times.ndim != 1:
            raise ValueError("times/taxels/channels must be equal-length 1-D arrays")
        if self.duration < 0 or not math.isfinite(self.duration):
            raise ValueError("duration must be finite and >= 0")
        order = np.argsort(times, kind="stable")
        times, taxels, channels = times[order], taxels[order], channels[order]
        if times.size:
            if not (times[0] >= 0 and times[-1] <= self.duration):   # NaN sorts last and fails
                raise ValueError("event timestamps must lie in [0, duration]")
            if taxels.min() < 0 or taxels.max() >= self.num_taxels:
                raise ValueError(f"taxel ids must lie in 0..{self.num_taxels - 1}")
            if channels.min() < 0 or channels.max() >= self.num_channels:
                raise ValueError(f"channel ids must lie in 0..{self.num_channels - 1}")
        for arr in (times, taxels, channels):
            arr.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "taxels", taxels)
        object.__setattr__(self, "channels", channels)

    @property
    def num_events(self) -> int:
        return self.times.size


def num_bins(duration: float, bin_width: float) -> int:
    return max(1, math.ceil(duration / bin_width - _BIN_EPS))


def bin_events(stream: EventStream, bin_width: float) -> np.ndarray:
    """A stream's spikes: a read-only uint8 (T, N, C) array of 0 and 1.

    T is num_bins(duration, bin_width); a cell is 1 iff an event falls in it.
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    t_steps = num_bins(stream.duration, bin_width)
    data = np.zeros((t_steps, stream.num_taxels, stream.num_channels), dtype=np.uint8)
    if stream.num_events:
        idx = np.floor(stream.times / bin_width + _BIN_EPS).astype(np.int64)
        idx = np.minimum(idx, t_steps - 1)  # events at exactly `duration`
        data[idx, stream.taxels, stream.channels] = 1
    data.setflags(write=False)
    return data


def load_event_file(path) -> EventStream:
    """Parse the event wire format; errors carry the offending line number."""
    path = Path(path)
    lines = read_lines(path)
    header, start = read_header(path, lines, _EVENT_PARSERS)
    events = lines[start:]
    body = "\n".join(events)
    if "#" in body:
        events = [line.split("#", 1)[0] for line in events]
        body = "\n".join(events)
    tokens = body.split()
    count = len(tokens) // 3
    missing = _EVENT_PARSERS.keys() - header.keys()
    try:
        if not all(map(_EVENT_LINE.fullmatch, events)) or (count and missing):
            raise ValueError("an event line fails a check")
        times = np.fromiter(map(float, tokens[0::3]), np.float64, count)
        taxels, channels = _ids(tokens[1::3]), _ids(tokens[2::3])
        if not missing:   # EventStream checks the id and time ranges
            return EventStream(times, taxels, channels, duration=header["duration"],
                               num_taxels=header["taxels"], num_channels=header["channels"])
    except (ValueError, OverflowError):  # a bad line or token, an id beyond int64, or a range
        raise _first_bad_event(path, lines, start, header) from None
    raise DataFormatError(f"{path}: missing header line(s): {', '.join(sorted(missing))}")


def _ids(tokens: list[str]) -> np.ndarray:
    """Integer ids; ValueError or OverflowError if one is not an int64."""
    try:
        return np.fromiter(map(_IDS.__getitem__, tokens), np.int64, len(tokens))
    except KeyError:
        return np.fromiter(map(int, tokens), np.int64, len(tokens))


def _first_bad_event(path: Path, lines: list[str], start: int, header: dict) -> DataFormatError:
    """The error of the earliest event line (from index start) that fails a check."""
    for lineno, raw, parts in content_lines(lines, start):
        if parts[0] in _EVENT_PARSERS:
            return DataFormatError(f"{path}:{lineno}: header line after the first event")
        if len(parts) != 3:
            return DataFormatError(
                f"{path}:{lineno}: expected 'timestamp taxel channel', got {raw!r}")
        try:
            t, n, c = float(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as exc:
            return DataFormatError(f"{path}:{lineno}: {exc}")
        if header.keys() != _EVENT_PARSERS.keys():
            return DataFormatError(f"{path}:{lineno}: event before complete header")
        if not 0 <= n < header["taxels"]:
            return DataFormatError(
                f"{path}:{lineno}: taxel id {n} outside 0..{header['taxels'] - 1}")
        if not 0 <= c < header["channels"]:
            return DataFormatError(
                f"{path}:{lineno}: channel {c} outside 0..{header['channels'] - 1}")
        if not 0 <= t <= header["duration"]:
            return DataFormatError(f"{path}:{lineno}: timestamp {t} outside [0, duration]")
    raise AssertionError("every event line passes its checks")


def write_event_file(stream: EventStream, path) -> None:
    """Serialize a stream; reading it back reproduces the stream exactly."""
    lines = [
        f"taxels {stream.num_taxels}",
        f"channels {stream.num_channels}",
        f"duration {stream.duration!r}",
    ]
    for t, n, c in zip(stream.times, stream.taxels, stream.channels):
        lines.append(f"{float(t)!r} {int(n)} {int(c)}")
    write_lines(path, lines)
