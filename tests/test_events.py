import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taxelsnn import DataFormatError, EventStream, bin_events, load_event_file, write_event_file
from taxelsnn.events import num_bins


def make_stream(times, taxels, channels, duration=1.0, n=4, c=2):
    return EventStream(np.asarray(times, dtype=float), np.asarray(taxels),
                       np.asarray(channels), duration=duration,
                       num_taxels=n, num_channels=c)


def test_empty_stream_bins_to_zeros():
    stream = make_stream([], [], [], duration=1.0)
    spikes = bin_events(stream, 0.02)
    assert spikes.shape == (50, 4, 2)
    assert spikes.sum() == 0


def test_single_event_bin_index():
    stream = make_stream([0.03], [2], [1], duration=0.1)
    spikes = bin_events(stream, 0.02)
    assert spikes.dtype == np.uint8 and not spikes.flags.writeable
    assert len(spikes) == 5
    assert spikes[1, 2, 1] == 1
    assert spikes.sum() == 1


def test_five_second_stream_has_250_bins():
    assert num_bins(5.0, 0.02) == 250
    assert num_bins(6.5, 0.02) == 325
    stream = make_stream([4.9999], [0], [0], duration=5.0)
    assert len(bin_events(stream, 0.02)) == 250


def test_boundary_timestamps_bin_correctly():
    # 0.06 / 0.02 is 2.9999999999999996 in floats; must land in bin 3
    stream = make_stream([0.06], [0], [0], duration=0.2)
    spikes = bin_events(stream, 0.02)
    assert spikes[3, 0, 0] == 1


def test_event_at_exact_duration_goes_to_last_bin():
    stream = make_stream([1.0], [0], [0], duration=1.0)
    spikes = bin_events(stream, 0.02)
    assert spikes[49, 0, 0] == 1


@pytest.mark.parametrize("duration", [0.0, 1e-12])
def test_recording_shorter_than_a_bin_gets_one_step(duration):
    assert num_bins(duration, 0.02) == 1
    spikes = bin_events(make_stream([0.0], [2], [1], duration=duration), 0.02)
    assert spikes.shape == (1, 4, 2)
    assert spikes[0, 2, 1] == 1 and spikes.sum() == 1
    assert len(bin_events(make_stream([], [], [], duration=duration), 0.02)) == 1


def test_multiple_events_clamp_to_one():
    stream = make_stream([0.001, 0.002, 0.003], [1, 1, 1], [0, 0, 0], duration=0.1)
    spikes = bin_events(stream, 0.02)
    assert spikes[0, 1, 0] == 1
    assert spikes.sum() == 1


def test_bin_width_must_be_positive():
    with pytest.raises(ValueError):
        bin_events(make_stream([], [], []), 0.0)


@given(st.integers(0, 300))
@settings(max_examples=30, deadline=None)
def test_binning_conserves_event_count(seed):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(0, 40))
    stream = make_stream(rng.uniform(0, 1, count), rng.integers(0, 4, count),
                         rng.integers(0, 2, count), duration=1.0)
    spikes = bin_events(stream, 0.05)
    assert spikes.sum() <= count
    distinct = {(int(np.floor(t / 0.05 + 1e-9)), int(n), int(ch))
                for t, n, ch in zip(stream.times, stream.taxels, stream.channels)}
    assert spikes.sum() == len(distinct)


@given(st.integers(0, 300))
@settings(max_examples=30, deadline=None)
def test_binning_idempotent_on_bin_centers(seed):
    rng = np.random.default_rng(seed)
    data = (rng.random((10, 4, 2)) < 0.3).astype(np.uint8)
    t_idx, n_idx, c_idx = np.nonzero(data)   # one event at the centre of each set cell
    rebinned = bin_events(make_stream((t_idx + 0.5) * 0.02, n_idx, c_idx, duration=10 * 0.02), 0.02)
    np.testing.assert_array_equal(rebinned, data)


def test_stream_validation():
    with pytest.raises(ValueError, match="timestamps"):
        make_stream([2.0], [0], [0], duration=1.0)
    with pytest.raises(ValueError, match="timestamps"):   # NaN sorts last and is no number > 1
        make_stream([np.nan, 0.5], [0, 0], [0, 0], duration=1.0)
    with pytest.raises(ValueError, match="taxel"):
        make_stream([0.5], [9], [0], duration=1.0)
    with pytest.raises(ValueError, match="channel"):
        make_stream([0.5], [0], [5], duration=1.0)
    with pytest.raises(ValueError, match="equal-length"):
        make_stream([0.5, 0.6], [0], [0, 0], duration=1.0)
    for duration in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="duration must be finite"):
            make_stream([], [], [], duration=duration)


def test_stream_sorts_events():
    stream = make_stream([0.9, 0.1, 0.5], [0, 1, 2], [0, 0, 0])
    np.testing.assert_allclose(stream.times, [0.1, 0.5, 0.9])
    np.testing.assert_array_equal(stream.taxels, [1, 2, 0])


# --- wire format ---

def test_wire_format_round_trip(tmp_path, rng):
    count = 25
    stream = make_stream(rng.uniform(0, 2, count), rng.integers(0, 4, count),
                         rng.integers(0, 2, count), duration=2.0)
    path = tmp_path / "sample.events"
    write_event_file(stream, path)
    back = load_event_file(path)
    np.testing.assert_array_equal(back.times, stream.times)  # repr round-trips exactly
    np.testing.assert_array_equal(back.taxels, stream.taxels)
    np.testing.assert_array_equal(back.channels, stream.channels)
    assert back.duration == stream.duration
    assert (back.num_taxels, back.num_channels) == (4, 2)


def test_wire_format_well_formed_three_events(tmp_path):
    path = tmp_path / "s.events"
    path.write_text("# demo\ntaxels 3\nchannels 1\nduration 1.0\n"
                    "0.5 0 0\n0.1 1 0\n0.9 2 0\n")
    stream = load_event_file(path)
    assert stream.num_events == 3
    np.testing.assert_allclose(stream.times, [0.1, 0.5, 0.9])  # sorted on load


def test_wire_format_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.events"
    path.write_text("taxels 3\nchannels 1\nduration 1.0\n0.5 7 0\n")
    with pytest.raises(DataFormatError, match=r"bad\.events:4.*taxel id 7"):
        load_event_file(path)

    path.write_text("taxels 3\nchannels 1\nduration 1.0\n0.5 0\n")
    with pytest.raises(DataFormatError, match=r"bad\.events:4"):
        load_event_file(path)

    path.write_text("taxels 3\nchannels 1\n0.5 0 0\n")
    with pytest.raises(DataFormatError, match="header"):
        load_event_file(path)

    good = ["taxels 3", "channels 1", "duration 1.0", "0.5 0 0"]
    for bad in ["duration inf", "duration -1", "taxels 39.7"]:
        lines = [bad if line.split()[0] == bad.split()[0] else line for line in good]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError,
                           match=rf"bad\.events:{lines.index(bad) + 1}: {bad.split()[0]}"):
            load_event_file(path)


def test_wire_format_missing_file():
    with pytest.raises(DataFormatError, match="not found"):
        load_event_file("missing.events")


@pytest.mark.parametrize("late", ["taxels 10", "duration 0.05", "channels 2 # again"])
def test_header_line_after_an_event_names_the_line(tmp_path, late):
    # a late header line would change the header under the events already read
    path = tmp_path / "late.events"
    path.write_text(f"taxels 39\nchannels 2\nduration 5.0\n0.1 38 0\n{late}\n")
    with pytest.raises(DataFormatError, match=r"late\.events:5: header line after the first event$"):
        load_event_file(path)


def test_header_key_given_twice_names_the_line(tmp_path):
    path = tmp_path / "twice.events"
    path.write_text("taxels 39\nchannels 2\n\n# comment\ntaxels 10\nduration 5.0\n0.1 3 0\n")
    with pytest.raises(DataFormatError, match=r"twice\.events:5: duplicate header line 'taxels'$"):
        load_event_file(path)
