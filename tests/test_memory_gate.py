"""Peak memory of calibration at the published scale.

numpy reports every array buffer it allocates to ``tracemalloc``, so the
traced peak over a call, less what was traced when it began, is the most
the call held at once. ``calibrate`` needs one buffer of the feature
layer's weighted input pooled over its samples and one sample's weighted
input beside it; the bound allows two.
"""
import tracemalloc

from taxelsnn import calibrate
from taxelsnn.model import CALIBRATION_SAMPLES
from tests.test_forward_gate import paper_case


def traced_peak(call, *args):
    """Bytes ``call(*args)`` held at its peak beyond what was traced before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_calibrate_peak_is_one_pooled_buffer_and_two_weighted_inputs():
    model, xs = paper_case("tagconv", seed=17, count=CALIBRATION_SAMPLES)
    t_steps, n, f = xs[0].shape[0], model.config.graph.num_nodes, model.config.feature_width
    weighted_input = t_steps * n * f * 8   # one sample's float64 (T, N, F) feature input
    peak = traced_peak(calibrate, model, xs)
    assert peak <= (CALIBRATION_SAMPLES + 2) * weighted_input, (peak, weighted_input)
