"""Peak memory of calibration and of a training epoch at the published scale.

numpy reports every array buffer it allocates to ``tracemalloc``, so the
traced peak over a call, less what was traced when it began, is the most
the call held at once. ``calibrate`` needs one buffer of the feature
layer's weighted input pooled over its samples and one sample's weighted
input beside it; the bound allows two. A ``train`` epoch needs one trace
with its step buffers, one set of gradients and Adam's state; the bound
allows one feature-layer array more for what a step forms and drops.
"""
import tracemalloc

from taxelsnn import TrainConfig, calibrate, train
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


def test_train_epoch_peak_is_one_trace_its_step_buffers_gradients_and_adam():
    model, xs = paper_case("tagconv", seed=17, count=8)
    cfg = model.config
    t_steps, n, c = xs[0].shape[0], cfg.graph.num_nodes, cfg.num_channels
    widths = [n * cfg.feature_width, *cfg.fc_sizes]   # neurons per layer
    column = t_steps * 8                               # bytes of one float64 neuron's window
    # per layer: currents, membranes, spikes and reset factor in float64, the spike mask in
    # bool; per fc layer, the gradient on its input; the sample and its K+1 hops
    trace = (4 + 1 / 8) * sum(widths) * column + sum(widths[:-1]) * column
    trace += (1 + cfg.tagconv_hops + 1) * n * c * column
    params = sum(p.nbytes for p in model.params.values())
    # the gradients, and Adam's two moments and two work arrays
    bound = trace + 5 * params + widths[0] * column
    dataset = [(x, i // 2) for i, x in enumerate(xs)]   # 4 classes of 2: 4 steps, 4 scored
    peak = traced_peak(train, model, dataset, TrainConfig(epochs=1, rounds=1, seed=17))
    assert peak <= bound, (peak, bound)
