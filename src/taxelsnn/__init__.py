"""Spiking graph neural networks for event-based tactile object recognition."""

from .errors import DataFormatError
from .layout import TaxelLayout, radial_layout, load_layout, save_layout, load_edge_list
from .graphs import (GraphSpec, TactileGraph, build_manual, build_knn, build_mst,
                     build_graph, normalize_adjacency, adjacency_powers)
from .lif import LifConfig, surrogate_grad, relaxed_spike
from .model import (NetworkConfig, Model, init_model, calibrate, model_forward, lif_scan,
                    vote, voting_matrix, save_model, load_model)
from .training import (TrainConfig, Metrics, voting_loss, backward, adam_step, AdamState,
                       stratified_split, train, evaluate, confusion_matrix, run_round,
                       iter_rounds, run_rounds, summarize_rounds, one_hot)
from .events import EventStream, bin_events, load_event_file, write_event_file
from .datasets import DatasetManifest, load_manifest, write_manifest, load_samples, generate_synthetic

__version__ = "0.1.0"
