"""What the benchmark in ``perfbench/`` relies on in ``dramn``.

The benchmark's tracer wraps every public module-level function of each
layer module and derives its per-layer metrics from the spans of the
functions named in ``perfbench/spans.py``; its workloads call into the
program positionally. A renamed, deleted or privatized function, or a
reordered leading parameter, would not fail the benchmark: the metric would
silently read 0 or the workload would pass the wrong argument. These tests
fail instead.
"""

import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

from dramn import adjacency, cli, config, datagen, evaluation, model, store, training

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# the spans perfbench/spans.py turns into per-layer metrics
TRACED = (
    "cli.main", "cli.cmd_generate", "cli.cmd_train", "cli.cmd_evaluate",
    "cli.cmd_select", "datagen.synthesize_scenario", "datagen.window_dataset",
    "dmd.dmd", "dmd.truncated_svd", "dmd.eig_small", "adjacency.build_adjacency",
    "store.save_scenario", "store.load_scenario", "model.forward_trace_batch",
    "training.backward_batch", "training.adamw_step", "training.stack_inputs",
    "training.train", "evaluation.predict_proba", "selection.build_report",
)


def _read_names():
    """Every "layer.function" span name that spans.py reads a metric from."""
    text = SPANS.read_text(encoding="utf-8")
    quoted = r'"([a-z]+\.[a-z_]+)"'
    return (set(re.findall(r"(?:durs|owns|sizes)\[" + quoted + r"\]", text))
            | set(re.findall(r"name == " + quoted, text)))


def test_the_span_reader_reads_the_listed_names():
    assert set(TRACED) <= _read_names()


@pytest.mark.parametrize("name", sorted(_read_names()))
def test_traced_name_is_a_public_module_level_function(name):
    layer, attr = name.split(".")
    module = importlib.import_module(f"dramn.{layer}")
    fn = getattr(module, attr, None)
    # the tracer wraps exactly these: public, and defined in their module
    assert inspect.isfunction(fn), name
    assert not attr.startswith("_") and fn.__module__ == module.__name__, name


# leading parameters, in the order perfbench passes them positionally
LEADING = [
    (cli.main, ("argv",)),
    (model.forward_trace_batch, ("means", "layers", "params")),
    (evaluation.predict_proba, ("params", "samples", "standardizer")),
    (evaluation.evaluate_model, ("params", "samples", "standardizer")),
    (evaluation.auroc, ("probs", "labels")),
    (training.train, ("dataset", "cfg")),
    (training.split_dataset, ("dataset", "cfg")),
    (adjacency.build_adjacency, ("window", "cfg")),
    (adjacency.tensor_from_bytes, ("buf", "offset")),
    (adjacency.SequenceConfig.adjacency_input, ("self", "window")),
    (datagen.ScenarioRecord.window_at, ("self", "end_ms", "width_ms")),
    (datagen.synthesize_scenario, ("mix", "event", "seed", "cfg")),
    (datagen.window_dataset, ("record", "proto")),
    (datagen.ternary_grid, ("total", "min_share", "step")),
    (datagen.subsample_scenarios, ("items", "keep_1_in")),
    (datagen.build_surrogate, ("mix", "cfg")),
    (datagen.label_scenario, ("record",)),
    (datagen.scenario_seed, ("master_seed", "spec")),
    (config.config_from_dict, ("obj",)),
    # the tracer sizes its byte counters from these arguments
    (store.load_scenario, ("path",)),
    (store.read_manifest, ("directory",)),
    (store.write_table, ("path",)),
    (store.write_json_report, ("path",)),
    (store.ScenarioTensorCache, ("directory", "scenario_id", "token")),
]


@pytest.mark.parametrize("fn,names", LEADING, ids=[fn.__qualname__ for fn, _ in LEADING])
def test_leading_positional_parameters(fn, names):
    params = list(inspect.signature(fn).parameters.values())[:len(names)]
    assert tuple(p.name for p in params) == names
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)


# keyword arguments and attributes perfbench uses
KEYWORDS = [
    (adjacency.SequenceSample, {"windows", "tensors", "label"}),
    (datagen.ScenarioRecord, {"mix", "event", "seed", "trajectory", "dt", "event_ms",
                              "channel_names", "channel_offsets",
                              "generator_spectrum"}),
    (training.TrainConfig, {"epochs", "early_stop_patience", "test_fraction", "seed"}),
    (datagen.subsample_scenarios, {"seed"}),
]


@pytest.mark.parametrize("fn,names", KEYWORDS, ids=[fn.__qualname__ for fn, _ in KEYWORDS])
def test_keyword_parameters(fn, names):
    assert names <= set(inspect.signature(fn).parameters)


def test_train_result_fields():
    fields = {f.name for f in dataclasses.fields(training.TrainResult)}
    assert {"params", "history", "standardizer", "train_samples",
            "test_samples"} <= fields


def test_the_cache_counters_the_tracer_reads(tmp_path):
    cache = store.ScenarioTensorCache(tmp_path, "s", "t")
    for attr in ("hits", "misses", "_dirty", "path", "entries"):
        assert hasattr(cache, attr), attr
    assert callable(store.ScenarioTensorCache.flush)
