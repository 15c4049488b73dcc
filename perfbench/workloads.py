"""The three benchmark workloads: set-up, one timed pass, output checks.

Every workload uses the paper-default dimensions: 20 channels, 60 s
scenarios at 1 kHz, 1000 ms windows at 100 ms stride, L=5, F=H=64, B=32.
Scenarios come from the ternary mix grid at a 10% step (36 mixes, two
event types). The workload seed picks the scenarios, their noise and the
train/validation/test split; the program receives only those inputs.

A workload is an object with
  trace_setup                          whether a traced run traces set-up
  setup_repeats                        set-ups per untraced run (setup_s is
                                       their median)
  setup(seed, workdir) -> state        timed as set-up
  run_pass(state, workdir) -> dict     one pass: its timed "seconds", the
                                       operations attempted and failed, and
                                       what its output checks found
  check(state, passes) -> [error]      checks over all passes, untimed
  summary(passes) -> {metric: value}   every metric the pass results give
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import tempfile
import time
import traceback
import zlib
from collections import deque
from statistics import median
from types import SimpleNamespace

import numpy as np

# Calls into the program go through module attributes, so that the tracer's
# wrappers (installed on those attributes) see them; the output checks use
# their own binding of tensor_from_bytes, which stays untraced.
from dramn import adjacency, cli, datagen, evaluation, model, training
from dramn.adjacency import tensor_from_bytes
from dramn.config import RunConfig, config_from_dict
from dramn.errors import DataError

GRID_STEP = 10
EVENTS = ("load_increase", "short_circuit")
TEST_FRACTION = 0.25
# Split seeds tried per workload seed until the test split holds both classes.
SPLIT_TRIES = 64


def _grid_specs():
    mixes = datagen.ternary_grid(100, GRID_STEP, GRID_STEP)
    return [datagen.ScenarioSpec(mix, event) for event in EVENTS for mix in mixes]


def spectral_labels():
    """Label per grid mix, as `label_scenario` gives it from the spectrum alone.

    The trajectory criteria are skipped (empty trajectory). On this grid the
    spectrum decides every label and the event type does not enter it, so
    the labels are known without synthesizing a scenario.
    """
    surrogate_cfg = RunConfig().surrogate_config()
    labels = {}
    for mix in datagen.ternary_grid(100, GRID_STEP, GRID_STEP):
        system = datagen.build_surrogate(mix, surrogate_cfg)
        stub = datagen.ScenarioRecord(
            mix=mix, event=EVENTS[0], seed=0,
            trajectory=np.empty((0, len(system.channel_names))),
            dt=surrogate_cfg.dt, event_ms=surrogate_cfg.event_ms,
            channel_names=system.channel_names,
            channel_offsets=system.output_offset,
            generator_spectrum=system.spectrum(),
        )
        labels[mix] = datagen.label_scenario(stub)
    return labels


def _test_has_both_classes(labels, train_cfg):
    """Whether split_dataset puts both classes into the test split."""
    stubs = [SimpleNamespace(scenario_id=sid) for sid in labels]
    _, _, test = training.split_dataset(stubs, train_cfg)
    return {labels[s.scenario_id] for s in test} == {0, 1}


def _split_seeds(seed):
    return range(seed * SPLIT_TRIES, (seed + 1) * SPLIT_TRIES)


# --------------------------------------------------------------------------
# pipeline: generate -> train -> evaluate -> select through dramn.cli.main


class Pipeline:
    """The command sequence a user runs, on a generated config."""

    name = "pipeline"
    # set-up is a warm-up on another config; its spans would skew the layers
    trace_setup = False
    # the first set-up pays for lazy imports; seven short ones give a
    # median over warm ones
    setup_repeats = 7
    keep_1_in = 9          # 72 grid scenarios -> 8
    epochs = 3
    commands = ("generate", "train", "evaluate", "select")
    expected = (
        "cli.generate_s", "cli.train_s", "cli.evaluate_s", "cli.select_s",
        "cli.self_ms", "datagen.synthesize_ms", "datagen.scenarios",
        "datagen.window_self_ms", "dmd.dmd_ms", "dmd.svd_ms", "dmd.eig_ms",
        "dmd.windows", "adjacency.build_ms", "adjacency.self_ms",
        "store.save_ms", "store.load_ms", "store.scenario_loads",
        "store.cache_hits", "store.cache_misses", "store.cache_hit_ratio",
        "store.bytes_written", "store.bytes_read", "model.forward_batch_ms",
        "model.forward_calls", "training.backward_ms", "training.adamw_ms",
        "training.stack_inputs_ms", "training.batches", "training.epochs",
        "evaluation.predict_ms", "evaluation.predict_samples",
        "selection.build_report_ms",
    )

    def config(self, seed):
        """The first config, over the seed's candidates, whose test split
        holds both classes (so both AUROCs exist)."""
        mix_labels = spectral_labels()
        for cand in _split_seeds(seed):
            doc = {
                "seed": cand,
                "data": {"ternary_step": GRID_STEP, "min_share": GRID_STEP,
                         "keep_1_in": self.keep_1_in, "events": list(EVENTS)},
                "train": {"epochs": self.epochs,
                          "early_stop_patience": self.epochs,
                          "test_fraction": TEST_FRACTION},
            }
            cfg = config_from_dict(doc)
            specs = datagen.subsample_scenarios(_grid_specs(), self.keep_1_in, seed=cand)
            labels = {s.scenario_id: mix_labels[s.mix] for s in specs}
            if _test_has_both_classes(labels, cfg.train_config()):
                return doc
        raise RuntimeError(f"no split seed for workload seed {seed} "
                           "puts both classes into the test split")

    def setup(self, seed, workdir):
        """The config, after a warm-up run of every command on a tiny config,
        so that lazy imports and first calls are not charged to a pass."""
        warm = _run_commands(WARMUP_CONFIG, workdir, select_k=2)
        shutil.rmtree(warm["run_dir"])
        if warm["failed"]:
            raise RuntimeError("warm-up run failed: " + "; ".join(warm["errors"]))
        return {"doc": self.config(seed)}

    def run_pass(self, state, workdir):
        out = _run_commands(state["doc"], workdir)
        if not out["failed"]:
            out["errors"] += _check_run_dir(out["run_dir"], out)
        shutil.rmtree(out["run_dir"])
        return out

    def check(self, state, passes):
        aurocs = {(r.get("test_auroc"), r.get("generalization_auroc")) for r in passes}
        if len(aurocs) > 1:
            return [f"passes on the same inputs disagree: {sorted(aurocs)}"]
        return []

    def summary(self, passes):
        return {
            "pipeline_s": median([r["seconds"] for r in passes]),
            "test_auroc": passes[-1].get("test_auroc"),
            "generalization_auroc": passes[-1].get("generalization_auroc"),
        }


# Twelve short 4-channel scenarios and a tiny model: once the modules are
# imported, the whole command sequence runs in under a second.
WARMUP_CONFIG = {
    "seed": 5,
    "data": {"ternary_step": 20, "min_share": 20, "keep_1_in": 1, "n_units": 2,
             "include_pq": False, "include_line_flows": False,
             "duration_ms": 34000},
    "window": {"width_ms": 200, "stride_ms": 100, "l_seq": 2},
    "model": {"embed_dim": 4, "hidden_dim": 4},
    "train": {"epochs": 1, "early_stop_patience": 1, "val_fraction": 0.15,
              "test_fraction": 0.25},
}


def _run_commands(doc, workdir, select_k=None):
    """Run generate, train, evaluate and select on ``doc`` in a fresh
    directory; only the commands are timed."""
    run_dir = tempfile.mkdtemp(prefix="pipeline-", dir=workdir)
    doc = dict(doc, paths={
        "scenario_store": os.path.join(run_dir, "scenarios"),
        "adjacency_cache": os.path.join(run_dir, "cache"),
        "checkpoints": os.path.join(run_dir, "checkpoints"),
        "reports": os.path.join(run_dir, "reports"),
    })
    cfg_path = os.path.join(run_dir, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    out = {"run_dir": run_dir, "attempted": 0, "failed": 0, "errors": []}
    start = time.perf_counter()
    for command in Pipeline.commands:
        out["attempted"] += 1
        argv = [command, "--config", cfg_path, "--workers", "1"]
        if command == "select" and select_k is not None:
            argv += ["--k", str(select_k)]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception:  # noqa: BLE001 - reported as a failed command
            code = traceback.format_exc()
        if code != 0:
            out["failed"] += 1
            out["errors"].append(f"dramn {command} returned {code}")
    out["seconds"] = time.perf_counter() - start
    return out


def _check_run_dir(run_dir, out):
    """The reports hold both AUROCs, and every cached tensor passes its CRC
    and AdjacencyTensor.validate(). Stores the AUROCs into ``out``."""
    errors = []
    with open(os.path.join(run_dir, "reports", "metrics.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    for split in ("test", "generalization"):
        value = report.get(split, {}).get("auroc")
        if not isinstance(value, float) or not 0.0 <= value <= 1.0:
            errors.append(f"metrics.json has no {split} AUROC")
        out[f"{split}_auroc"] = value
    if not os.path.exists(os.path.join(run_dir, "reports", "node_strength.json")):
        errors.append("select wrote no node_strength.json")
    cache_dir = os.path.join(run_dir, "cache")
    names = sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else []
    if not names:
        errors.append("the adjacency cache is empty")
    for name in names:
        with open(os.path.join(cache_dir, name), "rb") as fh:
            head, payload = fh.read().split(b"\n", 1)
        header = json.loads(head)
        if zlib.crc32(payload) != header["crc32"]:
            errors.append(f"cache file {name}: checksum mismatch")
            continue
        offset = 0
        for _ in range(header["count"]):
            tensor, offset = tensor_from_bytes(payload, offset)
            try:
                tensor.validate()
            except DataError as exc:
                errors.append(f"cache file {name}, window {tensor.source_window}: {exc}")
    return errors


# --------------------------------------------------------------------------
# shared set-up for the in-process workloads


def _build_dataset(seed, n_scenarios, epochs):
    """Synthesize and window a class-stratified scenario set; pick a split.

    A third of the scenarios are unstable, the rest stable, drawn from the
    grid by the workload seed. The split seed is the first candidate whose
    test split holds both classes.
    """
    surrogate_cfg = RunConfig().surrogate_config()
    specs = _grid_specs()
    mix_labels = spectral_labels()
    labels = [mix_labels[s.mix] for s in specs]
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xB3]))
    n_unstable = n_scenarios // 3
    unstable = [s for s, y in zip(specs, labels) if y == 1]
    stable = [s for s, y in zip(specs, labels) if y == 0]
    unstable_pick = rng.permutation(len(unstable))[:n_unstable]
    stable_pick = rng.permutation(len(stable))[:n_scenarios - n_unstable]
    chosen = [unstable[i] for i in unstable_pick] + [stable[i] for i in stable_pick]
    proto = datagen.WindowProtocol()
    records, samples = {}, []
    for spec in chosen:
        record = datagen.synthesize_scenario(
            spec.mix, spec.event, datagen.scenario_seed(seed, spec), surrogate_cfg)
        windowed = datagen.window_dataset(record, proto)
        if windowed.skipped_diverged:
            continue
        records[record.scenario_id] = record
        samples.extend(windowed.training)
    record_labels = {sid: r.label for sid, r in records.items()}
    for cand in _split_seeds(seed):
        cfg = training.TrainConfig(epochs=epochs, early_stop_patience=epochs,
                                   test_fraction=TEST_FRACTION, seed=cand)
        if _test_has_both_classes(record_labels, cfg):
            return records, samples, cfg
    raise RuntimeError(f"no split seed for workload seed {seed} "
                       "puts both classes into the test split")


def _finite_params(params):
    return all(np.isfinite(a).all() for a in params.tree().values())


# --------------------------------------------------------------------------
# train_fit: training.train for fixed epochs, then evaluation.evaluate_model


class TrainFit:
    """Model and training do all the timed work; no DMD and no store."""

    name = "train_fit"
    trace_setup = True
    setup_repeats = 3
    n_scenarios = 12
    epochs = 10
    expected = (
        "datagen.synthesize_ms", "datagen.scenarios", "datagen.window_self_ms",
        "dmd.dmd_ms", "dmd.svd_ms", "dmd.eig_ms", "dmd.windows",
        "adjacency.build_ms", "adjacency.self_ms", "model.forward_batch_ms",
        "model.forward_calls", "training.backward_ms", "training.adamw_ms",
        "training.stack_inputs_ms", "training.batches", "training.epochs",
        "evaluation.predict_ms", "evaluation.predict_samples",
    )

    def setup(self, seed, workdir):
        _, samples, cfg = _build_dataset(seed, self.n_scenarios, self.epochs)
        return {"samples": samples, "cfg": cfg}

    def run_pass(self, state, workdir):
        cfg = state["cfg"]
        start = time.perf_counter()
        result = training.train(state["samples"], cfg)
        train_s = time.perf_counter() - start
        report = evaluation.evaluate_model(result.params, result.test_samples,
                                           result.standardizer)
        seconds = time.perf_counter() - start
        n_train = len(result.train_samples)
        batches = math.ceil(n_train / cfg.batch_size) * cfg.epochs
        return {
            "seconds": seconds, "attempted": batches, "failed": 0, "errors": [],
            "train_samples_per_s": n_train * len(result.history) / train_s,
            "test_auroc": report.auroc, "epochs_run": len(result.history),
            "finite": _finite_params(result.params),
        }

    def check(self, state, passes):
        errors = []
        for res in passes:
            if res["epochs_run"] != state["cfg"].epochs:
                errors.append(f"trained {res['epochs_run']} epochs, "
                              f"configured {state['cfg'].epochs}")
            if not res["finite"]:
                errors.append("training ended with non-finite parameters")
            if res["test_auroc"] is None:
                errors.append("evaluate_model gave no test AUROC")
        if len({r["test_auroc"] for r in passes}) > 1:
            errors.append("passes on the same inputs disagree on test AUROC")
        return errors

    def summary(self, passes):
        return {
            "pass_s": median([r["seconds"] for r in passes]),
            "test_auroc": passes[-1]["test_auroc"],
            "train_samples_per_s": median([r["train_samples_per_s"] for r in passes]),
        }


# --------------------------------------------------------------------------
# online_forecast: closed-loop replay of held-out scenarios, one stride a step


class OnlineForecast:
    """One caller; each step builds the newest window's tensor and runs the
    model at B=1 over the last L tensors. A pass replays one held-out
    stream; passes take the streams in turn."""

    name = "online_forecast"
    trace_setup = True
    setup_repeats = 3
    n_scenarios = 12
    epochs = 3
    expected = (
        "datagen.synthesize_ms", "datagen.scenarios", "datagen.window_self_ms",
        "dmd.dmd_ms", "dmd.svd_ms", "dmd.eig_ms", "dmd.windows",
        "adjacency.build_ms", "adjacency.self_ms", "model.forward_b1_ms",
        "model.forward_batch_ms", "model.forward_calls", "training.backward_ms",
        "training.adamw_ms", "training.stack_inputs_ms", "training.batches",
        "training.epochs",
    )

    def setup(self, seed, workdir):
        records, samples, cfg = _build_dataset(seed, self.n_scenarios, self.epochs)
        result = training.train(samples, cfg)
        held_out = sorted({s.scenario_id for s in result.test_samples})
        return {"params": result.params, "std": result.standardizer,
                "streams": [records[sid] for sid in held_out],
                "seq": datagen.WindowProtocol().sequence, "next": 0, "inputs": {}}

    def run_pass(self, state, workdir):
        seq, params, std = state["seq"], state["params"], state["std"]
        stream = state["next"]
        state["next"] = (stream + 1) % len(state["streams"])
        record = state["streams"][stream]
        clock = time.perf_counter
        probs, latency_ms, inputs = [], [], []
        history = deque(maxlen=seq.l_seq)
        start = clock()
        for end in range(seq.window_ms, record.duration_ms + 1, seq.stride_ms):
            t0 = clock()
            window = record.window_at(end, seq.window_ms)
            tensor = adjacency.build_adjacency(seq.adjacency_input(window), seq.dmd)
            history.append((window, window.data.mean(axis=0), tensor))
            if len(history) < seq.l_seq:
                continue
            means = std.transform(np.stack([h[1] for h in history]))[None]
            layers = np.stack([h[2].layers for h in history])[None]
            p = model.forward_trace_batch(means, layers, params).p[0]
            latency_ms.append((clock() - t0) * 1e3)
            probs.append(p)
            inputs.append(tuple(history))
        seconds = clock() - start
        state["inputs"][stream] = inputs
        return {"seconds": seconds, "attempted": len(probs), "failed": 0,
                "errors": [], "stream": stream, "probs": np.array(probs),
                "label": record.label, "latency_ms": latency_ms}

    def check(self, state, passes):
        """Checks the last pass of each stream against predict_proba, and
        every pass against the last one of its stream."""
        errors = []
        last = {res["stream"]: res for res in passes}
        for stream, res in sorted(last.items()):
            errors += self._check_stream(state, state["inputs"][stream], res)
        for res in passes:
            if not np.array_equal(res["probs"], last[res["stream"]]["probs"]):
                errors.append(f"passes over stream {res['stream']} disagree")
        if len({record.label for record in state["streams"]}) < 2:
            errors.append("the held-out streams hold only one class")
        return errors

    @staticmethod
    def _check_stream(state, inputs, res):
        errors = []
        probs = res["probs"]
        if not (np.isfinite(probs).all() and (probs >= 0).all() and (probs <= 1).all()):
            errors.append("a forecast probability lies outside [0, 1]")
        tensors = {id(h[2]): h[2] for hist in inputs for h in hist}
        for tensor in tensors.values():
            try:
                tensor.validate()
            except DataError as exc:
                errors.append(f"streamed tensor at {tensor.source_window} ms: {exc}")
        samples = [adjacency.SequenceSample(windows=[h[0] for h in hist],
                                            tensors=[h[2] for h in hist],
                                            label=int(res["label"]))
                   for hist in inputs]
        batch = evaluation.predict_proba(state["params"], samples, state["std"])
        diff = float(np.abs(batch - probs).max())
        res["predict_proba_max_diff"] = diff
        if diff > 1e-12:
            errors.append(f"streamed forecasts differ from predict_proba by {diff:.3e}")
        return errors

    def summary(self, passes):
        latency = np.concatenate([r["latency_ms"] for r in passes])
        forecasts = sum(r["attempted"] for r in passes)
        last = {res["stream"]: res for res in passes}
        probs = np.concatenate([r["probs"] for r in last.values()])
        labels = np.concatenate([np.full(len(r["probs"]), r["label"]) for r in last.values()])
        return {
            "pass_s": median([r["seconds"] for r in passes]),
            "test_auroc": (evaluation.auroc(probs, labels)
                           if len(set(labels.tolist())) == 2 else None),
            "forecasts_per_s": forecasts / sum(r["seconds"] for r in passes),
            "forecast_p50_ms": float(np.percentile(latency, 50)),
            "forecast_p99_ms": float(np.percentile(latency, 99)),
            "forecasts": forecasts,
            "predict_proba_max_diff": max(r.get("predict_proba_max_diff", 0.0)
                                          for r in last.values()),
        }


WORKLOADS = {w.name: w for w in (Pipeline(), TrainFit(), OnlineForecast())}
