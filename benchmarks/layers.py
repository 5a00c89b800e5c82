"""Per-layer metrics: which functions of each module are wrapped, and how
their spans and counters become the per-layer numbers.

The layers are the modules of ``remtrack``. ``cli`` only forwards to them
and gets no metrics. Every function is wrapped at the name its caller looks
it up under, so ``tracker.iou`` times the tracker's association and
``metrics.iou`` the scoring, although both are ``geometry.iou``.

Every ``_s`` metric is self time: the time in calls to the function minus
the time of the wrapped calls they make. Times and counts are per unit of
work: what one set-up plus one round of the workload spends. A layer that a
workload does not use reads 0 there.
"""

from __future__ import annotations

from remtrack import io, metrics, rem, simulator, st_graph, tracker

METRICS: list[tuple[str, str]] = [
    ("simulator.generate_s", "s"),
    ("simulator.detect_s", "s"),
    ("st_graph.build_graph_s", "s"),
    ("st_graph.update_graph_s", "s"),
    ("st_graph.nodes", "count"),
    ("st_graph.edges", "count"),
    ("rem.rem_step_s", "s"),
    ("rem.rem_step_calls", "count"),
    ("rem.message_calls", "count"),
    ("rem.attention_calls", "count"),
    ("rem.importance_s", "s"),
    ("rem.importance_records", "count"),
    ("autodiff.backward_s", "s"),
    ("autodiff.adam_step_s", "s"),
    ("autodiff.tape_nodes", "count"),
    ("tracker.prepare_window_s", "s"),
    ("tracker.window_loss_s", "s"),
    ("tracker.heads_s", "s"),
    ("tracker.track_sequence_s", "s"),
    ("tracker.assoc_iou_calls", "count"),
    ("tracker.assoc_iou_s", "s"),
    ("tracker.live_tracks", "count"),
    ("tracker.tracks_born", "count"),
    ("tracker.matched_ratio", "ratio"),
    ("geometry.giou_loss_s", "s"),
    ("geometry.giou_loss_calls", "count"),
    ("metrics.iou_calls", "count"),
    ("metrics.iou_s", "s"),
    ("metrics.match_frame_calls", "count"),
    ("metrics.match_frame_s", "s"),
    ("metrics.assignment_s", "s"),
    ("metrics.clear_mot_s", "s"),
    ("metrics.hota_s", "s"),
    ("metrics.idf1_s", "s"),
    ("metrics.mt_ml_s", "s"),
    ("io.write_results_csv_s", "s"),
    ("io.parse_mot_csv_s", "s"),
    ("trace.overhead_s", "s"),
]


def _graph_size(args, kwargs, graph):
    return {
        "st_graph.nodes": sum(len(f.ids) for f in graph.frames),
        "st_graph.edges": sum(len(f.edge_distance) for f in graph.frames),
    }


def _appended_frame_size(args, kwargs, graph):
    frame = graph.frames[-1]
    return {"st_graph.nodes": len(frame.ids), "st_graph.edges": len(frame.edge_distance)}


def _record_count(args, kwargs, records):
    return {"rem.importance_records": len(records)}


def _tape_nodes(args, kwargs, result):
    # The tape is still linked after backward; count what backward visited.
    loss = args[0]
    seen = {id(loss)}
    todo = [loss]
    while todo:
        node = todo.pop()
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return {"autodiff.tape_nodes": len(seen)}


def _tracking_counts(args, kwargs, tracks):
    detections = args[2]  # track_sequence(trk, rem_params, detections_per_frame, ...)
    return {
        "tracker.live_track_frames": sum(len(frame) for frame in tracks),
        "tracker.frames": len(tracks),
        "tracker.tracks_born": len({tid for frame in tracks for tid, _ in frame}),
        "tracker.detections": sum(len(frame) for frame in detections),
    }


def _matched(args, kwargs, matches):
    return {"tracker.matched": len(matches)}


def install(tracer) -> None:
    wrap = tracer.install
    wrap(simulator, "generate", "simulator.generate")
    wrap(simulator, "detect_sequence", "simulator.detect")
    wrap(tracker, "detect", "simulator.detect", keep=False)
    wrap(st_graph, "build_graph", "st_graph.build_graph", count=_graph_size)
    wrap(tracker, "build_graph", "st_graph.build_graph", count=_graph_size)
    wrap(tracker, "update_graph", "st_graph.update_graph", count=_appended_frame_size)
    wrap(tracker, "rem_step", "rem.rem_step")
    wrap(rem, "message", "rem.message", timed=False)
    wrap(rem, "attention_coefficients", "rem.attention", timed=False)
    wrap(rem, "relation_importance_records", "rem.importance", count=_record_count)
    wrap(tracker, "backward", "autodiff.backward", count=_tape_nodes)
    wrap(tracker, "adam_step", "autodiff.adam_step")
    wrap(tracker, "prepare_window", "tracker.prepare_window")
    wrap(tracker, "window_loss", "tracker.window_loss")
    for head in ("regress_baseline", "regress_relation_aware", "regress_from_relations"):
        wrap(tracker, head, "tracker.heads", keep=False)
    wrap(tracker, "track_sequence", "tracker.track_sequence", count=_tracking_counts)
    wrap(tracker, "_greedy_associate", "tracker.associate", timed=False, count=_matched)
    wrap(tracker, "iou", "tracker.assoc_iou", keep=False)
    wrap(tracker, "giou_loss", "geometry.giou_loss", keep=False)
    wrap(metrics, "evaluate", "metrics.evaluate")
    for name in ("clear_mot", "hota", "idf1", "mt_ml", "match_frame"):
        wrap(metrics, name, f"metrics.{name}")
    wrap(metrics, "linear_sum_assignment", "metrics.assignment")
    wrap(metrics, "iou", "metrics.iou", keep=False)
    wrap(io, "write_results_csv", "io.write_results_csv")
    wrap(io, "parse_mot_csv", "io.parse_mot_csv")


def values(setup_tracer, round_tracer, n_setups: int, n_rounds: int, overhead_s: float) -> dict[str, float]:
    """Per-layer numbers for one set-up plus one round."""

    def per_unit(table: str, key: str) -> float:
        return (
            getattr(setup_tracer, table).get(key, 0) / n_setups
            + getattr(round_tracer, table).get(key, 0) / n_rounds
        )

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    counts = round_tracer.counts
    out: dict[str, float] = {}
    for name, _ in METRICS:
        if name.endswith("_s"):
            out[name] = per_unit("self_time", name[:-2])
        elif name.endswith("_calls"):
            out[name] = per_unit("calls", name[: -len("_calls")])
        else:
            out[name] = per_unit("counts", name)
    out["autodiff.tape_nodes"] = ratio(counts.get("autodiff.tape_nodes", 0), round_tracer.calls.get("autodiff.backward", 0))
    out["tracker.live_tracks"] = ratio(counts.get("tracker.live_track_frames", 0), counts.get("tracker.frames", 0))
    out["tracker.matched_ratio"] = ratio(counts.get("tracker.matched", 0), counts.get("tracker.detections", 0))
    out["trace.overhead_s"] = overhead_s
    return out
