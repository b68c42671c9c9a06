(** Exporters for the {!Trace} event stream.

    Two renderings: the Chrome/Perfetto trace-event JSON format (open
    the file in {{:https://ui.perfetto.dev}ui.perfetto.dev} or
    [chrome://tracing]) and a plain-text flame summary (aggregate time
    per span path).  Both are pure functions of an event list, so they
    can run long after {!Trace.stop}. *)

val trace_json : Trace.event list -> string
(** The event stream as a complete, compact trace-event JSON document
    (no trailing newline):
    [{"traceEvents": [...], "displayTimeUnit": "ms"}].

    The emitted stream is always well-formed even when the ring buffer
    overwrote events: per [tid], [End] events with no surviving [Begin]
    are dropped and still-open [Begin]s are closed by synthesized
    [End]s at the tail, so every ["B"] has a matching ["E"] with the
    same [pid]/[tid], and timestamps are non-decreasing per track.  All
    events carry [pid] {!pid}. *)

val pid : int
(** The fixed process id stamped on every exported event (the toolchain
    is one process; domains are the [tid]s). *)

val write_file : path:string -> string -> unit
(** Write a rendered document to [path] (truncating). *)

val capture :
  ?out:string ->
  ?flame_out:string ->
  ?metrics_out:string ->
  (unit -> 'a) ->
  'a
(** [capture ~out f] runs [f] with tracing and metrics enabled, then
    writes the trace-event JSON to [out], the flame summary to
    [flame_out] (when given), and the {!Metrics} registry JSON to
    [metrics_out] (when given), and disables the collector again.
    Files are written even when [f] raises (the exception is
    re-raised).  This is the engine behind [iced trace]. *)
