(* Bench-side spans around calls into the library's layers.

   Spans live in memory and are written out when the run ends: as a
   Chrome/Perfetto trace and as a per-layer self-time summary.  A
   layer's self time is its span's duration minus the part covered by
   the spans opened inside it.  Spans recorded through [span] nest on
   the main track (tid 0); the serve load generator adds one track per
   closed-loop client through [complete], and those overlap in wall
   time, so the self-time summary covers the main track only. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type event = {
  layer : string;
  name : string;
  tid : int;
  ts : float;  (* seconds on the monotonic clock *)
  dur : float;
}

type layer_stat = { mutable calls : int; mutable total_s : float; mutable self_s : float }

type frame = { mutable child_s : float }

let on = ref false
let events : event list ref = ref []
let stack : frame list ref = ref []
let stats : (string, layer_stat) Hashtbl.t = Hashtbl.create 32

let enabled () = !on

let start () =
  on := true;
  events := [];
  stack := [];
  Hashtbl.reset stats

let stop () = on := false

let record ev = events := ev :: !events

let stat layer =
  match Hashtbl.find_opt stats layer with
  | Some s -> s
  | None ->
    let s = { calls = 0; total_s = 0.0; self_s = 0.0 } in
    Hashtbl.replace stats layer s;
    s

(** [span layer f] runs [f], timing it as one call into [layer] when
    tracing is on and as a plain call otherwise. *)
let span ?(name = "") layer f =
  if not !on then f ()
  else begin
    let frame = { child_s = 0.0 } in
    stack := frame :: !stack;
    let t0 = now () in
    let finish () =
      let dur = now () -. t0 in
      (match !stack with _ :: rest -> stack := rest | [] -> ());
      (match !stack with parent :: _ -> parent.child_s <- parent.child_s +. dur | [] -> ());
      let s = stat layer in
      s.calls <- s.calls + 1;
      s.total_s <- s.total_s +. dur;
      s.self_s <- s.self_s +. (dur -. frame.child_s);
      record { layer; name = (if name = "" then layer else name); tid = 0; ts = t0; dur }
    in
    Fun.protect ~finally:finish f
  end

(** A finished span on its own track, e.g. one pool request from submit
    to response; not part of the self-time summary. *)
let complete ~tid ~layer ~ts ~dur =
  if !on then record { layer; name = layer; tid; ts; dur }

let span_count () = List.length !events

let summary () =
  Hashtbl.fold (fun layer s acc -> (layer, s) :: acc) stats []
  |> List.sort (fun (_, a) (_, b) -> compare b.self_s a.self_s)

(** Share of the main track's self time spent in each layer, in %. *)
let self_shares () =
  let rows = summary () in
  let total = List.fold_left (fun acc (_, s) -> acc +. s.self_s) 0.0 rows in
  List.map
    (fun (layer, s) -> (layer, if total > 0.0 then 100.0 *. s.self_s /. total else 0.0))
    rows

let pp_summary oc =
  let shares = self_shares () in
  Printf.fprintf oc "%-20s %8s %12s %12s %8s %12s\n" "layer" "calls" "total_ms" "self_ms"
    "self_%" "us/call";
  List.iter
    (fun (layer, s) ->
      Printf.fprintf oc "%-20s %8d %12.3f %12.3f %8.2f %12.2f\n" layer s.calls
        (s.total_s *. 1e3) (s.self_s *. 1e3) (List.assoc layer shares)
        (s.total_s *. 1e6 /. float_of_int (max 1 s.calls)))
    (summary ())

(* Chrome trace-event JSON ("X" complete events, microseconds), which
   ui.perfetto.dev and chrome://tracing both open. *)
let write_chrome path =
  let q = Iced_util.Json.quote in
  let evs = List.rev !events in
  let t_base = List.fold_left (fun acc e -> Float.min acc e.ts) infinity evs in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  List.iteri
    (fun i e ->
      Printf.fprintf oc "%s{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\
                         \"ts\":%.3f,\"dur\":%.3f}"
        (if i = 0 then "" else ",\n")
        (q e.name) (q e.layer) e.tid
        ((e.ts -. t_base) *. 1e6)
        (e.dur *. 1e6))
    evs;
  output_string oc "\n]}\n";
  close_out oc
