module Json = Iced_util.Json

let pid = 1

let value_json = function
  | Trace.Int i -> Json.int i
  | Trace.Float f -> Json.Num f
  | Trace.Bool b -> Json.Bool b
  | Trace.Str s -> Json.Str s

let event_json (e : Trace.event) =
  let ph, extra =
    match e.Trace.phase with
    | Trace.Begin -> ("B", [])
    | Trace.End -> ("E", [])
    | Trace.Instant -> ("i", [ ("s", Json.Str "t") ])
    | Trace.Counter -> ("C", [])
  in
  let args =
    match e.Trace.args with
    | [] -> []
    | args -> [ ("args", Json.Obj (List.map (fun (k, v) -> (k, value_json v)) args)) ]
  in
  Json.Obj
    ([ ("name", Json.Str e.Trace.name); ("cat", Json.Str e.Trace.cat); ("ph", Json.Str ph);
       ("ts", Json.Num e.Trace.ts_us); ("pid", Json.int pid); ("tid", Json.int e.Trace.tid) ]
    @ extra @ args)

(* Balance the stream per tid: drop End events whose Begin was lost to
   a ring overwrite, and close still-open Begins with synthesized Ends
   at the tid's last timestamp, so consumers always see matched B/E
   pairs on every track. *)
let balanced events =
  let stacks : (int, Trace.event list ref) Hashtbl.t = Hashtbl.create 8 in
  let last_ts : (int, float) Hashtbl.t = Hashtbl.create 8 in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.replace stacks tid s;
      s
  in
  let kept = ref [] in
  List.iter
    (fun (e : Trace.event) ->
      Hashtbl.replace last_ts e.Trace.tid e.Trace.ts_us;
      match e.Trace.phase with
      | Trace.Begin ->
        let s = stack e.Trace.tid in
        s := e :: !s;
        kept := e :: !kept
      | Trace.End -> (
        let s = stack e.Trace.tid in
        match !s with
        | [] -> () (* orphan End: its Begin was overwritten *)
        | b :: rest ->
          s := rest;
          (* close with the Begin's identity so the pair matches even
             when the End's own slot lost its labels *)
          kept := { e with cat = b.Trace.cat; name = b.Trace.name } :: !kept)
      | Trace.Instant | Trace.Counter -> kept := e :: !kept)
    events;
  let synthesized =
    Hashtbl.fold
      (fun tid s acc ->
        let ts = match Hashtbl.find_opt last_ts tid with Some t -> t | None -> 0.0 in
        List.fold_left
          (fun acc (b : Trace.event) ->
            { b with phase = Trace.End; ts_us = ts; args = [] } :: acc)
          acc !s)
      stacks []
  in
  (* input order, synthesized Ends appended at the tail *)
  List.rev !kept @ synthesized

let trace_json events =
  Json.to_string
    (Json.Obj
       [ ("traceEvents", Json.Arr (List.map event_json (balanced events)));
         ("displayTimeUnit", Json.Str "ms") ])

(* ------------------------------------------------------------------ *)
(* flame summary                                                       *)

type node = {
  mutable total_us : float;
  mutable count : int;
  children : (string, node) Hashtbl.t;
  mutable order : string list; (* child keys, first-seen order *)
}

let make_node () = { total_us = 0.0; count = 0; children = Hashtbl.create 4; order = [] }

let child parent key =
  match Hashtbl.find_opt parent.children key with
  | Some n -> n
  | None ->
    let n = make_node () in
    Hashtbl.replace parent.children key n;
    parent.order <- key :: parent.order;
    n

let flame_summary events =
  let root = make_node () in
  let stacks : (int, (node * float) list ref) Hashtbl.t = Hashtbl.create 8 in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.replace stacks tid s;
      s
  in
  let last_ts = ref 0.0 in
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.ts_us > !last_ts then last_ts := e.Trace.ts_us;
      match e.Trace.phase with
      | Trace.Begin ->
        let s = stack e.Trace.tid in
        let parent = match !s with (n, _) :: _ -> n | [] -> root in
        let key = e.Trace.cat ^ ":" ^ e.Trace.name in
        s := (child parent key, e.Trace.ts_us) :: !s
      | Trace.End -> (
        let s = stack e.Trace.tid in
        match !s with
        | [] -> ()
        | (n, t0) :: rest ->
          s := rest;
          n.total_us <- n.total_us +. (e.Trace.ts_us -. t0);
          n.count <- n.count + 1)
      | Trace.Instant | Trace.Counter -> ())
    events;
  (* close anything still open at the stream's last timestamp *)
  Hashtbl.iter
    (fun _ s ->
      List.iter
        (fun (n, t0) ->
          n.total_us <- n.total_us +. (!last_ts -. t0);
          n.count <- n.count + 1)
        !s)
    stacks;
  let b = Buffer.create 1024 in
  Buffer.add_string b "span path                                          count   total ms    self ms\n";
  let rec render depth key n =
    let children =
      List.rev_map (fun k -> (k, Hashtbl.find n.children k)) n.order
      |> List.sort (fun (_, a) (_, c) -> compare c.total_us a.total_us)
    in
    let child_total = List.fold_left (fun acc (_, c) -> acc +. c.total_us) 0.0 children in
    let self = Float.max 0.0 (n.total_us -. child_total) in
    if depth >= 0 then begin
      let label = String.make (2 * depth) ' ' ^ key in
      let label =
        if String.length label > 48 then String.sub label 0 48 else label
      in
      Buffer.add_string b
        (Printf.sprintf "%-48s %7d %10.3f %10.3f\n" label n.count (n.total_us /. 1e3)
           (self /. 1e3))
    end;
    List.iter (fun (k, c) -> render (depth + 1) k c) children
  in
  render (-1) "" root;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* files and sessions                                                  *)

let write_file ~path doc =
  let oc = open_out path in
  output_string oc doc;
  close_out oc

let capture ?out ?flame_out ?metrics_out f =
  Trace.start ();
  Metrics.reset ();
  let finish () =
    Trace.stop ();
    let evs = Trace.events () in
    (match out with Some p -> write_file ~path:p (trace_json evs ^ "\n") | None -> ());
    (match flame_out with Some p -> write_file ~path:p (flame_summary evs) | None -> ());
    match metrics_out with
    | Some p -> write_file ~path:p (Metrics.to_json () ^ "\n")
    | None -> ()
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e
