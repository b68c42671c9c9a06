type value = Int of int | Float of float | Bool of bool | Str of string

type phase = Begin | End | Instant | Counter

type event = {
  phase : phase;
  cat : string;
  name : string;
  ts_us : float;
  tid : int;
  seq : int;
  args : (string * value) list;
}

(* ------------------------------------------------------------------ *)
(* per-domain ring buffer                                              *)

(* Flat parallel arrays, preallocated when the domain records its first
   event.  [pushed] counts every record ever made; slot (seq mod
   capacity) holds record [seq], so once [pushed > capacity] the oldest
   records have been overwritten (exports re-balance; [dropped] counts
   the loss).  Only the owning domain writes; the control surface reads
   after recording has quiesced. *)
type buffer = {
  tid : int;
  capacity : int;
  ev_phase : int array; (* 0=B 1=E 2=I 3=C *)
  ev_ts : float array;
  ev_cat : string array;
  ev_name : string array;
  ev_args : (string * value) list array;
  mutable pushed : int;
  mutable open_spans : int list; (* seq of open Begin events, innermost first *)
  mutable registered : bool;
}

let on = Atomic.make false
let epoch = Atomic.make 0.0
let default_capacity = Atomic.make (1 lsl 18)

let registry : buffer list ref = ref []
let registry_mu = Mutex.create ()

let suppress_key = Domain.DLS.new_key (fun () -> ref false)
let buffer_key : buffer option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let enabled () = Atomic.get on && not !(Domain.DLS.get suppress_key)

let reset_buffer b =
  b.pushed <- 0;
  b.open_spans <- []

let make_buffer () =
  let capacity = max 16 (Atomic.get default_capacity) in
  {
    tid = (Domain.self () :> int);
    capacity;
    ev_phase = Array.make capacity 0;
    ev_ts = Array.make capacity 0.0;
    ev_cat = Array.make capacity "";
    ev_name = Array.make capacity "";
    ev_args = Array.make capacity [];
    pushed = 0;
    open_spans = [];
    registered = false;
  }

(* The domain's buffer, created and registered lazily.  After {!clear}
   un-registers a live domain's buffer, the next event re-registers it
   (reset), so a long-lived domain survives collector resets. *)
let my_buffer () =
  let cell = Domain.DLS.get buffer_key in
  let b =
    match !cell with
    | Some b -> b
    | None ->
      let b = make_buffer () in
      cell := Some b;
      b
  in
  if not b.registered then begin
    reset_buffer b;
    Mutex.protect registry_mu (fun () ->
        registry := b :: !registry;
        b.registered <- true)
  end;
  b

let push b phase ~cat ~name args =
  let seq = b.pushed in
  let slot = seq mod b.capacity in
  b.ev_phase.(slot) <- phase;
  (* microseconds since {!start}, the trace-event unit *)
  b.ev_ts.(slot) <- (Clock.now () -. Atomic.get epoch) *. 1e6;
  b.ev_cat.(slot) <- cat;
  b.ev_name.(slot) <- name;
  b.ev_args.(slot) <- args;
  b.pushed <- seq + 1;
  seq

(* ------------------------------------------------------------------ *)
(* control                                                             *)

let clear () =
  Mutex.protect registry_mu (fun () ->
      List.iter
        (fun b ->
          reset_buffer b;
          b.registered <- false)
        !registry;
      registry := [])

let start () =
  clear ();
  Atomic.set epoch (Clock.now ());
  Atomic.set on true

let stop () = Atomic.set on false

let set_capacity n =
  if n <= 0 then invalid_arg "Trace.set_capacity: non-positive capacity";
  Atomic.set default_capacity n

let dropped () =
  Mutex.protect registry_mu (fun () ->
      List.fold_left (fun acc b -> acc + max 0 (b.pushed - b.capacity)) 0 !registry)

(* ------------------------------------------------------------------ *)
(* recording                                                           *)

let eval = function Some f -> f () | None -> []

(* End events are recorded whenever a span is open — even if the
   collector was switched off mid-span — so recorded Begins stay
   balanced.  [extra] joins the Begin's args if its slot survived ring
   wrap. *)
let end_span extra =
  match !(Domain.DLS.get buffer_key) with
  | None -> ()
  | Some b -> (
    match b.open_spans with
    | [] -> ()
    | seq :: rest ->
      b.open_spans <- rest;
      let slot = seq mod b.capacity in
      (* close with the Begin's cat/name if its slot survived *)
      let cat, name =
        if b.pushed - seq <= b.capacity then begin
          if extra <> [] then b.ev_args.(slot) <- b.ev_args.(slot) @ extra;
          (b.ev_cat.(slot), b.ev_name.(slot))
        end
        else ("", "")
      in
      ignore (push b 1 ~cat ~name []))

let span ?args ?result ~cat ~name f =
  if not (enabled ()) then f ()
  else begin
    let b = my_buffer () in
    let seq = push b 0 ~cat ~name (eval args) in
    b.open_spans <- seq :: b.open_spans;
    match f () with
    | v ->
      end_span (match result with Some r -> r v | None -> []);
      v
    | exception e ->
      end_span [];
      raise e
  end

let instant ?args ~cat ~name () =
  if enabled () then ignore (push (my_buffer ()) 2 ~cat ~name (eval args))

let counter ~cat ~name series =
  if enabled () then
    ignore
      (push (my_buffer ()) 3 ~cat ~name
         (List.map (fun (k, v) -> (k, Float v)) (series ())))

let suppress f =
  let cell = Domain.DLS.get suppress_key in
  let saved = !cell in
  cell := true;
  match f () with
  | v ->
    cell := saved;
    v
  | exception e ->
    cell := saved;
    raise e

(* ------------------------------------------------------------------ *)
(* export                                                              *)

let phase_of_int = function 0 -> Begin | 1 -> End | 2 -> Instant | _ -> Counter

let buffer_events b =
  let first = max 0 (b.pushed - b.capacity) in
  let n = b.pushed - first in
  List.init n (fun k ->
      let seq = first + k in
      let slot = seq mod b.capacity in
      {
        phase = phase_of_int b.ev_phase.(slot);
        cat = b.ev_cat.(slot);
        name = b.ev_name.(slot);
        ts_us = b.ev_ts.(slot);
        tid = b.tid;
        seq;
        args = b.ev_args.(slot);
      })

let events () =
  Mutex.protect registry_mu (fun () -> !registry)
  |> List.concat_map buffer_events
  |> List.sort (fun a b -> compare (a.ts_us, a.tid, a.seq) (b.ts_us, b.tid, b.seq))
