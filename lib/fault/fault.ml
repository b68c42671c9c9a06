open Iced_arch

type kind =
  | Tile_dead of int
  | Link_broken of { tile : int; dir : Dir.t }
  | Island_down of int
  | Upsets of { island : int; rate : float }

type kind_class = Tile | Link | Island | Upset

type event = { at_input : int; fault : kind }

type plan = { seed : int; events : event list; by_input : event array }

let none = { seed = 0; events = []; by_input = [||] }

let make ?(seed = 0) events =
  List.iter
    (fun e -> if e.at_input < 0 then invalid_arg "Fault.make: negative input index")
    events;
  let events = List.stable_sort (fun a b -> compare a.at_input b.at_input) events in
  { seed; events; by_input = Array.of_list events }

let is_empty plan = plan.events = []

(* Binary search for the first event at or after input [i], then the
   run of events at [i], in plan order. *)
let events_at plan i =
  let a = plan.by_input in
  let rec first lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if a.(mid).at_input < i then first (mid + 1) hi else first lo mid
  in
  let rec run k =
    if k < Array.length a && a.(k).at_input = i then a.(k).fault :: run (k + 1) else []
  in
  run (first 0 (Array.length a))

let permanent = function
  | Tile_dead _ | Link_broken _ | Island_down _ -> true
  | Upsets _ -> false

let island_of cgra = function
  | Tile_dead tile | Link_broken { tile; _ } -> Cgra.island_of cgra tile
  | Island_down island | Upsets { island; _ } -> island

let class_to_string = function
  | Tile -> "tile"
  | Link -> "link"
  | Island -> "island"
  | Upset -> "upset"

let class_of_string = function
  | "tile" -> Some Tile
  | "link" -> Some Link
  | "island" -> Some Island
  | "upset" -> Some Upset
  | _ -> None

let kind_to_string = function
  | Tile_dead t -> Printf.sprintf "tile %d dead" t
  | Link_broken { tile; dir } ->
    Printf.sprintf "link t%d.%s broken" tile (Dir.to_string dir)
  | Island_down i -> Printf.sprintf "island %d regulator down" i
  | Upsets { island; rate } -> Printf.sprintf "island %d upsets (rate %g)" island rate

let pp_plan fmt plan =
  Format.fprintf fmt "plan seed=%d@." plan.seed;
  List.iter
    (fun e -> Format.fprintf fmt "  @input %d: %s@." e.at_input (kind_to_string e.fault))
    plan.events

(* ------------------------------------------------------------------ *)
(* random plans *)

let random_events ~seed ~cgra ~inputs ?(rate = 1e-3) ~kinds ~count () =
  if kinds = [] then invalid_arg "Fault.random_events: empty kind list";
  if inputs < 2 then invalid_arg "Fault.random_events: need at least 2 inputs";
  if count < 0 then invalid_arg "Fault.random_events: negative count";
  let rng = Iced_util.Rng.create seed in
  let tile_count = Cgra.tile_count cgra in
  let island_count = Cgra.island_count cgra in
  List.init count (fun _ ->
      let cls = Iced_util.Rng.choose rng kinds in
      let at_input = Iced_util.Rng.int_in rng 1 (inputs - 1) in
      let fault =
        match cls with
        | Tile -> Tile_dead (Iced_util.Rng.int rng tile_count)
        | Link ->
          (* only ports with a neighbour carry traffic; a broken edge
             port would never be exercised *)
          let tile = Iced_util.Rng.int rng tile_count in
          let dir, _ = Iced_util.Rng.choose rng (Cgra.neighbors cgra tile) in
          Link_broken { tile; dir }
        | Island -> Island_down (Iced_util.Rng.int rng island_count)
        | Upset -> Upsets { island = Iced_util.Rng.int rng island_count; rate }
      in
      { at_input; fault })
  |> make ~seed
  |> fun plan -> plan.events

let random_plan ~seed ~cgra ~inputs ?rate ~kinds ~count () =
  make ~seed (random_events ~seed ~cgra ~inputs ?rate ~kinds ~count ())

(* ------------------------------------------------------------------ *)
(* the upset process *)

let upset_rate ~rate level =
  match level with
  | Dvfs.Rest -> rate
  | Dvfs.Relax -> rate /. 16.0
  | Dvfs.Normal | Dvfs.Power_gated -> 0.0

let upset_probability ~rate ~cycles =
  if rate <= 0.0 || cycles <= 0 then 0.0
  else if rate >= 1.0 then 1.0
  else 1.0 -. ((1.0 -. rate) ** float_of_int cycles)

(* FNV-1a over the salt, folded with seed and input: a stable, explicit
   hash (not [Hashtbl.hash]) so upset draws are reproducible across
   runs, builds, and domains. *)
let upset_draw ~seed ~input ~salt =
  let h = Iced_util.Fnv.hash_string salt in
  let h = Iced_util.Fnv.int h seed in
  let h = Iced_util.Fnv.int h input in
  let rng = Iced_util.Rng.create (Int64.to_int h) in
  Iced_util.Rng.float rng 1.0
