module Dvfs = Iced_arch.Dvfs
module Cgra = Iced_arch.Cgra
module Model = Iced_power.Model
module Params = Iced_power.Params
module Obs = Iced_obs.Trace

type policy = Fair_share | Weighted_qos | Strict_priority

let all_policies = [ Fair_share; Weighted_qos; Strict_priority ]

let policy_to_string = function
  | Fair_share -> "fair-share"
  | Weighted_qos -> "weighted-qos"
  | Strict_priority -> "strict-priority"

let policy_of_string = function
  | "fair-share" | "fair" -> Some Fair_share
  | "weighted-qos" | "qos" -> Some Weighted_qos
  | "strict-priority" | "priority" -> Some Strict_priority
  | _ -> None

type member = {
  id : string;
  weight : float;
  priority : int;
  mutable kernel_tiles : (string * int) list;
}

let member ~id ~qos kernel_tiles =
  { id; weight = Qos.weight qos; priority = Qos.priority qos; kernel_tiles }

type decision = {
  round : int;
  desired_mw : float;
  granted_mw : float;
  demotions : int;
  throttled : string list;
  infeasible : bool;
}

type t = {
  cap_mw : float option;
  policy : policy;
  fabric : Cgra.t;
  mutable members : member list;
  mutable decisions : decision list;  (* reversed *)
}

let create ?cap_mw ~policy ~fabric members =
  (match cap_mw with
  | Some c when not (Float.is_finite c && c > 0.0) ->
    invalid_arg "Allocator.create: cap must be finite and positive"
  | _ -> ());
  let rec dup = function
    | [] -> None
    | m :: rest -> if List.exists (fun n -> n.id = m.id) rest then Some m.id else dup rest
  in
  (match dup members with
  | Some id -> invalid_arg ("Allocator.create: duplicate member " ^ id)
  | None -> ());
  { cap_mw; policy; fabric; members; decisions = [] }

let cap_mw t = t.cap_mw
let policy t = t.policy
let decisions t = List.rev t.decisions

let update_tiles t ~id kernel_tiles =
  match List.find_opt (fun m -> m.id = id) t.members with
  | Some m -> m.kernel_tiles <- kernel_tiles
  | None -> invalid_arg ("Allocator.update_tiles: unknown member " ^ id)

let member_of t id = List.find_opt (fun m -> m.id = id) t.members

(* ------------------------------------------------------------------ *)
(* the power envelope *)

let tiles_envelope_mw level tiles =
  float_of_int tiles *. Model.tile_power_mw Params.default { Model.level; activity = 1.0 }

let member_envelope_mw m levels =
  List.fold_left
    (fun acc (label, tiles) ->
      let level =
        match List.assoc_opt label levels with
        | Some l -> l
        | None -> Dvfs.Normal
      in
      acc +. tiles_envelope_mw level tiles)
    0.0 m.kernel_tiles

let shared_envelope_mw t =
  Model.sram_power_mw Params.default ~activity:1.0
  +. Model.overhead_power_mw Params.default Model.Iced t.fabric

let envelope_mw t assignment =
  List.fold_left
    (fun acc (id, levels) ->
      match member_of t id with
      | None -> acc
      | Some m -> acc +. member_envelope_mw m levels)
    (shared_envelope_mw t) assignment

let max_envelope_mw t =
  envelope_mw t
    (List.map
       (fun m ->
         (m.id, List.map (fun (label, _) -> (label, Dvfs.Normal)) m.kernel_tiles))
       t.members)

let floor_envelope_mw t =
  envelope_mw t
    (List.map
       (fun m ->
         (m.id, List.map (fun (label, _) -> (label, Dvfs.Rest)) m.kernel_tiles))
       t.members)

(* ------------------------------------------------------------------ *)
(* arbitration *)

(* Pick the member to demote next.  All scores are pure functions of
   allocator state, and every tie breaks on the id string, so a
   decision sequence is reproducible run-to-run and across worker
   counts. *)
let pick_victim t candidates =
  let score (m, levels) =
    match t.policy with
    | Fair_share -> member_envelope_mw m levels
    | Weighted_qos -> member_envelope_mw m levels /. Float.max 1e-9 m.weight
    | Strict_priority -> float_of_int (-m.priority)
  in
  match candidates with
  | [] -> None
  | first :: rest ->
    let best =
      List.fold_left
        (fun ((bm, bs) : member * float) ((m, _) as c) ->
          let s = score c in
          if s > bs || (s = bs && m.id < bm.id) then (m, s) else (bm, bs))
        (fst first, score first)
        rest
    in
    Some (fst best)

(* Within the victim, demote the kernel whose envelope share is
   largest among those still above [Rest] (first in kernel order on
   ties): the cheapest single step that buys the most headroom. *)
let demote_one m levels =
  let pick =
    List.fold_left
      (fun best (label, level) ->
        if not (Dvfs.faster level Dvfs.Rest) then best
        else
          let tiles =
            match List.assoc_opt label m.kernel_tiles with
            | Some n -> n
            | None -> 0
          in
          let cost = tiles_envelope_mw level tiles in
          match best with
          | Some (_, bcost) when bcost >= cost -> best
          | _ -> Some (label, cost))
      None levels
  in
  match pick with
  | None -> None
  | Some (label, _) ->
    Some
      (List.map
         (fun (l, lv) ->
           if l = label then (l, Dvfs.step_down ~floor:Dvfs.Rest lv) else (l, lv))
         levels)

let arbitrate t ~round desired =
  let granted = ref desired in
  let desired_mw = envelope_mw t desired in
  let demotions = ref 0 in
  let infeasible = ref false in
  (match t.cap_mw with
  | None -> ()
  | Some cap ->
    let rec settle () =
      if envelope_mw t !granted > cap then begin
        let candidates =
          List.filter_map
            (fun (id, levels) ->
              match member_of t id with
              | None -> None
              | Some m ->
                if List.exists (fun (_, l) -> Dvfs.faster l Dvfs.Rest) levels
                then Some (m, levels)
                else None)
            !granted
        in
        match pick_victim t candidates with
        | None ->
          (* cap exhaustion: everyone is already at the Rest floor;
             grant the floor and flag the round (see the runbook in
             docs/MULTITENANT.md) *)
          infeasible := true
        | Some victim -> (
          let levels = List.assoc victim.id !granted in
          match demote_one victim levels with
          | None -> infeasible := true
          | Some levels' ->
            granted :=
              List.map
                (fun (id, ls) -> if id = victim.id then (id, levels') else (id, ls))
                !granted;
            incr demotions;
            settle ())
      end
    in
    settle ());
  let granted = !granted in
  let granted_mw = envelope_mw t granted in
  let throttled =
    List.filter_map
      (fun (id, ls) ->
        match List.assoc_opt id desired with
        | Some d when d <> ls -> Some id
        | _ -> None)
      granted
  in
  let d =
    {
      round;
      desired_mw;
      granted_mw;
      demotions = !demotions;
      throttled;
      infeasible = !infeasible;
    }
  in
  t.decisions <- d :: t.decisions;
  if !demotions > 0 then Iced_obs.Metrics.incr "tenancy.throttled_rounds";
  Obs.instant
    ~args:(fun () ->
      [
        ("round", Obs.Int round);
        ("desired_mw", Obs.Float desired_mw);
        ("granted_mw", Obs.Float granted_mw);
        ("demotions", Obs.Int !demotions);
        ("infeasible", Obs.Str (string_of_bool !infeasible));
      ])
    ~cat:"tenancy" ~name:"grant" ();
  granted
