open Iced_arch
module Obs = Iced_obs.Trace

type t = {
  window_size : int;
  label_floors : (string * Dvfs.level) list;
  mutable levels : (string * Dvfs.level) list;
  exe_table : (string, float list) Hashtbl.t;
  long_worst : (string, float) Hashtbl.t;
      (* decaying maximum across windows: lowering decisions must
         survive a return of the recent past, not just this window *)
  mutable inputs_seen : int;
  mutable adjustments : int;
  mutable last_bottleneck : (string * float) option;
}

(* Lowering a kernel one level doubles its time; only lower when even
   the window's worst-case doubled time fits under the bottleneck with
   this guard band (input-to-input variance would otherwise flip the
   bottleneck and cost a slow window). *)
let guard_band = 0.8

let create ?(window = 10) ?(label_floors = []) ~labels () =
  if window <= 0 then invalid_arg "Controller.create: non-positive window";
  {
    window_size = window;
    label_floors;
    levels = List.map (fun l -> (l, Dvfs.Normal)) labels;
    exe_table = Hashtbl.create 16;
    long_worst = Hashtbl.create 16;
    inputs_seen = 0;
    adjustments = 0;
    last_bottleneck = None;
  }

let window t = t.window_size

let level t label =
  match List.assoc_opt label t.levels with Some l -> l | None -> raise Not_found

let levels t = t.levels

let observe t ~label ~busy_time =
  let existing =
    match Hashtbl.find_opt t.exe_table label with Some l -> l | None -> []
  in
  Hashtbl.replace t.exe_table label (busy_time :: existing)

let mean samples = Iced_util.Stats.mean samples

let long_worst_decay = 0.5

(* One decision step; returns this window's bottleneck (kernel, time),
   [None] when no kernel reported a sample. *)
let adjust_body t =
  let stats =
    List.filter_map
      (fun (label, _) ->
        match Hashtbl.find_opt t.exe_table label with
        | Some (_ :: _ as samples) ->
          let worst = Iced_util.Stats.maximum samples in
          (* normalize the observation back to Normal-level time so the
             memory is level-independent *)
          let level = match List.assoc_opt label t.levels with Some l -> l | None -> Dvfs.Normal in
          let nominal = worst /. float_of_int (Dvfs.multiplier level) in
          let remembered =
            match Hashtbl.find_opt t.long_worst label with
            | Some prev -> Float.max nominal (long_worst_decay *. prev)
            | None -> nominal
          in
          Hashtbl.replace t.long_worst label remembered;
          Some (label, mean samples, Float.max worst (remembered *. float_of_int (Dvfs.multiplier level)))
        | Some [] | None -> None)
      t.levels
  in
  match stats with
  | [] -> None
  | (first_label, first_time, _) :: rest ->
    let bottleneck_label, bottleneck_time =
      List.fold_left
        (fun (bl, bt) (l, time, _) -> if time > bt then (l, time) else (bl, bt))
        (first_label, first_time) rest
    in
    t.last_bottleneck <- Some (bottleneck_label, bottleneck_time);
    let changed = ref false in
    let new_levels =
      List.map
        (fun (label, level) ->
          let worst =
            match
              List.find_opt (fun (l, _, _) -> l = label) stats
            with
            | Some (_, _, worst) -> worst
            | None -> (
              (* Starved kernel: no samples this window.  Treating it
                 as free (worst = 0) would step it down every starved
                 window regardless of how slow it ran moments ago, then
                 cost a slow window the instant the phase returns.  Use
                 the decayed cross-window memory instead, decaying it
                 once per starved window so a kernel that stays idle is
                 still lowered eventually. *)
              match Hashtbl.find_opt t.long_worst label with
              | Some prev ->
                let decayed = long_worst_decay *. prev in
                Hashtbl.replace t.long_worst label decayed;
                decayed *. float_of_int (Dvfs.multiplier level)
              | None -> 0.0)
          in
          let next =
            if label = bottleneck_label then
              (* a slowed kernel that became the throughput limiter is
                 restored to nominal at once: every window it spends
                 below Normal while constraining the pipeline is pure
                 loss (the ns-scale regulator makes the switch itself
                 free) *)
              if level <> Dvfs.Normal then Dvfs.Normal else level
            else begin
              (* Raise a slowed kernel enough levels that its projected
                 time drops back under the bottleneck (each level
                 halves it) — the stream can jump phases abruptly, and
                 limping out of rest one window at a time would stall
                 the pipeline for two windows.  Lower only when even
                 the window's worst doubled time leaves headroom. *)
              let rec settle level worst =
                if level <> Dvfs.Normal && worst >= 0.9 *. bottleneck_time then
                  settle (Dvfs.step_up level) (worst /. 2.0)
                else level
              in
              let raised = settle level worst in
              if raised <> level then raised
              else if 2.0 *. worst <= guard_band *. bottleneck_time then
                let floor =
                  match List.assoc_opt label t.label_floors with
                  | Some f when Dvfs.faster f Dvfs.Rest -> f
                  | _ -> Dvfs.Rest
                in
                Dvfs.step_down ~floor level
              else level
            end
          in
          if next <> level then begin
            changed := true;
            Obs.instant
              ~args:(fun () ->
                [
                  ("kernel", Obs.Str label);
                  ("from", Obs.Str (Dvfs.to_string level));
                  ("to", Obs.Str (Dvfs.to_string next));
                ])
              ~cat:"controller" ~name:"level" ()
          end;
          (label, next))
        t.levels
    in
    if !changed then t.adjustments <- t.adjustments + 1;
    t.levels <- new_levels;
    Some (bottleneck_label, bottleneck_time)

(* The decision step of Algorithm 3, traced as one ["controller"]
   ["adjust"] span per window: the window index, the bottleneck kernel
   and its time land as span args; every per-kernel level move is a
   ["level"] instant. *)
let adjust t =
  Obs.span
    ~args:(fun () -> [ ("window", Obs.Int ((t.inputs_seen / t.window_size) - 1)) ])
    ~result:(function
      | Some (label, time) ->
        [ ("bottleneck", Obs.Str label); ("bottleneck_us", Obs.Float time) ]
      | None -> [])
    ~cat:"controller" ~name:"adjust"
    (fun () -> adjust_body t)

let impose t granted =
  List.iter
    (fun (label, _) ->
      if not (List.mem_assoc label t.levels) then
        invalid_arg ("Controller.impose: unknown label " ^ label))
    granted;
  let new_levels =
    List.map
      (fun (label, level) ->
        match List.assoc_opt label granted with
        | Some g ->
          if g <> level then
            Obs.instant
              ~args:(fun () ->
                [
                  ("kernel", Obs.Str label);
                  ("from", Obs.Str (Dvfs.to_string level));
                  ("to", Obs.Str (Dvfs.to_string g));
                ])
              ~cat:"controller" ~name:"impose" ();
          (label, g)
        | None -> (label, level))
      t.levels
  in
  t.levels <- new_levels

let last_bottleneck t = t.last_bottleneck

let input_done t =
  t.inputs_seen <- t.inputs_seen + 1;
  if t.inputs_seen mod t.window_size = 0 then begin
    ignore (adjust t);
    Hashtbl.reset t.exe_table
  end

let adjustments t = t.adjustments
