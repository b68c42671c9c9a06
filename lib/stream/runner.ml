open Iced_arch
module Model = Iced_power.Model
module Params = Iced_power.Params
module Fault = Iced_fault.Fault
module Obs = Iced_obs.Trace

type policy = Static | Iced_dvfs | Drips

let policy_to_string = function
  | Static -> "static"
  | Iced_dvfs -> "iced"
  | Drips -> "drips"

let policy_of_string = function
  | "static" -> Some Static
  | "iced" -> Some Iced_dvfs
  | "drips" -> Some Drips
  | _ -> None

type recovery = Remap | Gate_island | Raise_level | Fail_stop

let recovery_to_string = function
  | Remap -> "remap"
  | Gate_island -> "gate"
  | Raise_level -> "raise"
  | Fail_stop -> "fail-stop"

let recovery_of_string = function
  | "remap" -> Some Remap
  | "gate" -> Some Gate_island
  | "raise" -> Some Raise_level
  | "fail-stop" | "failstop" -> Some Fail_stop
  | _ -> None

type window_report = {
  index : int;
  inputs : int;
  mean_period_us : float;
  throughput_per_s : float;
  power_mw : float;
  efficiency : float;
  levels : (string * Dvfs.level) list;
  allocation : (string * int) list;
  dropped : int;
  replayed : int;
  recovery_us : float;
}

type fault_stats = {
  injected : int;
  recoveries : int;
  remaps : int;
  islands_gated : int;
  levels_raised : int;
  inputs_dropped : int;
  inputs_replayed : int;
  recovery_time_us : float;
  mttr_us : float;
  offered : int;
  completed : int;
}

let no_faults =
  {
    injected = 0;
    recoveries = 0;
    remaps = 0;
    islands_gated = 0;
    levels_raised = 0;
    inputs_dropped = 0;
    inputs_replayed = 0;
    recovery_time_us = 0.0;
    mttr_us = 0.0;
    offered = 0;
    completed = 0;
  }

type instance_cost = {
  label : string;
  wall_us : float;  (** execution time of this input on this kernel *)
  cycles : int;  (** kernel-clock cycles behind [wall_us] *)
  candidate : Partition.candidate;  (** the priced mapping this input ran on *)
  level : Dvfs.level;
}

(* ------------------------------------------------------------------ *)
(* lanes *)

(* Per-kernel resilient-execution state; the concrete islands a kernel
   holds live in its {!Recovery.holder}.  Mappings use the partition's
   representative geometry (islands 0..count-1); permanent faults,
   recorded in concrete coordinates, are translated at remap time. *)
type kernel = {
  prepared : Partition.prepared_instance;
  mutable override : Partition.candidate option;
  mutable faults : Fault.kind list;  (** permanent faults on this kernel *)
  mutable upset_rate : float;  (** 0.0 when the kernel's islands are clean *)
  mutable pinned : bool;  (** [Raise_level] pinned the kernel at Normal *)
}

type monitor = Fixed | Dvfs of Controller.t | Repartition of Drips.t

(* One tenant's stream and everything a window {!step} reads or
   updates.  A solo run drives one lane, a shared run one per tenant. *)
type lane = {
  window : int;
  design : Model.design;
  monitor : monitor;
  plan : Fault.plan;
  recovery : recovery;
  total : int;
  mutable partition : Partition.t;
  mutable kernels : (string * kernel Recovery.holder) list;
  mutable remaining : Pipeline.input list;
  mutable next : int;  (** inputs consumed so far *)
  mutable pending_us : float;
  mutable fstats : fault_stats;  (** [mttr_us], [offered], [completed] filled at the end *)
  mutable reports : window_report list;  (** reversed *)
  mutable w_periods : float list;
  mutable w_powers : float list;
  mutable w_start : fault_stats;  (** the counters when the window opened *)
  mutable w_recovery_us : float;
}

(* allocation and prepared instances both follow the pipeline's order *)
let kernels_of (partition : Partition.t) =
  List.map2
    (fun (label, count) prepared ->
      ( label,
        {
          Recovery.item =
            { prepared; override = None; faults = []; upset_rate = 0.0; pinned = false };
          floor = 1;
          count;
          owned = List.assoc label partition.Partition.island_ids;
        } ))
    partition.Partition.allocation partition.Partition.prepared

let lane ~window ?(plan = Fault.none) ?(recovery = Fail_stop) (partition : Partition.t)
    policy inputs =
  if window <= 0 then invalid_arg "Runner: non-positive window";
  {
    window;
    design = (if policy = Iced_dvfs then Model.Iced else Model.Baseline);
    monitor =
      (match policy with
      | Static -> Fixed
      | Iced_dvfs ->
        Dvfs
          (Controller.create ~window ~label_floors:partition.Partition.level_floors
             ~labels:(List.map fst partition.Partition.allocation) ())
      | Drips -> Repartition (Drips.create ~window partition));
    plan;
    recovery;
    total = List.length inputs;
    partition;
    kernels = kernels_of partition;
    remaining = inputs;
    next = 0;
    pending_us = 0.0;
    fstats = no_faults;
    reports = [];
    w_periods = [];
    w_powers = [];
    w_start = no_faults;
    w_recovery_us = 0.0;
  }

let level_of lane label =
  match lane.monitor with
  | Dvfs c when not (List.assoc label lane.kernels).Recovery.item.pinned ->
    Controller.level c label
  | Dvfs _ | Fixed | Repartition _ -> Dvfs.Normal

let allocation lane =
  match lane.monitor with
  | Repartition d -> Drips.allocation d
  | Fixed | Dvfs _ ->
    List.map (fun (label, (h : kernel Recovery.holder)) -> (label, h.count)) lane.kernels

(* The mapping a kernel runs at [count] islands: its fault-recovery
   remapping, else the prepared candidate.  DRIPS only moves a kernel
   to a count with a prepared candidate, and recovery commits a count
   only after {!rebuild} succeeds, so a miss is a bug. *)
let candidate (k : kernel) count =
  match k.override with
  | Some c -> c
  | None -> (
    match Partition.candidate_for k.prepared count with
    | Some c -> c
    | None ->
      invalid_arg
        (Printf.sprintf "Runner: kernel %s has no mapping at %d islands"
           k.prepared.instance.Pipeline.label count))

(* Per-input accounting under the lane's current allocation and levels. *)
let account lane input =
  let allocation = allocation lane in
  let instance_cost (instance : Pipeline.instance) =
    let label = instance.Pipeline.label in
    let candidate =
      candidate (List.assoc label lane.kernels).Recovery.item (List.assoc label allocation)
    in
    let level = level_of lane label in
    let iters = instance.Pipeline.iterations input in
    let cycles = candidate.Partition.mapping.Iced_mapper.Mapping.ii * iters in
    let wall_us =
      float_of_int (cycles * Dvfs.multiplier level) /. Params.default.f_normal_mhz
    in
    { label; wall_us; cycles; candidate; level }
  in
  let stages =
    List.map (List.map instance_cost) lane.partition.Partition.pipeline.Pipeline.stages
  in
  let period_us =
    List.fold_left
      (fun acc stage ->
        Float.max acc (List.fold_left (fun a c -> Float.max a c.wall_us) 0.0 stage))
      1e-9 stages
  in
  let costs = List.concat stages in
  (* Tile power: the candidate's mapped activity scaled by the kernel's
     duty cycle. *)
  let duty cost = Float.min 1.0 (cost.wall_us /. period_us) in
  let tiles =
    List.concat_map
      (fun cost ->
        let duty = duty cost in
        List.map
          (fun base_activity -> { Model.level = cost.level; activity = base_activity *. duty })
          cost.candidate.Partition.tile_activity)
      costs
  in
  let sram_activity =
    Float.min 1.0
      (List.fold_left
         (fun acc cost -> acc +. (cost.candidate.Partition.sram_activity *. duty cost))
         0.0 costs)
  in
  (period_us, costs, tiles, sram_activity)

(* ------------------------------------------------------------------ *)
(* fault recovery *)

(* Remap retry budget: the mapper polls [cancel] once per II attempt,
   so counting polls bounds the search deterministically (a wall-clock
   deadline would make campaign results depend on machine load and
   worker count). *)
let remap_poll_budget = 64

(* a fault the recovery policy cannot absorb: the rest of the stream is lost *)
exception Recovery_failed

let rec index_of x = function
  | [] -> None
  | y :: rest -> if x = y then Some 0 else Option.map succ (index_of x rest)

(* Translate a concrete faulted tile into the kernel's representative
   geometry; [None] when the fault sits on an island the kernel no
   longer owns (gated away) and so cannot hurt it. *)
let representative_tile cgra owned tile =
  let island = Cgra.island_of cgra tile in
  match index_of island owned with
  | None -> None
  | Some k ->
    Option.bind
      (index_of tile (Cgra.island_tiles cgra island))
      (List.nth_opt (Cgra.island_tiles cgra k))

(* Rebuild a kernel's mapping on its current islands with its live
   faults masked.  With a clean geometry the prepared candidate is
   reused (no mapper run, no override); otherwise Algorithm 2 remaps
   around the masked resources under a bounded II/poll budget and the
   result becomes the kernel's override. *)
let rebuild lane (h : kernel Recovery.holder) =
  let k = h.Recovery.item in
  let cgra = lane.partition.Partition.cgra in
  let faults = List.rev k.faults and rep = representative_tile cgra h.owned in
  let dead_tiles =
    List.filter_map (function Fault.Tile_dead tile -> rep tile | _ -> None) faults
  in
  let dead_links =
    List.filter_map
      (function
        | Fault.Link_broken { tile; dir } -> Option.map (fun t -> (t, dir)) (rep tile)
        | _ -> None)
      faults
  in
  if dead_tiles = [] && dead_links = [] then (
    match Partition.candidate_for k.prepared h.count with
    | Some c ->
      k.override <- None;
      Ok c
    | None -> Error "no prepared mapping")
  else begin
    let tiles =
      List.concat_map (fun i -> Cgra.island_tiles cgra i) (List.init h.count Fun.id)
    in
    let old_ii = (candidate k h.count).Partition.mapping.Iced_mapper.Mapping.ii in
    let polls = ref 0 in
    let cancel () =
      incr polls;
      !polls > remap_poll_budget
    in
    let req =
      Iced_mapper.Mapper.request ~strategy:Iced_mapper.Mapper.Dvfs_aware ~tiles
        ~label_floor:Dvfs.Relax
        ~label_guard:(if k.upset_rate > 0.0 then 1 else 0)
        ~max_ii:(min 64 (old_ii * 4))
        ~cancel ~dead_tiles ~dead_links cgra
    in
    Iced_mapper.Mapper.map req
      k.prepared.instance.Pipeline.kernel.Iced_kernels.Kernel.dfg
    |> Result.map (fun mapping ->
           let c =
             Partition.candidate ~islands:h.count
               (Iced_mapper.Levels.assign ~floor:Dvfs.Relax ~allow_gating:false mapping)
           in
           k.override <- Some c;
           c)
  end

let charge lane candidate =
  let us = Recovery.reconfig_us candidate in
  lane.pending_us <- lane.pending_us +. us;
  lane.fstats <- { lane.fstats with recovery_time_us = lane.fstats.recovery_time_us +. us }

(* Power the island off under its kernel and re-floorplan (shrink,
   else borrow from the richest kernel), charging every reload. *)
let gate lane h island =
  lane.fstats <- { lane.fstats with islands_gated = lane.fstats.islands_gated + 1 };
  let resize h = Result.map (charge lane) (rebuild lane h) in
  match Recovery.gate ~resize (List.map snd lane.kernels) h ~island with
  | Ok () -> ()
  | Error _ -> raise Recovery_failed

let inject lane fault =
  lane.fstats <- { lane.fstats with injected = lane.fstats.injected + 1 };
  let island = Fault.island_of lane.partition.Partition.cgra fault in
  match Recovery.owner (List.map snd lane.kernels) island with
  | None -> () (* the island was already gated away: the fault is harmless *)
  | Some h -> (
    let k = h.Recovery.item in
    match fault with
    | Fault.Upsets { rate; _ } -> (
      k.upset_rate <- Float.max k.upset_rate rate;
      match lane.recovery with
      | Fail_stop -> raise Recovery_failed
      | Raise_level ->
        (* full voltage margin clears voltage-induced upsets; the
           ns-scale regulator switch is free *)
        if not k.pinned then begin
          k.pinned <- true;
          let s = lane.fstats in
          lane.fstats <-
            { s with levels_raised = s.levels_raised + 1; recoveries = s.recoveries + 1 }
        end
      | Remap | Gate_island ->
        (* endure the replays; future remaps keep a guard band *)
        ())
    | Fault.Tile_dead _ | Fault.Link_broken _ | Fault.Island_down _ -> (
      match lane.recovery with
      | Fail_stop -> raise Recovery_failed
      | Raise_level -> raise Recovery_failed (* voltage cannot fix dead silicon *)
      | Remap | Gate_island ->
        k.faults <- fault :: k.faults;
        (match (lane.recovery, fault) with
        | Remap, (Fault.Tile_dead _ | Fault.Link_broken _) -> (
          match rebuild lane h with
          | Ok c ->
            if k.override <> None then
              lane.fstats <- { lane.fstats with remaps = lane.fstats.remaps + 1 };
            charge lane c
          | Error _ -> gate lane h island (* escalate *))
        | _ ->
          (* gating recovery, or a dead island, where remapping is
             meaningless *)
          gate lane h island);
        lane.fstats <- { lane.fstats with recoveries = lane.fstats.recoveries + 1 }))

(* Consume one input; [on_input] sees its unstalled period, its wall
   time (recovery stall and replays included), tiles and SRAM activity. *)
let consume ?on_input lane input =
  let i = lane.next in
  (* the input's faults fire first (traced: an activation instant plus a
     recovery span carrying the latency charged, the MTTR feed) *)
  List.iter
    (fun fault ->
      Obs.instant
        ~args:(fun () ->
          [ ("input", Obs.Int i); ("kind", Obs.Str (Fault.kind_to_string fault)) ])
        ~cat:"fault" ~name:"activate" ();
      let before = lane.fstats.recovery_time_us in
      Obs.span
        ~args:(fun () -> [ ("recovery", Obs.Str (recovery_to_string lane.recovery)) ])
        ~result:(fun () ->
          [ ("recovery_us", Obs.Float (lane.fstats.recovery_time_us -. before)) ])
        ~cat:"fault" ~name:"recover"
        (fun () -> inject lane fault))
    (Fault.events_at lane.plan i);
  let period_us, costs, tiles, sram_activity = account lane input in
  (* recovery latency stalls the pipeline in front of this input *)
  let wall_us = ref (period_us +. lane.pending_us) in
  lane.w_recovery_us <- lane.w_recovery_us +. lane.pending_us;
  lane.pending_us <- 0.0;
  (* transient upsets: a deterministic draw decides whether this input
     was corrupted on an upset-afflicted island; a corrupted input is
     replayed once, and a second strike loses it *)
  let lost = ref false in
  List.iter
    (fun (label, (h : kernel Recovery.holder)) ->
      if h.item.upset_rate > 0.0 then begin
        let rate = Fault.upset_rate ~rate:h.item.upset_rate (level_of lane label) in
        Option.iter
          (fun cost ->
            let p = Fault.upset_probability ~rate ~cycles:cost.cycles in
            let seed = lane.plan.Fault.seed in
            if Fault.upset_draw ~seed ~input:i ~salt:label < p then begin
              lane.fstats <-
                { lane.fstats with inputs_replayed = lane.fstats.inputs_replayed + 1 };
              wall_us := !wall_us +. cost.wall_us;
              if Fault.upset_draw ~seed ~input:i ~salt:(label ^ ":retry") < p then lost := true
            end)
          (List.find_opt (fun c -> c.label = label) costs)
      end)
    lane.kernels;
  if !lost then
    lane.fstats <- { lane.fstats with inputs_dropped = lane.fstats.inputs_dropped + 1 };
  lane.next <- i + 1;
  let power =
    Model.total_power_mw Params.default lane.design lane.partition.Partition.cgra ~tiles
      ~sram_activity
  in
  lane.w_periods <- !wall_us :: lane.w_periods;
  lane.w_powers <- power :: lane.w_powers;
  Option.iter (fun f -> f ~period_us ~wall_us:!wall_us tiles sram_activity) on_input;
  (* feed the runtime monitor *)
  match lane.monitor with
  | Dvfs c ->
    List.iter (fun cost -> Controller.observe c ~label:cost.label ~busy_time:cost.wall_us) costs;
    Controller.input_done c
  | Repartition d ->
    List.iter (fun cost -> Drips.observe d ~label:cost.label ~busy_time:cost.wall_us) costs;
    Drips.input_done d
  | Fixed -> ()

(* Close the open window into a report (levels read after the
   monitor's window-boundary adjustment). *)
let flush lane index =
  let dropped = lane.fstats.inputs_dropped - lane.w_start.inputs_dropped in
  if lane.w_periods <> [] || dropped > 0 then begin
    let consumed = List.length lane.w_periods in
    let mean_period =
      if consumed = 0 then 0.0 else Iced_util.Stats.mean lane.w_periods
    in
    let power = if consumed = 0 then 0.0 else Iced_util.Stats.mean lane.w_powers in
    let throughput = if mean_period > 0.0 then 1e6 /. mean_period else 0.0 in
    lane.reports <-
      {
        index;
        inputs = consumed;
        mean_period_us = mean_period;
        throughput_per_s = throughput;
        power_mw = power;
        efficiency = (if power > 0.0 then throughput /. (power /. 1000.0) else 0.0);
        levels = List.map (fun (label, _) -> (label, level_of lane label)) lane.kernels;
        allocation = allocation lane;
        dropped;
        replayed = lane.fstats.inputs_replayed - lane.w_start.inputs_replayed;
        recovery_us = lane.w_recovery_us;
      }
      :: lane.reports;
    lane.w_periods <- [];
    lane.w_powers <- [];
    lane.w_start <- lane.fstats;
    lane.w_recovery_us <- 0.0
  end

(* Consume one window of the lane's inputs and report it.  A trailing
   partial window takes index [total / window], the index an abort's
   final report takes too. *)
let step ?on_input lane =
  let rec go n =
    match lane.remaining with
    | input :: rest when n < lane.window ->
      consume ?on_input lane input;
      lane.remaining <- rest;
      go (n + 1)
    | _ -> n
  in
  let full = lane.next / lane.window in
  let n = go 0 in
  flush lane (if n = lane.window then full else lane.total / lane.window)

(* One solo window; when traced, inside a ["stream"]/["window"] span
   stamped with the report's input counts, the controller's bottleneck
   kernel and the closing per-kernel levels. *)
let solo_window lane =
  let w = lane.next / lane.window in
  Obs.span
    ~args:(fun () -> [ ("window", Obs.Int w) ])
    ~result:(fun () ->
      let bottleneck =
        match lane.monitor with
        | Dvfs c -> (
          match Controller.last_bottleneck c with
          | Some (label, _) -> [ ("bottleneck", Obs.Str label) ]
          | None -> [])
        | Fixed | Repartition _ -> []
      in
      (* the step always closes this window's report *)
      let r = List.hd lane.reports in
      bottleneck
      @ [ ("inputs", Obs.Int r.inputs); ("dropped", Obs.Int r.dropped);
          ("replayed", Obs.Int r.replayed) ]
      @ List.map
          (fun (label, lvl) -> ("level:" ^ label, Obs.Str (Dvfs.to_string lvl)))
          r.levels)
    ~cat:"stream" ~name:"window"
    (fun () -> step lane)

(* A whole run: inside one span when traced, silenced when [trace] is off. *)
let run_span ~trace ~cat ~name args body =
  if trace then Obs.span ~args ~cat ~name body else Obs.suppress body

let default_window = 10

let run_resilient ?(window = default_window) ?(faults = Fault.none) ?(recovery = Fail_stop)
    ?(trace = true) partition policy inputs =
  run_span ~trace ~cat:"stream" ~name:"run"
    (fun () ->
      [
        ("policy", Obs.Str (policy_to_string policy));
        ("recovery", Obs.Str (recovery_to_string recovery));
        ("inputs", Obs.Int (List.length inputs));
        ("window", Obs.Int window);
      ])
  @@ fun () ->
  if policy = Drips && not (Fault.is_empty faults) then
    invalid_arg
      "Runner.run_resilient: the DRIPS baseline has no fault model; use Static or Iced_dvfs";
  let lane = lane ~window ~plan:faults ~recovery partition policy inputs in
  (try
     while lane.remaining <> [] do
       solo_window lane
     done
   with Recovery_failed ->
     (* fail-stop (or an exhausted recovery): the remaining stream is
        lost; account the loss instead of hiding it *)
     let lost = lane.total - lane.next in
     lane.fstats <- { lane.fstats with inputs_dropped = lane.fstats.inputs_dropped + lost };
     flush lane (lane.total / window));
  let s = lane.fstats in
  let stats =
    {
      s with
      mttr_us =
        (if s.recoveries > 0 then s.recovery_time_us /. float_of_int s.recoveries else 0.0);
      offered = lane.total;
      completed = lane.total - s.inputs_dropped;
    }
  in
  Iced_obs.Metrics.incr "stream.runs";
  Iced_obs.Metrics.incr ~by:stats.injected "stream.faults.injected";
  Iced_obs.Metrics.incr ~by:stats.recoveries "stream.faults.recoveries";
  (List.rev lane.reports, stats)

let run ?window ?trace partition policy inputs =
  fst (run_resilient ?window ~faults:Fault.none ?trace partition policy inputs)

type totals = {
  total_inputs : int;
  total_time_us : float;
  total_energy_uj : float;
  overall_throughput_per_s : float;
  overall_efficiency : float;
}

let aggregate reports =
  let total_inputs = List.fold_left (fun acc r -> acc + r.inputs) 0 reports in
  let total_time_us =
    List.fold_left (fun acc r -> acc +. (float_of_int r.inputs *. r.mean_period_us)) 0.0 reports
  in
  let total_energy_uj =
    List.fold_left
      (fun acc r ->
        acc +. (r.power_mw /. 1000.0 *. float_of_int r.inputs *. r.mean_period_us))
      0.0 reports
  in
  let throughput =
    if total_time_us > 0.0 then float_of_int total_inputs /. total_time_us *. 1e6 else 0.0
  in
  let watts = if total_time_us > 0.0 then total_energy_uj /. total_time_us else 0.0 in
  {
    total_inputs;
    total_time_us;
    total_energy_uj;
    overall_throughput_per_s = throughput;
    overall_efficiency = (if watts > 0.0 then throughput /. watts else 0.0);
  }

(* ------------------------------------------------------------------ *)
(* shared-fabric multi-tenant streaming *)

type tenant_stream = {
  tenant : string;
  partition : Partition.t;
  stream : Pipeline.input list;
}

type reassignment = {
  swaps : (string * Partition.t * float) list;
  evictions : string list;
}

type tenant_window = {
  owner : string;
  report : window_report;
  granted : (string * Dvfs.level) list;
  throttled : bool;
  busy_us : float;
}

type shared_window = {
  round : int;
  span_us : float;
  fabric_power_mw : float;
  slices : tenant_window list;
}

type shared_report = {
  rounds : shared_window list;
  tenant_reports : (string * window_report list) list;
  evicted : (string * int) list;
  peak_power_mw : float;
}

let run_shared ?(arbitrate = fun ~round:_ desired -> desired) ?reconfigure ?(trace = true)
    ~fabric tenants =
  let window = default_window in
  run_span ~trace ~cat:"tenancy" ~name:"run_shared"
    (fun () -> [ ("tenants", Obs.Int (List.length tenants)); ("window", Obs.Int window) ])
  @@ fun () ->
  if tenants = [] then invalid_arg "Runner.run_shared: no tenants";
  List.iteri
    (fun i t ->
      if List.exists (fun u -> u.tenant = t.tenant) (List.filteri (fun j _ -> j < i) tenants)
      then invalid_arg ("Runner.run_shared: duplicate tenant id " ^ t.tenant))
    tenants;
  (* the controller persists across rounds and partition swaps: its
     cross-window memory sees the tenant's whole stream, as in a solo
     [run] *)
  let lanes =
    List.map
      (fun t ->
        let l = lane ~window t.partition Iced_dvfs t.stream in
        match l.monitor with
        | Dvfs c -> (t.tenant, c, l)
        | Fixed | Repartition _ -> assert false)
      tenants
  in
  let overhead_mw = Model.overhead_power_mw Params.default Model.Iced fabric in
  let evicted = ref [] in
  (* a reassignment only touches known, not yet evicted tenants *)
  let with_live id f =
    match List.find_opt (fun (i, _, _) -> i = id) lanes with
    | Some (_, _, l) when not (List.mem_assoc id !evicted) -> f l
    | _ -> ()
  in
  let reassign (r : reassignment) =
    List.iter
      (fun (id, p, penalty_us) ->
        with_live id (fun l ->
            l.partition <- p;
            l.kernels <- kernels_of p;
            l.pending_us <- l.pending_us +. penalty_us))
      r.swaps;
    List.iter
      (fun id ->
        with_live id (fun l ->
            evicted := (id, List.length l.remaining) :: !evicted;
            l.remaining <- []))
      r.evictions
  in
  let run_round round act =
    let desired = List.map (fun (id, c, _) -> (id, Controller.levels c)) act in
    let granted = arbitrate ~round desired in
    let slices =
      List.map
        (fun (id, c, l) ->
          let d = List.assoc id desired in
          let g = match List.assoc_opt id granted with Some g -> g | None -> d in
          Controller.impose c g;
          (* the round's fabric integrals: tile energy and SRAM
             activity-time over the unstalled periods *)
          let busy_us = ref 0.0 and tile_mw_us = ref 0.0 and sram_us = ref 0.0 in
          step l ~on_input:(fun ~period_us ~wall_us tiles sram_activity ->
              let tile_mw =
                List.fold_left
                  (fun acc tm -> acc +. Model.tile_power_mw Params.default tm)
                  0.0 tiles
              in
              tile_mw_us := !tile_mw_us +. (period_us *. tile_mw);
              sram_us := !sram_us +. (sram_activity *. period_us);
              busy_us := !busy_us +. wall_us);
          ( { owner = id; report = List.hd l.reports; granted = g; throttled = g <> d;
              busy_us = !busy_us },
            (!tile_mw_us, !sram_us, l) ))
        act
    in
    let span_us =
      List.fold_left (fun acc (tw, _) -> Float.max acc tw.busy_us) 0.0 slices
    in
    (* Fabric-level power over the round: each tenant's tiles burn
       their accounted active energy over their busy time and idle
       (activity-0) power at the granted levels for the rest of the
       round; drained tenants' islands are power-gated and free.  The
       SPM and the per-island controller overhead of the whole fabric
       are charged once — never once per tenant.  Every term is
       bounded by the activity-1.0 envelope at the granted levels, so
       a cap admitted on that envelope holds here. *)
    let tile_energy =
      List.fold_left
        (fun acc (tw, (tile_mw_us, _, (l : lane))) ->
          let idle_us = Float.max 0.0 (span_us -. tw.busy_us) in
          let idle_mw =
            List.fold_left
              (fun acc (label, tiles) ->
                let level =
                  Option.value ~default:Dvfs.Normal (List.assoc_opt label tw.granted)
                in
                acc
                +. float_of_int tiles
                   *. Model.tile_power_mw Params.default { Model.level; activity = 0.0 })
              0.0 (Recovery.tiles l.partition)
          in
          acc +. tile_mw_us +. (idle_mw *. idle_us))
        0.0 slices
    in
    let sram_int = List.fold_left (fun acc (_, (_, s, _)) -> acc +. s) 0.0 slices in
    let sram_activity =
      if span_us > 0.0 then Float.min 1.0 (sram_int /. span_us) else 0.0
    in
    {
      round;
      span_us;
      fabric_power_mw =
        (if span_us > 0.0 then tile_energy /. span_us else 0.0)
        +. Model.sram_power_mw Params.default ~activity:sram_activity
        +. overhead_mw;
      slices = List.map fst slices;
    }
  in
  let active () = List.filter (fun (_, _, l) -> l.remaining <> []) lanes in
  let rec loop round acc =
    match active () with
    | [] -> List.rev acc
    | act -> (
      Option.iter
        (fun f ->
          Option.iter reassign
            (f ~round ~active:(List.map (fun (id, _, (l : lane)) -> (id, l.partition)) act)))
        reconfigure;
      match active () with
      | [] -> List.rev acc
      | act ->
        let r =
          Obs.span
            ~args:(fun () ->
              [ ("round", Obs.Int round); ("tenants", Obs.Int (List.length act)) ])
            ~result:(fun r ->
              [ ("span_us", Obs.Float r.span_us); ("power_mw", Obs.Float r.fabric_power_mw) ])
            ~cat:"tenancy" ~name:"round"
            (fun () -> run_round round act)
        in
        loop (round + 1) (r :: acc))
  in
  let rounds = loop 0 [] in
  Iced_obs.Metrics.incr "tenancy.runs";
  Iced_obs.Metrics.incr ~by:(List.length rounds) "tenancy.rounds";
  {
    rounds;
    tenant_reports = List.map (fun (id, _, l) -> (id, List.rev l.reports)) lanes;
    evicted = List.rev !evicted;
    peak_power_mw =
      List.fold_left (fun acc r -> Float.max acc r.fabric_power_mw) 0.0 rounds;
  }
