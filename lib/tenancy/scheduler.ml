module Runner = Iced_stream.Runner
module Partition = Iced_stream.Partition
module Pipeline = Iced_stream.Pipeline
module Cgra = Iced_arch.Cgra
module Fault = Iced_fault.Fault
module Recovery = Iced_stream.Recovery

type spec = { faults : int; fault_seed : int }

let fabric = Cgra.make ~rows:12 ~cols:4 ()
let default_spec = { faults = 0; fault_seed = 7 }

type placement = {
  tenant : Tenant.t;
  min_islands : int;
  islands : int;
  owned : int list;
  partitions : (int * Partition.t) list;
}

type plan = { spec : spec; placements : placement list }

let tenant_count plan = List.length plan.placements

(* Every island of a tenant's sub-fabric must touch column 0 (the SPM
   ports live there), so islands stack vertically: [count] islands of
   the fabric's island shape, one per block row. *)
let sub_fabric count =
  Cgra.make
    ~island:(fabric.Cgra.island_rows, fabric.Cgra.island_cols)
    ~spm_banks:fabric.Cgra.spm_banks ~spm_kbytes:fabric.Cgra.spm_kbytes
    ~rows:(fabric.Cgra.island_rows * count)
    ~cols:fabric.Cgra.island_cols ()

let profile_of (t : Tenant.t) = List.filteri (fun i _ -> i < 50) t.Tenant.inputs

let prepare_at (t : Tenant.t) count =
  Partition.prepare ~max_islands_per_kernel:count (sub_fabric count)
    t.Tenant.pipeline ~profile:(profile_of t)

let min_islands_of (t : Tenant.t) =
  max 1 (List.length (Pipeline.instances t.Tenant.pipeline))

(* Weighted largest-remainder island split: every tenant gets its
   pipeline's minimum, the spare islands go proportionally to QoS
   weight, ties on the remainder break by tenant id. *)
let shares tenants =
  let total = Cgra.island_count fabric in
  let mins = List.map (fun t -> (t, min_islands_of t)) tenants in
  let need = List.fold_left (fun a (_, m) -> a + m) 0 mins in
  if need > total then
    Error
      (Printf.sprintf "fabric has %d islands but the fleet needs at least %d"
         total need)
  else begin
    let spare = total - need in
    let wsum =
      List.fold_left (fun a (t, _) -> a +. Qos.weight t.Tenant.qos) 0.0 mins
    in
    let quota =
      List.map
        (fun (t, m) ->
          let q = float_of_int spare *. Qos.weight t.Tenant.qos /. wsum in
          (t, m, int_of_float (Float.floor q), q -. Float.floor q))
        mins
    in
    let used = List.fold_left (fun a (_, _, fl, _) -> a + fl) 0 quota in
    let leftover = spare - used in
    let order =
      List.mapi (fun i (t, _, _, r) -> (i, t, r)) quota
      |> List.sort (fun (_, t1, r1) (_, t2, r2) ->
             if r1 <> r2 then compare r2 r1
             else compare t1.Tenant.id t2.Tenant.id)
    in
    let bonus =
      List.filteri (fun k _ -> k < leftover) order |> List.map (fun (i, _, _) -> i)
    in
    Ok
      (List.mapi
         (fun i (t, m, fl, _) ->
           let extra = fl + if List.mem i bonus then 1 else 0 in
           (* candidate preparation cost grows with island count: cap a
              tenant's share at six islands per pipeline instance *)
           let cap = 6 * min_islands_of t in
           (t, min (m + extra) cap))
         quota)
  end

let plan ?(spec = default_spec) tenants =
  if tenants = [] then Error "Scheduler.plan: no tenants"
  else
    let rec dup = function
      | [] -> None
      | (t : Tenant.t) :: rest ->
        if List.exists (fun (u : Tenant.t) -> u.Tenant.id = t.Tenant.id) rest
        then Some t.Tenant.id
        else dup rest
    in
    match dup tenants with
    | Some id -> Error ("Scheduler.plan: duplicate tenant id " ^ id)
    | None -> (
      match shares tenants with
      | Error e -> Error e
      | Ok assigned ->
        let next_island = ref 0 in
        let rec place acc = function
          | [] -> Ok (List.rev acc)
          | ((t : Tenant.t), count) :: rest -> (
            let min_islands = min_islands_of t in
            (* fall back one island at a time when the mapper cannot
               fill the assigned share; freed islands simply idle *)
            let rec settle c =
              if c < min_islands then
                Error
                  (Printf.sprintf "tenant %s: no feasible partition" t.Tenant.id)
              else
                match prepare_at t c with
                | Ok p -> Ok (c, p)
                | Error _ when c > min_islands -> settle (c - 1)
                | Error e -> Error (Printf.sprintf "tenant %s: %s" t.Tenant.id e)
            in
            match settle count with
            | Error e -> Error e
            | Ok (c, p) ->
              (* with faults on, recovery may shrink any tenant:
                 prepare the smaller geometries up front so
                 reallocation stays deterministic and cheap *)
              let lower =
                if spec.faults = 0 then []
                else
                  List.filter_map
                    (fun cc ->
                      match prepare_at t cc with
                      | Ok pp -> Some (cc, pp)
                      | Error _ -> None)
                    (List.init (c - min_islands) (fun k -> min_islands + k))
              in
              let owned = List.init c (fun k -> !next_island + k) in
              next_island := !next_island + c;
              place
                ({
                   tenant = t;
                   min_islands;
                   islands = c;
                   owned;
                   partitions = lower @ [ (c, p) ];
                 }
                :: acc)
                rest)
        in
        (match place [] assigned with
        | Ok placements -> Ok { spec; placements }
        | Error e -> Error e))

(* ------------------------------------------------------------------ *)
(* running a plan *)

type round_row = {
  round : int;
  span_us : float;
  power_mw : float;
  desired_mw : float;
  granted_mw : float;
  throttled : string list;
  infeasible : bool;
  reallocated : string list;
}

type tenant_summary = {
  id : string;
  qos : Qos.class_;
  islands : int;
  offered : int;
  completed : int;
  throughput_per_s : float;
  mean_power_mw : float;
  energy_uj : float;
  throttled_rounds : int;
  evicted : bool;
}

type report = {
  policy : Allocator.policy;
  cap_mw : float option;
  tenant_count : int;
  rounds : round_row list;
  tenants : tenant_summary list;
  aggregate_throughput_per_s : float;
  fairness : float;
  peak_power_mw : float;
  cap_ok : bool;
  infeasible_rounds : int;
  total_span_us : float;
  faults_injected : int;
  reallocations : int;
  evictions : int;
}

let reconfig_penalty_us (p : Partition.t) =
  List.fold_left
    (fun acc (label, _) -> acc +. Recovery.reconfig_us (Partition.allocated p label))
    0.0 p.Partition.allocation

let partition_at placement count = List.assoc_opt count placement.partitions

let jain = function
  | [] -> 1.0
  | xs ->
    let n = float_of_int (List.length xs) in
    let s = List.fold_left ( +. ) 0.0 xs in
    let s2 = List.fold_left (fun a x -> a +. (x *. x)) 0.0 xs in
    if s2 <= 0.0 then 1.0 else s *. s /. (n *. s2)

let members_of plan =
  List.map
    (fun pl ->
      Allocator.member ~id:pl.tenant.Tenant.id ~qos:pl.tenant.Tenant.qos
        (Recovery.tiles (List.assoc pl.islands pl.partitions)))
    plan.placements

let max_envelope_mw plan =
  Allocator.max_envelope_mw
    (Allocator.create ~policy:Allocator.Fair_share ~fabric (members_of plan))

let floor_envelope_mw plan =
  Allocator.floor_envelope_mw
    (Allocator.create ~policy:Allocator.Fair_share ~fabric (members_of plan))

let run ?cap_mw ~policy plan =
  let spec = plan.spec in
  (* fresh mutable holders per run: a plan is shared read-only across
     sweep workers *)
  let holders =
    List.map
      (fun pl ->
        { Recovery.item = pl; floor = pl.min_islands; count = pl.islands; owned = pl.owned })
      plan.placements
  in
  let id (h : placement Recovery.holder) = h.item.tenant.Tenant.id in
  let alloc = Allocator.create ?cap_mw ~policy ~fabric (members_of plan) in
  let est_rounds =
    List.fold_left
      (fun acc pl ->
        max acc
          ((List.length pl.tenant.Tenant.inputs + Runner.default_window - 1)
          / Runner.default_window))
      1 plan.placements
  in
  let fault_events =
    if spec.faults = 0 then []
    else
      Fault.random_events ~seed:spec.fault_seed ~cgra:fabric
        ~inputs:(max 2 est_rounds) ~kinds:[ Fault.Island ] ~count:spec.faults ()
  in
  let faults_injected = ref 0 in
  let reallocations = ref 0 in
  let realloc_by_round = Hashtbl.create 8 in
  let note_realloc round id =
    let cur = try Hashtbl.find realloc_by_round round with Not_found -> [] in
    if not (List.mem id cur) then Hashtbl.replace realloc_by_round round (cur @ [ id ])
  in
  (* Fault-triggered island reallocation ACROSS tenants: a dead island
     shrinks its owner onto a prepared smaller partition, else the owner
     borrows an island from the richest live tenant (ties on id), else
     the owner is evicted.  Reconfiguration latency is charged per
     bitstream word, exactly like single-tenant recovery. *)
  let reconfigure ~round ~active =
    let dead =
      List.filter_map
        (fun (e : Fault.event) ->
          if e.Fault.at_input = round then
            match e.Fault.fault with Fault.Island_down i -> Some i | _ -> None
          else None)
        fault_events
    in
    let swaps = ref [] and evictions = ref [] in
    (* a fit is a prepared partition; taking it swaps the tenant over *)
    let resize h =
      match partition_at h.Recovery.item h.count with
      | None -> Error "no prepared partition"
      | Some p ->
        swaps := !swaps @ [ (id h, p, reconfig_penalty_us p) ];
        Allocator.update_tiles alloc ~id:(id h) (Recovery.tiles p);
        note_realloc round (id h);
        incr reallocations;
        Ok ()
    in
    List.iter
      (fun island ->
        incr faults_injected;
        (* tenants evicted earlier are no longer [active] *)
        let fleet =
          List.filter
            (fun h -> List.mem_assoc (id h) active && not (List.mem (id h) !evictions))
            holders
          |> List.sort (fun a b -> compare (id a) (id b))
        in
        match Recovery.owner fleet island with
        | None -> () (* unowned or drained island: harmless *)
        | Some victim -> (
          match Recovery.gate ~resize fleet victim ~island with
          | Ok () -> ()
          | Error _ -> evictions := !evictions @ [ id victim ]))
      dead;
    if !swaps = [] && !evictions = [] then None
    else begin
      Iced_obs.Metrics.incr ~by:(List.length !swaps) "tenancy.reallocations";
      Some { Runner.swaps = !swaps; evictions = !evictions }
    end
  in
  let streams =
    List.map
      (fun h ->
        {
          Runner.tenant = id h;
          partition = List.assoc h.Recovery.count h.item.partitions;
          stream = h.item.tenant.Tenant.inputs;
        })
      holders
  in
  let shared =
    Runner.run_shared ~arbitrate:(Allocator.arbitrate alloc) ~reconfigure ~fabric streams
  in
  let decisions = Allocator.decisions alloc in
  let rounds =
    List.map2
      (fun (r : Runner.shared_window) (d : Allocator.decision) ->
        {
          round = r.Runner.round;
          span_us = r.Runner.span_us;
          power_mw = r.Runner.fabric_power_mw;
          desired_mw = d.Allocator.desired_mw;
          granted_mw = d.Allocator.granted_mw;
          throttled = d.Allocator.throttled;
          infeasible = d.Allocator.infeasible;
          reallocated =
            (try Hashtbl.find realloc_by_round r.Runner.round
             with Not_found -> []);
        })
      shared.Runner.rounds decisions
  in
  let cap_ok =
    match cap_mw with
    | None -> true
    | Some cap ->
      List.for_all (fun rr -> rr.infeasible || rr.power_mw <= cap +. 1e-9) rounds
  in
  let total_span_us = List.fold_left (fun a r -> a +. r.span_us) 0.0 rounds in
  let evicted_ids = List.map fst shared.Runner.evicted in
  let tenant_summaries =
    List.map
      (fun (h : placement Recovery.holder) ->
        let pl = h.item in
        let id = pl.tenant.Tenant.id in
        let reports =
          match List.assoc_opt id shared.Runner.tenant_reports with
          | Some r -> r
          | None -> []
        in
        let totals = Runner.aggregate reports in
        let busy_us, throttled_rounds =
          List.fold_left
            (fun acc (r : Runner.shared_window) ->
              List.fold_left
                (fun (b, n) (tw : Runner.tenant_window) ->
                  if tw.Runner.owner = id then
                    (b +. tw.Runner.busy_us, if tw.Runner.throttled then n + 1 else n)
                  else (b, n))
                acc r.Runner.slices)
            (0.0, 0) shared.Runner.rounds
        in
        let completed = totals.Runner.total_inputs in
        {
          id;
          qos = pl.tenant.Tenant.qos;
          islands = h.count;
          offered = List.length pl.tenant.Tenant.inputs;
          completed;
          throughput_per_s =
            (if busy_us > 0.0 then float_of_int completed /. busy_us *. 1e6
             else 0.0);
          mean_power_mw =
            (if totals.Runner.total_time_us > 0.0 then
               totals.Runner.total_energy_uj /. totals.Runner.total_time_us
               *. 1000.0
             else 0.0);
          energy_uj = totals.Runner.total_energy_uj;
          throttled_rounds;
          evicted = List.mem id evicted_ids;
        })
      holders
  in
  let completed_total =
    List.fold_left (fun a (s : tenant_summary) -> a + s.completed) 0 tenant_summaries
  in
  {
    policy;
    cap_mw;
    tenant_count = List.length plan.placements;
    rounds;
    tenants = tenant_summaries;
    aggregate_throughput_per_s =
      (if total_span_us > 0.0 then
         float_of_int completed_total /. total_span_us *. 1e6
       else 0.0);
    fairness =
      jain (List.map (fun (s : tenant_summary) -> s.throughput_per_s) tenant_summaries);
    peak_power_mw = shared.Runner.peak_power_mw;
    cap_ok;
    infeasible_rounds =
      List.length (List.filter (fun rr -> rr.infeasible) rounds);
    total_span_us;
    faults_injected = !faults_injected;
    reallocations = !reallocations;
    evictions = List.length evicted_ids;
  }

let starved report =
  List.filter_map
    (fun (s : tenant_summary) ->
      if (not s.evicted) && s.completed < s.offered then Some s.id else None)
    report.tenants

(* ------------------------------------------------------------------ *)
(* rendering *)

let report_json r =
  let module J = Iced_util.Json in
  let ids l = J.Arr (List.map (fun id -> J.Str id) l) in
  let round rr =
    J.Obj
      [ ("round", J.int rr.round); ("span_us", J.Num rr.span_us);
        ("power_mw", J.Num rr.power_mw); ("desired_mw", J.Num rr.desired_mw);
        ("granted_mw", J.Num rr.granted_mw); ("throttled", ids rr.throttled);
        ("infeasible", J.Bool rr.infeasible); ("reallocated", ids rr.reallocated) ]
  in
  let tenant (s : tenant_summary) =
    J.Obj
      [ ("id", J.Str s.id); ("qos", J.Str (Qos.to_string s.qos)); ("islands", J.int s.islands);
        ("offered", J.int s.offered); ("completed", J.int s.completed);
        ("throughput_per_s", J.Num s.throughput_per_s);
        ("mean_power_mw", J.Num s.mean_power_mw); ("energy_uj", J.Num s.energy_uj);
        ("throttled_rounds", J.int s.throttled_rounds); ("evicted", J.Bool s.evicted) ]
  in
  J.to_string
    (J.Obj
       [ ("schema", J.Str "iced-tenancy-report-v1");
         ("policy", J.Str (Allocator.policy_to_string r.policy));
         ("cap_mw", match r.cap_mw with None -> J.Null | Some c -> J.Num c);
         ("tenants", J.int r.tenant_count);
         ("aggregate_throughput_per_s", J.Num r.aggregate_throughput_per_s);
         ("fairness", J.Num r.fairness); ("peak_power_mw", J.Num r.peak_power_mw);
         ("cap_ok", J.Bool r.cap_ok); ("infeasible_rounds", J.int r.infeasible_rounds);
         ("total_span_us", J.Num r.total_span_us); ("faults_injected", J.int r.faults_injected);
         ("reallocations", J.int r.reallocations); ("evictions", J.int r.evictions);
         ("rounds", J.Arr (List.map round r.rounds));
         ("tenant_summaries", J.Arr (List.map tenant r.tenants)) ])

let render fmt r =
  Format.fprintf fmt "policy %s   cap %s   tenants %d@."
    (Allocator.policy_to_string r.policy)
    (match r.cap_mw with None -> "none" | Some c -> Printf.sprintf "%.1f mW" c)
    r.tenant_count;
  Format.fprintf fmt
    "throughput %.1f inputs/s   fairness %.4f   peak %.1f mW   cap_ok %b@."
    r.aggregate_throughput_per_s r.fairness r.peak_power_mw r.cap_ok;
  if r.faults_injected > 0 then
    Format.fprintf fmt "faults %d   reallocations %d   evictions %d@."
      r.faults_injected r.reallocations r.evictions;
  if r.infeasible_rounds > 0 then
    Format.fprintf fmt "CAP EXHAUSTION: %d infeasible round(s)@." r.infeasible_rounds;
  Format.fprintf fmt "%-16s %-9s %3s %6s %6s %12s %10s %6s@." "tenant" "qos"
    "isl" "in" "done" "inputs/s" "power mW" "thr";
  List.iter
    (fun (s : tenant_summary) ->
      Format.fprintf fmt "%-16s %-9s %3d %6d %6d %12.1f %10.2f %6d%s@." s.id
        (Qos.to_string s.qos) s.islands s.offered s.completed s.throughput_per_s
        s.mean_power_mw s.throttled_rounds
        (if s.evicted then "  EVICTED" else ""))
    r.tenants
