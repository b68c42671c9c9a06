module Pool = Iced_explore.Pool
module Pareto = Iced_explore.Pareto

type row = {
  fraction : float;
  cap_mw : float;
  policy : Allocator.policy;
  tenants : int;
  throughput_per_s : float;
  fairness : float;
  peak_power_mw : float;
  cap_ok : bool;
  throttled_rounds : int;
  infeasible_rounds : int;
  starved : string list;
  evictions : int;
  pareto : bool;
}

type sweep = {
  tenants : int;
  max_envelope_mw : float;
  floor_envelope_mw : float;
  rows : row list;
}

let default_fractions = [ 1.0; 0.85; 0.7; 0.55; 0.45 ]

let run ?(fractions = default_fractions)
    ?(policies = [ Allocator.Fair_share ]) ?(workers = 1) ?on_item plan =
  if fractions = [] then invalid_arg "Capsweep.run: no fractions";
  if policies = [] then invalid_arg "Capsweep.run: no policies";
  let env = Scheduler.max_envelope_mw plan in
  let floor = Scheduler.floor_envelope_mw plan in
  let cells =
    List.concat_map
      (fun policy -> List.map (fun f -> (policy, f)) fractions)
      policies
    |> Array.of_list
  in
  let results =
    Pool.map ~workers ?on_item
      (fun (policy, fraction) ->
        let cap = fraction *. env in
        let r = Scheduler.run ~cap_mw:cap ~policy plan in
        {
          fraction;
          cap_mw = cap;
          policy;
          tenants = r.Scheduler.tenant_count;
          throughput_per_s = r.Scheduler.aggregate_throughput_per_s;
          fairness = r.Scheduler.fairness;
          peak_power_mw = r.Scheduler.peak_power_mw;
          cap_ok = r.Scheduler.cap_ok;
          throttled_rounds =
            List.length
              (List.filter
                 (fun rr -> rr.Scheduler.throttled <> [])
                 r.Scheduler.rounds);
          infeasible_rounds = r.Scheduler.infeasible_rounds;
          starved = Scheduler.starved r;
          evictions = r.Scheduler.evictions;
          pareto = false;
        })
      cells
  in
  let rows = Array.to_list results in
  let front =
    Pareto.frontier
      ~objectives:(fun row ->
        [ row.throughput_per_s; row.fairness; -.row.cap_mw ])
      rows
  in
  let rows = List.map (fun row -> { row with pareto = List.memq row front }) rows in
  {
    tenants = Scheduler.tenant_count plan;
    max_envelope_mw = env;
    floor_envelope_mw = floor;
    rows;
  }

(* ------------------------------------------------------------------ *)
(* rendering *)

let sweep_value s =
  let module J = Iced_util.Json in
  let row r =
    J.Obj
      [ ("fraction", J.Num r.fraction); ("cap_mw", J.Num r.cap_mw);
        ("policy", J.Str (Allocator.policy_to_string r.policy)); ("tenants", J.int r.tenants);
        ("throughput_per_s", J.Num r.throughput_per_s); ("fairness", J.Num r.fairness);
        ("peak_power_mw", J.Num r.peak_power_mw); ("cap_ok", J.Bool r.cap_ok);
        ("throttled_rounds", J.int r.throttled_rounds);
        ("infeasible_rounds", J.int r.infeasible_rounds);
        ("starved", J.int (List.length r.starved)); ("evictions", J.int r.evictions);
        ("pareto", J.Bool r.pareto) ]
  in
  J.Obj
    [ ("schema", J.Str "iced-tenancy-capsweep-v1"); ("tenants", J.int s.tenants);
      ("max_envelope_mw", J.Num s.max_envelope_mw);
      ("floor_envelope_mw", J.Num s.floor_envelope_mw); ("rows", J.Arr (List.map row s.rows)) ]

let sweep_json s = Iced_util.Json.to_string (sweep_value s)

let csv_header =
  "fraction,cap_mw,policy,tenants,throughput_per_s,fairness,peak_power_mw,cap_ok,throttled_rounds,infeasible_rounds,starved,evictions,pareto"

let row_csv r =
  Printf.sprintf "%.17g,%.17g,%s,%d,%.17g,%.17g,%.17g,%b,%d,%d,%d,%d,%b" r.fraction r.cap_mw
    (Allocator.policy_to_string r.policy)
    r.tenants r.throughput_per_s r.fairness r.peak_power_mw r.cap_ok r.throttled_rounds
    r.infeasible_rounds (List.length r.starved) r.evictions r.pareto

let sweep_csv s =
  String.concat "\n" (csv_header :: List.map row_csv s.rows) ^ "\n"

let render fmt s =
  Format.fprintf fmt
    "%d tenants   envelope max %.1f mW   floor %.1f mW@." s.tenants
    s.max_envelope_mw s.floor_envelope_mw;
  Format.fprintf fmt "%-16s %5s %10s %12s %8s %6s %5s %6s %7s@." "policy" "frac"
    "cap mW" "inputs/s" "fairness" "capok" "thr" "infeas" "pareto";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-16s %5.2f %10.1f %12.1f %8.4f %6b %5d %6d %7s@."
        (Allocator.policy_to_string r.policy)
        r.fraction r.cap_mw r.throughput_per_s r.fairness r.cap_ok
        r.throttled_rounds r.infeasible_rounds
        (if r.pareto then "*" else ""))
    s.rows
