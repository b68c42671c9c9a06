(* Tests for multi-tenant fabric sharing: the power cap is respected in
   every round (a qcheck invariant over random fleets), fair-share never
   starves anyone even at the tightest feasible cap, a single-tenant
   shared run reproduces the solo runner byte-for-byte, sweeps are
   byte-identical across worker counts and reruns, and the arbitration
   policies order their victims as documented. *)

module Qos = Iced_tenancy.Qos
module Tenant = Iced_tenancy.Tenant
module Allocator = Iced_tenancy.Allocator
module Scheduler = Iced_tenancy.Scheduler
module Capsweep = Iced_tenancy.Capsweep
module Runner = Iced_stream.Runner
module Dvfs = Iced_arch.Dvfs
module Cgra = Iced_arch.Cgra

let plan_fleet ?spec ~inputs ~seed count =
  match Scheduler.plan ?spec (Tenant.synthetic_mix ~inputs ~seed ~count ()) with
  | Ok plan -> plan
  | Error msg -> Alcotest.failf "planning failed: %s" msg

(* ---------------- names and round-trips ---------------- *)

let test_name_roundtrips () =
  List.iter
    (fun c ->
      Alcotest.(check bool) (Qos.to_string c) true (Qos.of_string (Qos.to_string c) = Some c))
    Qos.all;
  Alcotest.(check bool) "junk class rejected" true (Qos.of_string "platinum" = None);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Allocator.policy_to_string p)
        true
        (Allocator.policy_of_string (Allocator.policy_to_string p) = Some p))
    Allocator.all_policies;
  Alcotest.(check bool) "short forms accepted" true
    (Allocator.policy_of_string "fair" = Some Allocator.Fair_share
    && Allocator.policy_of_string "qos" = Some Allocator.Weighted_qos
    && Allocator.policy_of_string "priority" = Some Allocator.Strict_priority);
  Alcotest.(check bool) "junk policy rejected" true (Allocator.policy_of_string "yolo" = None)

(* ---------------- the load-bearing identity ---------------- *)

(* a 1-tenant shared run with the default identity arbitration must be
   indistinguishable from Runner.run on the same partition and stream:
   window reports are all floats, so structural equality here is byte
   equality of any rendering *)
let test_single_tenant_identity () =
  let plan = plan_fleet ~inputs:30 ~seed:5 1 in
  let p = List.hd plan.Scheduler.placements in
  let partition = List.assoc p.Scheduler.islands p.Scheduler.partitions in
  let tenant = p.Scheduler.tenant in
  let shared =
    Runner.run_shared ~trace:false ~fabric:Scheduler.fabric
      [ { Runner.tenant = tenant.Tenant.id; partition; stream = tenant.Tenant.inputs } ]
  in
  let solo = Runner.run ~trace:false partition Runner.Iced_dvfs tenant.Tenant.inputs in
  Alcotest.(check bool) "tenant_reports = Runner.run" true
    (List.assoc tenant.Tenant.id shared.Runner.tenant_reports = solo);
  Alcotest.(check (list (pair string int))) "nothing evicted" [] shared.Runner.evicted

(* ---------------- cap invariant (qcheck) ---------------- *)

(* for any fleet and any cap at or above the all-rest floor fraction,
   every feasible round holds measured power <= cap and every tenant
   finishes its stream *)
let prop_cap_respected =
  QCheck.Test.make ~name:"cap respected and nobody starves" ~count:6
    QCheck.(triple (2 -- 4) (0 -- 999) (45 -- 100))
    (fun (count, seed, pct) ->
      let plan = plan_fleet ~inputs:12 ~seed count in
      let cap = float_of_int pct /. 100.0 *. Scheduler.max_envelope_mw plan in
      let r = Scheduler.run ~cap_mw:cap ~policy:Allocator.Fair_share plan in
      r.Scheduler.cap_ok
      && Scheduler.starved r = []
      && (r.Scheduler.infeasible_rounds > 0 || r.Scheduler.peak_power_mw <= cap +. 1e-9))

(* ---------------- determinism ---------------- *)

let test_sweep_determinism () =
  let fractions = [ 1.0; 0.6 ] in
  let plan = plan_fleet ~inputs:16 ~seed:3 3 in
  let j1 = Capsweep.sweep_json (Capsweep.run ~fractions ~workers:1 plan) in
  let j3 = Capsweep.sweep_json (Capsweep.run ~fractions ~workers:3 plan) in
  Alcotest.(check string) "workers 1 = workers 3" j1 j3;
  (* a fresh same-seed plan reproduces the bytes too *)
  let jr =
    Capsweep.sweep_json (Capsweep.run ~fractions ~workers:1 (plan_fleet ~inputs:16 ~seed:3 3))
  in
  Alcotest.(check string) "same-seed rerun" j1 jr

(* ---------------- starvation regression ---------------- *)

(* the tightest feasible cap is maximum contention: fair-share must
   throttle hard yet still let every tenant finish *)
let test_fair_share_tight_cap_no_starvation () =
  let plan = plan_fleet ~inputs:20 ~seed:1 4 in
  let cap = Scheduler.floor_envelope_mw plan *. 1.02 in
  let r = Scheduler.run ~cap_mw:cap ~policy:Allocator.Fair_share plan in
  Alcotest.(check bool) "cap ok" true r.Scheduler.cap_ok;
  Alcotest.(check int) "feasible throughout" 0 r.Scheduler.infeasible_rounds;
  Alcotest.(check (list string)) "nobody starved" [] (Scheduler.starved r);
  Alcotest.(check bool) "contention actually throttled" true
    (List.exists (fun rr -> rr.Scheduler.throttled <> []) r.Scheduler.rounds);
  List.iter
    (fun (s : Scheduler.tenant_summary) ->
      Alcotest.(check int) (s.Scheduler.id ^ " completed") s.Scheduler.offered
        s.Scheduler.completed)
    r.Scheduler.tenants

(* a cap below the all-rest floor is cap exhaustion: flagged infeasible,
   floor granted best-effort, still nobody starves *)
let test_cap_exhaustion_flagged () =
  let plan = plan_fleet ~inputs:12 ~seed:2 3 in
  let cap = Scheduler.floor_envelope_mw plan *. 0.8 in
  let r = Scheduler.run ~cap_mw:cap ~policy:Allocator.Fair_share plan in
  Alcotest.(check bool) "infeasible rounds flagged" true (r.Scheduler.infeasible_rounds > 0);
  Alcotest.(check (list string)) "still nobody starved" [] (Scheduler.starved r)

(* ---------------- policy ordering ---------------- *)

(* two identical workloads, different QoS: under strict priority the
   batch member absorbs every demotion while premium keeps Normal *)
let test_strict_priority_protects_premium () =
  let fabric = Cgra.make ~rows:4 ~cols:4 () in
  let members () =
    [ Allocator.member ~id:"a" ~qos:Qos.Premium [ ("k", 4) ];
      Allocator.member ~id:"b" ~qos:Qos.Batch [ ("k", 4) ] ]
  in
  let desired = [ ("a", [ ("k", Dvfs.Normal) ]); ("b", [ ("k", Dvfs.Normal) ]) ] in
  let probe = Allocator.create ~policy:Allocator.Strict_priority ~fabric (members ()) in
  (* a cap that fits premium at Normal only if batch drops to Rest *)
  let cap =
    Allocator.envelope_mw probe
      [ ("a", [ ("k", Dvfs.Normal) ]); ("b", [ ("k", Dvfs.Rest) ]) ]
    +. 0.001
  in
  let strict =
    Allocator.create ~cap_mw:cap ~policy:Allocator.Strict_priority ~fabric (members ())
  in
  let granted = Allocator.arbitrate strict ~round:0 desired in
  Alcotest.(check bool) "premium keeps Normal" true
    (List.assoc "k" (List.assoc "a" granted) = Dvfs.Normal);
  Alcotest.(check bool) "batch demoted to Rest" true
    (List.assoc "k" (List.assoc "b" granted) = Dvfs.Rest);
  (* fair-share at the same cap spreads demotions instead: equal
     envelopes tie-break on id, so "a" is the first victim *)
  let fair =
    Allocator.create ~cap_mw:cap ~policy:Allocator.Fair_share ~fabric (members ())
  in
  let fair_granted = Allocator.arbitrate fair ~round:0 desired in
  Alcotest.(check bool) "fair-share demotes a too" true
    (List.assoc "k" (List.assoc "a" fair_granted) <> Dvfs.Normal)

(* ---------------- fault-driven reallocation ---------------- *)

let test_fault_reallocation_across_tenants () =
  let spec = { Scheduler.faults = 3; fault_seed = 11 } in
  let plan = plan_fleet ~spec ~inputs:40 ~seed:1 4 in
  let r = Scheduler.run ~policy:Allocator.Fair_share plan in
  Alcotest.(check bool) "faults fired" true (r.Scheduler.faults_injected > 0);
  Alcotest.(check bool) "islands moved or tenants evicted" true
    (r.Scheduler.reallocations + r.Scheduler.evictions > 0);
  Alcotest.(check (list string)) "survivors all finished" [] (Scheduler.starved r);
  (* determinism holds under faults too *)
  let r2 = Scheduler.run ~policy:Allocator.Fair_share (plan_fleet ~spec ~inputs:40 ~seed:1 4) in
  Alcotest.(check string) "fault run byte-identical on rerun" (Scheduler.report_json r)
    (Scheduler.report_json r2)

(* ---------------- cap validation ---------------- *)

let test_create_rejects_bad_caps () =
  let fabric = Cgra.make ~rows:4 ~cols:4 () in
  let members = [ Allocator.member ~id:"a" ~qos:Qos.Standard [ ("k", 4) ] ] in
  List.iter
    (fun cap ->
      match Allocator.create ~cap_mw:cap ~policy:Allocator.Fair_share ~fabric members with
      | _ -> Alcotest.failf "accepted cap %g" cap
      | exception Invalid_argument _ -> ())
    [ nan; infinity; neg_infinity; 0.0; -1.0 ]

let suite =
  [
    ("qos and policy name round-trips", `Quick, test_name_roundtrips);
    ("single tenant = solo runner, byte-for-byte", `Quick, test_single_tenant_identity);
    QCheck_alcotest.to_alcotest prop_cap_respected;
    ("cap sweep deterministic across workers and reruns", `Quick, test_sweep_determinism);
    ("fair-share never starves at the tightest cap", `Quick, test_fair_share_tight_cap_no_starvation);
    ("caps below the floor flag exhaustion", `Quick, test_cap_exhaustion_flagged);
    ("strict priority shields premium, fair-share spreads", `Quick, test_strict_priority_protects_premium);
    ("faults reallocate islands across tenants", `Quick, test_fault_reallocation_across_tenants);
    ("create rejects non-finite and non-positive caps", `Quick, test_create_rejects_bad_caps);
  ]
