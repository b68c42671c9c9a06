module J = Iced_util.Json
module Space = Iced_explore.Space
module Outcome = Iced_explore.Outcome
module Runner = Iced_stream.Runner
module Campaign = Iced_campaign.Campaign
module App = Iced_stream.App

type request =
  | Ping
  | Sleep of int
  | Map of { point : Space.point; kernel : string; backend : Iced_mapper.Backend.t }
  | Explore of { spec : Space.spec; kernels : string list }
  | Stream of { app : App.t; policy : Runner.policy; inputs : int }
  | Fault of { app : App.t; seeds : int; faults : int; inputs : int; window : int }
  | Stats
  | Health
  | Crash of { kill : bool }
  | Shutdown

type frame = {
  id : string;
  request : request;
  deadline_ms : int option;
  tenant : string option;
  qos : string option;
}

type decode_error =
  | Malformed of J.error
  | Invalid of { id : string; reason : string }

let op_to_string = function
  | Ping -> "ping"
  | Sleep _ -> "sleep"
  | Map _ -> "map"
  | Explore _ -> "explore"
  | Stream _ -> "stream"
  | Fault _ -> "fault"
  | Stats -> "stats"
  | Health -> "health"
  | Crash _ -> "crash"
  | Shutdown -> "shutdown"

let default_point =
  {
    Space.rows = 6;
    cols = 6;
    island_rows = 2;
    island_cols = 2;
    spm_banks = 8;
    floor = Iced_arch.Dvfs.Rest;
    unroll = 1;
    max_ii = 64;
  }

(* ------------------------------------------------------------------ *)
(* decoding                                                            *)

exception Bad of string

let decode line =
  match J.parse line with
  | Error e -> Error (Malformed e)
  | Ok doc -> (
    let id =
      match J.member "id" doc with
      | None -> Ok ""
      | Some v -> (
        match J.get_string v with
        | Some s -> Ok s
        | None -> Error "id must be a string")
    in
    match id with
    | Error reason -> Error (Invalid { id = ""; reason })
    | Ok id -> (
      let fail reason = raise (Bad reason) in
      let str_field ?default name =
        match (J.member name doc, default) with
        | None, Some d -> d
        | None, None -> fail (Printf.sprintf "missing field %S" name)
        | Some v, _ -> (
          match J.get_string v with
          | Some s -> s
          | None -> fail (Printf.sprintf "field %S must be a string" name))
      in
      let int_field ?default name =
        match (J.member name doc, default) with
        | None, Some d -> d
        | None, None -> fail (Printf.sprintf "missing field %S" name)
        | Some v, _ -> (
          match J.get_int v with
          | Some i -> i
          | None -> fail (Printf.sprintf "field %S must be an integer" name))
      in
      (* a JSON array of strings, each run through [conv] *)
      let list_field ~conv ~what ?default name =
        match (J.member name doc, default) with
        | None, Some d -> d
        | None, None -> fail (Printf.sprintf "missing field %S" name)
        | Some v, _ -> (
          match J.get_list v with
          | None -> fail (Printf.sprintf "field %S must be an array" name)
          | Some items ->
            List.map
              (fun item ->
                match Option.bind (J.get_string item) conv with
                | Some x -> x
                | None -> fail (Printf.sprintf "field %S: expected %s" name what))
              items)
      in
      let int_list_field ?default name =
        match (J.member name doc, default) with
        | None, Some d -> d
        | None, None -> fail (Printf.sprintf "missing field %S" name)
        | Some v, _ -> (
          match J.get_list v with
          | None -> fail (Printf.sprintf "field %S must be an array" name)
          | Some items ->
            List.map
              (fun item ->
                match J.get_int item with
                | Some i -> i
                | None -> fail (Printf.sprintf "field %S: expected an integer" name))
              items)
      in
      let bool_field ~default name =
        match J.member name doc with
        | None -> default
        | Some v -> (
          match J.get_bool v with
          | Some b -> b
          | None -> fail (Printf.sprintf "field %S must be a boolean" name))
      in
      let app_field ?default name =
        match App.of_string (str_field ?default name) with
        | Some a -> a
        | None -> fail (Printf.sprintf "field %S must be \"gcn\" or \"lu\"" name)
      in
      let deadline () =
        match J.member "deadline_ms" doc with
        | None -> None
        | Some v -> (
          match J.get_int v with
          | Some ms when ms >= 0 -> Some ms
          | Some _ -> fail "field \"deadline_ms\" must be >= 0"
          | None -> fail "field \"deadline_ms\" must be an integer")
      in
      let tenant () =
        match J.member "tenant" doc with
        | None -> None
        | Some v -> (
          match J.get_string v with
          | Some "" -> fail "field \"tenant\" must be non-empty"
          | Some s -> Some s
          | None -> fail "field \"tenant\" must be a string")
      in
      let qos () =
        match J.member "qos" doc with
        | None -> None
        | Some v -> (
          match Option.map Iced_tenancy.Qos.of_string (J.get_string v) with
          | Some (Some c) -> Some (Iced_tenancy.Qos.to_string c)
          | Some None | None ->
            fail "field \"qos\" must be \"batch\", \"standard\", or \"premium\"")
      in
      match
        let deadline_ms = deadline () in
        let tenant = tenant () in
        let qos = qos () in
        let request =
          match J.member "op" doc with
        | None -> fail "missing field \"op\""
        | Some v -> (
          match J.get_string v with
          | None -> fail "field \"op\" must be a string"
          | Some "ping" -> Ping
          | Some "sleep" ->
            let ms = int_field "ms" in
            if ms < 0 then fail "field \"ms\" must be >= 0";
            Sleep ms
          | Some "map" ->
            let kernel = str_field "kernel" in
            let point_s = str_field ~default:(Space.to_string default_point) "point" in
            let backend =
              match Iced_mapper.Backend.of_string (str_field ~default:"default" "backend") with
              | Ok b -> b
              | Error msg -> fail (Printf.sprintf "field \"backend\": %s" msg)
            in
            (match Space.of_string point_s with
            | Some point when Space.is_valid point -> Map { point; kernel; backend }
            | _ -> fail (Printf.sprintf "bad design point %S" point_s))
          | Some "explore" ->
            let fabrics =
              list_field ~conv:Space.dims_of_string ~what:"dimensions \"RxC\""
                ~default:[ (6, 6) ] "fabrics"
            in
            let islands =
              list_field ~conv:Space.dims_of_string ~what:"dimensions \"RxC\""
                ~default:(Space.default_islands fabrics) "islands"
            in
            let spec =
              {
                Space.fabrics;
                islands;
                spm_banks = int_list_field ~default:[ 8 ] "banks";
                floors =
                  list_field ~conv:Space.floor_of_string
                    ~what:"\"rest\", \"relax\", or \"normal\""
                    ~default:[ Iced_arch.Dvfs.Rest ] "floors";
                unrolls = int_list_field ~default:[ 1 ] "unrolls";
                max_iis = int_list_field ~default:[ 64 ] "max_iis";
              }
            in
            Explore
              { spec; kernels = list_field ~conv:Option.some ~what:"a string"
                                  ~default:[] "kernels" }
          | Some "stream" ->
            let app = app_field "app" in
            let policy =
              match Runner.policy_of_string (str_field ~default:"iced" "policy") with
              | Some p -> p
              | None -> fail "field \"policy\" must be \"static\", \"iced\", or \"drips\""
            in
            let inputs = int_field ~default:0 "inputs" in
            if inputs < 0 then fail "field \"inputs\" must be >= 0";
            Stream { app; policy; inputs }
          | Some "fault" ->
            let app = app_field ~default:"lu" "app" in
            let seeds = int_field ~default:4 "seeds" in
            let faults = int_field ~default:2 "faults" in
            let inputs = int_field ~default:200 "inputs" in
            let window = int_field ~default:10 "window" in
            if seeds <= 0 then fail "field \"seeds\" must be > 0";
            if faults < 0 then fail "field \"faults\" must be >= 0";
            if inputs <= 0 then fail "field \"inputs\" must be > 0";
            if window <= 0 then fail "field \"window\" must be > 0";
            Fault { app; seeds; faults; inputs; window }
          | Some "stats" -> Stats
          | Some "health" -> Health
          | Some "crash" -> Crash { kill = bool_field ~default:false "kill" }
          | Some "shutdown" -> Shutdown
          | Some op -> fail (Printf.sprintf "unknown op %S" op))
        in
        { id; request; deadline_ms; tenant; qos }
      with
      | frame -> Ok frame
      | exception Bad reason -> Error (Invalid { id; reason })))

(* ------------------------------------------------------------------ *)
(* encoding                                                            *)

let strs l = J.Arr (List.map (fun s -> J.Str s) l)
let ints l = J.Arr (List.map J.int l)

let encode_request { id; request; deadline_ms; tenant; qos } =
  (* absent fields, the default backend and an empty kernel list encode
     to nothing, so frames predating a field encode byte-identically *)
  let opt key f = function None -> [] | Some x -> [ (key, f x) ] in
  let fields =
    match request with
    | Ping | Stats | Health | Shutdown -> []
    | Sleep ms -> [ ("ms", J.int ms) ]
    | Map { point; kernel; backend } ->
      [ ("point", J.Str (Space.to_string point)); ("kernel", J.Str kernel) ]
      @
      if Iced_mapper.Backend.is_default backend then []
      else [ ("backend", J.Str (Iced_mapper.Backend.to_string backend)) ]
    | Explore { spec; kernels } ->
      [ ("fabrics", strs (List.map Space.dims_to_string spec.Space.fabrics));
        ("islands", strs (List.map Space.dims_to_string spec.Space.islands));
        ("banks", ints spec.Space.spm_banks);
        ("floors", strs (List.map Space.floor_to_string spec.Space.floors));
        ("unrolls", ints spec.Space.unrolls);
        ("max_iis", ints spec.Space.max_iis) ]
      @ if kernels = [] then [] else [ ("kernels", strs kernels) ]
    | Stream { app; policy; inputs } ->
      [ ("app", J.Str (App.to_string app));
        ("policy", J.Str (Runner.policy_to_string policy));
        ("inputs", J.int inputs) ]
    | Fault { app; seeds; faults; inputs; window } ->
      [ ("app", J.Str (App.to_string app)); ("seeds", J.int seeds);
        ("faults", J.int faults); ("inputs", J.int inputs); ("window", J.int window) ]
    | Crash { kill } -> if kill then [ ("kill", J.Bool true) ] else []
  in
  J.to_string
    (J.Obj
       ([ ("id", J.Str id); ("op", J.Str (op_to_string request)) ]
       @ opt "deadline_ms" J.int deadline_ms
       @ opt "tenant" (fun t -> J.Str t) tenant
       @ opt "qos" (fun q -> J.Str q) qos
       @ fields))

(* ------------------------------------------------------------------ *)
(* responses                                                           *)

let reply ~id ~status op fields =
  J.to_string
    (J.Obj (("id", J.Str id) :: ("status", J.Str status) :: ("op", J.Str op) :: fields))

let response_ping ~id = reply ~id ~status:"ok" "ping" []
let response_sleep ~id ~ms = reply ~id ~status:"ok" "sleep" [ ("ms", J.int ms) ]

let response_map ~id ~point ~kernel status =
  let where = [ ("point", J.Str (Space.to_string point)); ("kernel", J.Str kernel) ] in
  match status with
  | Outcome.Mapped m ->
    reply ~id ~status:"ok" "map"
      (where
      @ [ ("ii", J.int m.Outcome.ii); ("util", J.Num m.Outcome.utilization);
          ("dvfs", J.Num m.Outcome.dvfs); ("power_mw", J.Num m.Outcome.power_mw);
          ("throughput_mips", J.Num m.Outcome.throughput_mips);
          ("energy_nj", J.Num m.Outcome.energy_nj); ("edp", J.Num m.Outcome.edp) ])
  | Outcome.Failed msg -> reply ~id ~status:"unmapped" "map" (where @ [ ("msg", J.Str msg) ])
  | Outcome.Timed_out -> reply ~id ~status:"timeout" "map" where

let response_explore ~id ~frontier outcomes =
  let on_frontier (s : Outcome.summary) =
    List.exists (fun (f : Outcome.summary) -> f.Outcome.point = s.Outcome.point) frontier
  in
  let pairs =
    List.fold_left (fun acc (r : Outcome.point_result) -> acc + List.length r.Outcome.per_kernel) 0 outcomes
  in
  let summary r =
    let s = Outcome.summarize r in
    J.Obj
      [ ("point", J.Str (Space.to_string s.Outcome.point)); ("mapped", J.int s.Outcome.mapped);
        ("total", J.int s.Outcome.total); ("geo_thpt_mips", J.Num s.Outcome.geo_throughput_mips);
        ("mean_energy_nj", J.Num s.Outcome.mean_energy_nj); ("mean_edp", J.Num s.Outcome.mean_edp);
        ("mean_power_mw", J.Num s.Outcome.mean_power_mw); ("pareto", J.Bool (on_frontier s)) ]
  in
  reply ~id ~status:"ok" "explore"
    [ ("points", J.int (List.length outcomes)); ("pairs", J.int pairs);
      ("summaries", J.Arr (List.map summary outcomes)) ]

let response_stream ~id ~app ~policy ~windows (t : Runner.totals) =
  reply ~id ~status:"ok" "stream"
    [ ("app", J.Str (App.to_string app));
      ("policy", J.Str (Runner.policy_to_string policy)); ("windows", J.int windows);
      ("inputs", J.int t.Runner.total_inputs);
      ("throughput_per_s", J.Num t.Runner.overall_throughput_per_s);
      ("power_mw", J.Num (t.Runner.total_energy_uj /. t.Runner.total_time_us *. 1000.0));
      ("efficiency", J.Num t.Runner.overall_efficiency) ]

let response_fault ~id (c : Campaign.t) =
  let policy (recovery, (s : Campaign.summary)) =
    J.Obj
      [ ("recovery", J.Str (Runner.recovery_to_string recovery));
        ("cells", J.int s.Campaign.cells);
        ( "survival",
          J.Num (float_of_int s.Campaign.survivors /. float_of_int (max 1 s.Campaign.cells)) );
        ("mean_retention", J.Num s.Campaign.mean_retention);
        ("mean_mttr_us", J.Num s.Campaign.mean_mttr_us) ]
  in
  reply ~id ~status:"ok" "fault"
    [ ("app", J.Str (App.to_string c.Campaign.spec.Campaign.app));
      ("cells", J.int (List.length c.Campaign.runs));
      ("policies", J.Arr (List.map policy (Campaign.summary c))) ]

let response_shutdown ~id = reply ~id ~status:"ok" "shutdown" []

let response_timeout ~id ~op = reply ~id ~status:"timeout" op []

let response_internal_error ~id ~op ~fingerprint =
  reply ~id ~status:"internal_error" op [ ("fingerprint", J.Str fingerprint) ]

let response_error ~id msg =
  J.to_string (J.Obj [ ("id", J.Str id); ("status", J.Str "error"); ("error", J.Str msg) ])

let response_overloaded ~id ~depth =
  J.to_string
    (J.Obj [ ("id", J.Str id); ("status", J.Str "overloaded"); ("queue_depth", J.int depth) ])

let response_invalid err =
  let id, reason =
    match err with
    | Malformed e -> ([], "parse error: " ^ J.error_to_string e)
    | Invalid { id; reason } -> ([ ("id", J.Str id) ], reason)
  in
  J.to_string (J.Obj (id @ [ ("status", J.Str "invalid"); ("error", J.Str reason) ]))
