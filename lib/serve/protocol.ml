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

let fail reason = raise (Bad reason)

(* conversions for the field reader: a string read by a codec, and the
   three optional fields every frame may carry *)
let via of_string v = Option.bind (J.get_string v) of_string
let some conv v = Option.map Option.some (conv v)
let some_int = some J.get_int
let some_string = some J.get_string

let some_qos =
  some (fun v -> Option.map Iced_tenancy.Qos.to_string (via Iced_tenancy.Qos.of_string v))

let default_point_s = Space.to_string default_point

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
      (* The one field reader: an absent field takes [default] or is
         missing; a present one is read by [conv] or rejected as not
         what [expect] says. *)
      let field ?default name conv expect =
        match (J.member name doc, default) with
        | None, Some d -> d
        | None, None -> fail (Printf.sprintf "missing field %S" name)
        | Some v, _ -> (
          match conv v with
          | Some x -> x
          | None -> fail (Printf.sprintf "field %S %s" name expect))
      in
      let string ?default name = field ?default name J.get_string "must be a string" in
      let int ?default name = field ?default name J.get_int "must be an integer" in
      (* an array whose items [conv] reads, a miss reported as [what] *)
      let list ~default name ~what conv =
        field ~default name
          (fun v ->
            Option.map
              (List.map (fun item ->
                   match conv item with
                   | Some x -> x
                   | None -> fail (Printf.sprintf "field %S: expected %s" name what)))
              (J.get_list v))
          "must be an array"
      in
      let at_least name lo n =
        if n < lo then fail (Printf.sprintf "field %S must be >= %d" name lo);
        n
      in
      let dims = via Space.dims_of_string and rxc = "dimensions \"RxC\"" in
      let app ?default () =
        match App.of_string (string ?default "app") with
        | Some a -> a
        | None -> fail "field \"app\" must be \"gcn\" or \"lu\""
      in
      match
        let deadline_ms =
          match field ~default:None "deadline_ms" some_int "must be an integer" with
          | Some ms -> Some (at_least "deadline_ms" 0 ms)
          | None -> None
        in
        let tenant =
          match field ~default:None "tenant" some_string "must be a string" with
          | Some "" -> fail "field \"tenant\" must be non-empty"
          | t -> t
        in
        let qos =
          field ~default:None "qos" some_qos "must be \"batch\", \"standard\", or \"premium\""
        in
        let request =
          match string "op" with
          | "ping" -> Ping
          | "sleep" -> Sleep (at_least "ms" 0 (int "ms"))
          | "map" ->
            let kernel = string "kernel" in
            let point_s = string ~default:default_point_s "point" in
            let backend =
              match Iced_mapper.Backend.of_string (string ~default:"default" "backend") with
              | Ok b -> b
              | Error msg -> fail (Printf.sprintf "field \"backend\": %s" msg)
            in
            (match Space.of_string point_s with
            | Some point when Space.is_valid point -> Map { point; kernel; backend }
            | _ -> fail (Printf.sprintf "bad design point %S" point_s))
          | "explore" ->
            let fabrics = list ~default:[ (6, 6) ] "fabrics" ~what:rxc dims in
            let islands =
              list ~default:(Space.default_islands fabrics) "islands" ~what:rxc dims
            in
            let spec =
              {
                Space.fabrics;
                islands;
                spm_banks = list ~default:[ 8 ] "banks" ~what:"an integer" J.get_int;
                floors =
                  list ~default:[ Iced_arch.Dvfs.Rest ] "floors"
                    ~what:"\"rest\", \"relax\", or \"normal\"" (via Space.floor_of_string);
                unrolls = list ~default:[ 1 ] "unrolls" ~what:"an integer" J.get_int;
                max_iis = list ~default:[ 64 ] "max_iis" ~what:"an integer" J.get_int;
              }
            in
            Option.iter fail (Space.grid_error spec);
            Explore
              { spec; kernels = list ~default:[] "kernels" ~what:"a string" J.get_string }
          | "stream" ->
            let app = app () in
            let policy =
              match Runner.policy_of_string (string ~default:"iced" "policy") with
              | Some p -> p
              | None -> fail "field \"policy\" must be \"static\", \"iced\", or \"drips\""
            in
            Stream { app; policy; inputs = at_least "inputs" 0 (int ~default:0 "inputs") }
          | "fault" ->
            let app = app ~default:"lu" () in
            let seeds = int ~default:4 "seeds" in
            let faults = int ~default:2 "faults" in
            let inputs = int ~default:200 "inputs" in
            let window = int ~default:10 "window" in
            Option.iter
              (fun (name, why) -> fail (Printf.sprintf "field %S %s" name why))
              (Campaign.counts_error ~seeds ~faults ~inputs ~window);
            Fault { app; seeds; faults; inputs; window }
          | "stats" -> Stats
          | "health" -> Health
          | "crash" -> Crash { kill = field ~default:false "kill" J.get_bool "must be a boolean" }
          | "shutdown" -> Shutdown
          | op -> fail (Printf.sprintf "unknown op %S" op)
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
