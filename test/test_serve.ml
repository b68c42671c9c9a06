(* Tests for the iced serve daemon: protocol encode/decode round-trips
   (including hostile ids and truncated frames), the bounded queue,
   cache dedup/coalescing across domains, admission-control shedding,
   and — the load-bearing invariant — byte-identical responses between
   the one-shot path and daemons of any worker count. *)

module Protocol = Iced_serve.Protocol
module Server = Iced_serve.Server
module Bqueue = Iced_serve.Bqueue
module Cache = Iced_explore.Cache
module Space = Iced_explore.Space
module Outcome = Iced_explore.Outcome
module Campaign = Iced_campaign.Campaign
module Runner = Iced_stream.Runner
module Json = Iced_util.Json

let frame id request =
  { Protocol.id; request; deadline_ms = None; tenant = None; qos = None }

let dframe id request ms =
  { Protocol.id; request; deadline_ms = Some ms; tenant = None; qos = None }

(* the seed config plus the resilience knobs at their defaults *)
let config ~workers ~queue_depth ~cache =
  { Server.workers; queue_depth; cache; restart_budget = 8; default_deadline_ms = None }

let small_spec =
  {
    Space.fabrics = [ (4, 4) ];
    islands = [ (2, 2) ];
    spm_banks = [ 4 ];
    floors = [ Iced_arch.Dvfs.Rest ];
    unrolls = [ 1 ];
    max_iis = [ 32 ];
  }

(* ---------------- protocol round-trips ---------------- *)

let roundtrip f =
  let line = Protocol.encode_request f in
  match Protocol.decode line with
  | Ok f' -> Alcotest.(check bool) line true (f = f')
  | Error _ -> Alcotest.failf "decode rejected its own encoding: %s" line

let test_roundtrip_all_ops () =
  List.iter roundtrip
    [
      frame "a" Protocol.Ping;
      frame "" Protocol.Stats;
      frame "x" Protocol.Shutdown;
      frame "s" (Protocol.Sleep 5);
      frame "m" (Protocol.Map { point = Protocol.default_point; kernel = "fir"; backend = Iced_mapper.Backend.default });
      frame "e" (Protocol.Explore { spec = small_spec; kernels = [ "fir"; "gemm" ] });
      frame "e2" (Protocol.Explore { spec = small_spec; kernels = [] });
      frame "st"
        (Protocol.Stream { app = Iced_stream.App.Gcn; policy = Runner.Iced_dvfs; inputs = 12 });
      frame "f"
        (Protocol.Fault { app = Iced_stream.App.Lu; seeds = 2; faults = 1; inputs = 50; window = 10 });
      frame "h" Protocol.Health;
      frame "c" (Protocol.Crash { kill = false });
      frame "ck" (Protocol.Crash { kill = true });
      dframe "d" Protocol.Ping 250;
      dframe "d0" (Protocol.Map { point = Protocol.default_point; kernel = "fir"; backend = Iced_mapper.Backend.default }) 0;
      frame "mb"
        (Protocol.Map
           { point = Protocol.default_point; kernel = "fir"; backend = Iced_mapper.Backend.sa });
      frame "mp"
        (Protocol.Map
           {
             point = Protocol.default_point;
             kernel = "fir";
             backend = Iced_mapper.Backend.pathfinder;
           });
    ]

let test_map_backend_field () =
  (* the default backend stays implicit on the wire (old frames encode
     byte-identically); explicit backends round-trip; junk is strictly
     rejected *)
  let default_frame =
    frame "m"
      (Protocol.Map
         { point = Protocol.default_point; kernel = "fir"; backend = Iced_mapper.Backend.default })
  in
  let contains_sub needle hay =
    let n = String.length needle in
    let rec scan i = i + n <= String.length hay && (String.sub hay i n = needle || scan (i + 1)) in
    scan 0
  in
  let line = Protocol.encode_request default_frame in
  Alcotest.(check bool) "default backend not on the wire" false
    (contains_sub "backend" line);
  (match Protocol.decode line with
  | Ok f -> Alcotest.(check bool) "decodes to default" true (f = default_frame)
  | Error _ -> Alcotest.fail "default map frame rejected");
  let sa_line = "{\"id\":\"m\",\"op\":\"map\",\"kernel\":\"fir\",\"backend\":\"sa:9\"}" in
  (match Protocol.decode sa_line with
  | Ok { Protocol.request = Protocol.Map { backend; _ }; _ } ->
    Alcotest.(check string) "seeded sa parses" "sa:9" (Iced_mapper.Backend.to_string backend)
  | Ok _ -> Alcotest.fail "decoded to the wrong op"
  | Error _ -> Alcotest.fail "sa:9 map frame rejected")

let test_roundtrip_hostile_ids () =
  List.iter
    (fun id -> roundtrip (frame id Protocol.Ping))
    [ "quote\"s"; "back\\slash"; "new\nline"; "tab\tand\x01ctrl"; "unicode \xc3\xa9" ]

let expect_malformed line =
  match Protocol.decode line with
  | Error (Protocol.Malformed _) -> ()
  | Ok _ -> Alcotest.failf "accepted malformed %S" line
  | Error (Protocol.Invalid _) -> Alcotest.failf "Invalid rather than Malformed: %S" line

let expect_invalid line ~id =
  match Protocol.decode line with
  | Error (Protocol.Invalid e) -> Alcotest.(check string) line id e.id
  | Ok _ -> Alcotest.failf "accepted invalid %S" line
  | Error (Protocol.Malformed _) -> Alcotest.failf "Malformed rather than Invalid: %S" line

let test_decode_malformed () =
  List.iter expect_malformed
    [
      "";
      "{";
      "{\"id\":\"a\",\"op\":\"pi";  (* truncated mid-string *)
      "{\"op\":\"ping\"} extra";  (* trailing garbage *)
      "{\"op\":\"ping\",}";
      "\"op";
      "{\"op\":\"ping\"\x01}";  (* raw control byte *)
    ]

let test_decode_invalid () =
  expect_invalid "{\"id\":\"a\",\"op\":\"fly\"}" ~id:"a";
  expect_invalid "{\"id\":\"a\"}" ~id:"a";
  expect_invalid "{\"id\":7,\"op\":\"ping\"}" ~id:"";
  expect_invalid "42" ~id:"";
  expect_invalid "{\"id\":\"s\",\"op\":\"sleep\"}" ~id:"s";
  expect_invalid "{\"id\":\"m\",\"op\":\"map\",\"kernel\":\"fir\",\"point\":\"bogus\"}"
    ~id:"m";
  expect_invalid "{\"id\":\"m\",\"op\":\"map\",\"kernel\":\"fir\",\"backend\":\"warp\"}"
    ~id:"m";
  expect_invalid "{\"id\":\"m\",\"op\":\"map\",\"kernel\":\"fir\",\"backend\":7}" ~id:"m";
  expect_invalid
    "{\"id\":\"m\",\"op\":\"map\",\"kernel\":\"fir\",\"backend\":\"sa+dijkstra:3\"}" ~id:"m";
  expect_invalid "{\"id\":\"st\",\"op\":\"stream\",\"app\":\"gcn\",\"policy\":\"warp\"}"
    ~id:"st";
  expect_invalid "{\"id\":\"f\",\"op\":\"fault\",\"seeds\":0}" ~id:"f";
  expect_invalid "{\"id\":\"d\",\"op\":\"ping\",\"deadline_ms\":-1}" ~id:"d";
  expect_invalid "{\"id\":\"d\",\"op\":\"ping\",\"deadline_ms\":\"soon\"}" ~id:"d";
  (* each shared field codec rejects what the CLI's converters reject *)
  expect_invalid "{\"id\":\"x\",\"op\":\"explore\",\"fabrics\":[\"0x6\"]}" ~id:"x";
  expect_invalid "{\"id\":\"x\",\"op\":\"explore\",\"islands\":[\"6x\"]}" ~id:"x";
  expect_invalid "{\"id\":\"x\",\"op\":\"explore\",\"floors\":[\"gated\"]}" ~id:"x";
  expect_invalid "{\"id\":\"x\",\"op\":\"stream\",\"app\":\"lu\",\"policy\":\"warp\"}" ~id:"x";
  expect_invalid "{\"id\":\"x\",\"op\":\"stream\",\"app\":\"foo\"}" ~id:"x";
  expect_invalid "{\"id\":\"x\",\"op\":\"fault\",\"app\":\"foo\"}" ~id:"x";
  (* a fault campaign's counts are bounded by the campaign's own rule,
     from above too *)
  expect_invalid
    (Printf.sprintf "{\"id\":\"f\",\"op\":\"fault\",\"seeds\":%d}" (Campaign.max_seeds + 1))
    ~id:"f";
  expect_invalid
    (Printf.sprintf "{\"id\":\"f\",\"op\":\"fault\",\"inputs\":%d}" (Campaign.max_inputs + 1))
    ~id:"f";
  expect_invalid "{\"id\":\"f\",\"op\":\"fault\",\"inputs\":1}" ~id:"f";
  expect_invalid
    (Printf.sprintf "{\"id\":\"f\",\"op\":\"fault\",\"faults\":%d}" (Campaign.max_faults + 1))
    ~id:"f";
  (match
     Protocol.decode
       (Printf.sprintf
          "{\"id\":\"f\",\"op\":\"fault\",\"seeds\":%d,\"inputs\":%d,\"faults\":%d}"
          Campaign.max_seeds Campaign.max_inputs Campaign.max_faults)
   with
  | Ok { Protocol.request = Protocol.Fault { seeds; inputs; faults; _ }; _ } ->
    Alcotest.(check (triple int int int)) "largest campaign admitted"
      (Campaign.max_seeds, Campaign.max_inputs, Campaign.max_faults) (seeds, inputs, faults)
  | _ -> Alcotest.fail "a campaign at the bounds was rejected");
  (* numbers inside strings are read in their canonical spelling only *)
  expect_invalid
    "{\"id\":\"x\",\"op\":\"map\",\"kernel\":\"fir\",\"point\":\"+6x0o6/i2x2/b0x8/rest/u1/ii6_4\"}"
    ~id:"x";
  expect_invalid
    "{\"id\":\"x\",\"op\":\"map\",\"kernel\":\"fir\",\"point\":\"06x6/i2x2/b8/rest/u1/ii64\"}"
    ~id:"x";
  expect_invalid "{\"id\":\"x\",\"op\":\"explore\",\"fabrics\":[\"+4x4\"]}" ~id:"x";
  expect_invalid "{\"id\":\"x\",\"op\":\"explore\",\"islands\":[\"0b10x2\"]}" ~id:"x";
  expect_invalid "{\"id\":\"x\",\"op\":\"map\",\"kernel\":\"fir\",\"backend\":\"sa:07\"}" ~id:"x";
  (* the fabric side is bounded at the RxC parser, in a sweep and in a
     map point alike *)
  let side = Space.max_side in
  expect_invalid
    "{\"id\":\"x\",\"op\":\"explore\",\"fabrics\":[\"4096x4096\"],\"kernels\":[\"fir\"]}"
    ~id:"x";
  expect_invalid
    (Printf.sprintf "{\"id\":\"x\",\"op\":\"explore\",\"fabrics\":[\"%dx1\"]}" (side + 1))
    ~id:"x";
  expect_invalid
    (Printf.sprintf "{\"id\":\"x\",\"op\":\"explore\",\"islands\":[\"1x%d\"]}" (side + 1))
    ~id:"x";
  expect_invalid
    (Printf.sprintf
       "{\"id\":\"x\",\"op\":\"map\",\"kernel\":\"fir\",\"point\":\"%dx%d/i1x1/b8/rest/u1/ii64\"}"
       (side * 2) (side * 2))
    ~id:"x";
  match
    Protocol.decode
      (Printf.sprintf
         "{\"id\":\"x\",\"op\":\"explore\",\"fabrics\":[\"%dx%d\"],\"islands\":[\"%dx%d\"]}"
         side side side side)
  with
  | Ok { Protocol.request = Protocol.Explore { spec; _ }; _ } ->
    Alcotest.(check (list (pair int int))) "largest side accepted" [ (side, side) ]
      spec.Space.fabrics
  | _ -> Alcotest.fail "a fabric at the side limit was rejected"

(* Every value of each shared field codec survives its one
   to_string/of_string pair, and nothing outside the codec's domain
   parses back. *)
let test_field_codecs_roundtrip () =
  let roundtrips name to_s of_s v =
    Alcotest.(check bool) (name ^ " " ^ to_s v) true (of_s (to_s v) = Some v)
  in
  List.iter (roundtrips "floor" Space.floor_to_string Space.floor_of_string) Iced_arch.Dvfs.active;
  Alcotest.(check bool) "gated is no floor" true
    (Space.floor_of_string (Space.floor_to_string Iced_arch.Dvfs.Power_gated) = None);
  List.iter
    (roundtrips "policy" Runner.policy_to_string Runner.policy_of_string)
    [ Runner.Static; Runner.Iced_dvfs; Runner.Drips ];
  List.iter (roundtrips "app" Iced_stream.App.to_string Iced_stream.App.of_string) Iced_stream.App.all;
  let sides = List.init Space.max_side (fun i -> i + 1) in
  List.iter
    (fun r -> List.iter (fun c -> roundtrips "dims" Space.dims_to_string Space.dims_of_string (r, c)) sides)
    sides;
  List.iter
    (fun d ->
      Alcotest.(check bool) (Space.dims_to_string d ^ " rejected") true
        (Space.dims_of_string (Space.dims_to_string d) = None))
    [ (0, 6); (6, 0); (-1, 6); (Space.max_side + 1, 1); (1, Space.max_side + 1) ]

let test_tenant_qos_fields () =
  (* explicit tenant/qos round-trip on any op *)
  roundtrip { (frame "t" Protocol.Ping) with Protocol.tenant = Some "acme"; qos = Some "premium" };
  roundtrip { (dframe "t2" (Protocol.Sleep 1) 100) with Protocol.tenant = Some "b u" };
  roundtrip { (frame "t3" Protocol.Stats) with Protocol.qos = Some "batch" };
  (* absent fields stay off the wire entirely, so pre-tenancy frames
     encode byte-identically *)
  let contains_sub needle hay =
    let n = String.length needle in
    let rec scan i = i + n <= String.length hay && (String.sub hay i n = needle || scan (i + 1)) in
    scan 0
  in
  let line = Protocol.encode_request (frame "p" Protocol.Ping) in
  Alcotest.(check bool) "absent tenant not on the wire" false (contains_sub "tenant" line);
  Alcotest.(check bool) "absent qos not on the wire" false (contains_sub "qos" line);
  (* hand-written field order decodes too, and qos is canonicalised *)
  (match Protocol.decode "{\"qos\":\"premium\",\"op\":\"ping\",\"tenant\":\"a\",\"id\":\"q\"}" with
  | Ok f ->
    Alcotest.(check (option string)) "tenant" (Some "a") f.Protocol.tenant;
    Alcotest.(check (option string)) "qos" (Some "premium") f.Protocol.qos
  | Error _ -> Alcotest.fail "tenant-tagged ping rejected");
  (* strict validation: unknown class, empty or mistyped tenant *)
  expect_invalid "{\"id\":\"q\",\"op\":\"ping\",\"qos\":\"platinum\"}" ~id:"q";
  expect_invalid "{\"id\":\"q\",\"op\":\"ping\",\"qos\":7}" ~id:"q";
  expect_invalid "{\"id\":\"q\",\"op\":\"ping\",\"tenant\":\"\"}" ~id:"q";
  expect_invalid "{\"id\":\"q\",\"op\":\"ping\",\"tenant\":7}" ~id:"q"

let test_invalid_responses_are_json () =
  List.iter
    (fun line ->
      match Protocol.decode line with
      | Ok _ -> Alcotest.failf "expected a decode error for %S" line
      | Error e -> (
        match Json.parse (Protocol.response_invalid e) with
        | Error pe ->
          Alcotest.failf "unparseable invalid reply: %s" (Json.error_to_string pe)
        | Ok doc ->
          Alcotest.(check (option string))
            "status" (Some "invalid")
            (Option.bind (Json.member "status" doc) Json.get_string)))
    [ "{\"op\""; "{\"id\":\"we\\\"ird\",\"op\":\"fly\"}"; "nope" ]

let prop_decode_total =
  QCheck.Test.make ~count:500 ~name:"decode never raises" QCheck.string (fun s ->
      match Protocol.decode s with Ok _ | Error _ -> true)

(* ---------------- bounded queue ---------------- *)

let test_bqueue_bounds () =
  let q = Bqueue.create ~capacity:2 in
  Alcotest.(check bool) "push 1" true (Bqueue.try_push q 1);
  Alcotest.(check bool) "push 2" true (Bqueue.try_push q 2);
  Alcotest.(check bool) "push 3 shed" false (Bqueue.try_push q 3);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Bqueue.pop q);
  Alcotest.(check bool) "push 4" true (Bqueue.try_push q 4);
  Bqueue.close q;
  Alcotest.(check bool) "push after close" false (Bqueue.try_push q 5);
  Alcotest.(check (option int)) "drains 2" (Some 2) (Bqueue.pop q);
  Alcotest.(check (option int)) "drains 4" (Some 4) (Bqueue.pop q);
  Alcotest.(check (option int)) "then closed" None (Bqueue.pop q);
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Bqueue.create: capacity must be >= 1") (fun () ->
      ignore (Bqueue.create ~capacity:0))

(* ---------------- cache dedup and coalescing ---------------- *)

let test_find_or_store_single_evaluation () =
  let cache = Cache.in_memory () in
  let evals = Atomic.make 0 in
  let eval () =
    Atomic.incr evals;
    Unix.sleepf 0.05;
    Outcome.Failed "computed-once"
  in
  let domains =
    List.init 8 (fun _ ->
        Domain.spawn (fun () -> Cache.find_or_store cache ~key:"k" eval))
  in
  let results = List.map Domain.join domains in
  Alcotest.(check int) "one evaluation" 1 (Atomic.get evals);
  Alcotest.(check int) "one miss" 1 (Cache.misses cache);
  List.iter
    (fun r ->
      Alcotest.(check bool) "same status" true (r = Outcome.Failed "computed-once"))
    results

let test_timed_out_not_cached () =
  let cache = Cache.in_memory () in
  let calls = ref 0 in
  let eval () =
    incr calls;
    Outcome.Timed_out
  in
  ignore (Cache.find_or_store cache ~key:"t" eval);
  ignore (Cache.find_or_store cache ~key:"t" eval);
  Alcotest.(check int) "timeouts re-evaluate" 2 !calls;
  Alcotest.(check int) "never stored" 0 (Cache.size cache)

(* ---------------- admission control ---------------- *)

let test_shed_overloaded () =
  let replies = ref [] in
  let mu = Mutex.create () in
  let respond line ~latency_s:_ =
    Mutex.lock mu;
    replies := line :: !replies;
    Mutex.unlock mu
  in
  let t =
    Server.create ~respond
      (config ~workers:1 ~queue_depth:1 ~cache:(Cache.in_memory ()))
  in
  Alcotest.(check bool) "first accepted" true
    (Server.submit t (frame "busy" (Protocol.Sleep 150)));
  (* wait for the worker to pop it so the next submit fills the queue *)
  while Server.queue_length t > 0 do
    Unix.sleepf 0.002
  done;
  Alcotest.(check bool) "second queued" true
    (Server.submit t (frame "queued" (Protocol.Sleep 1)));
  Alcotest.(check bool) "third shed" false (Server.submit t (frame "shed-me" Protocol.Ping));
  Server.shutdown t;
  Alcotest.(check int) "shed count" 1 (Server.shed t);
  Alcotest.(check int) "all replies emitted" 3 (Server.served t);
  let overloaded =
    List.filter
      (fun line ->
        match Json.parse line with
        | Ok doc ->
          Option.bind (Json.member "status" doc) Json.get_string = Some "overloaded"
          && Option.bind (Json.member "id" doc) Json.get_string = Some "shed-me"
        | Error _ -> false)
      !replies
  in
  Alcotest.(check int) "one overloaded reply" 1 (List.length overloaded)

(* ---------------- byte identity: one-shot vs pool ---------------- *)

let no_stats ~id = Protocol.response_error ~id "stats: not under test"

let identity_requests =
  let relax = { Protocol.default_point with Space.floor = Iced_arch.Dvfs.Relax } in
  [
    frame "01" Protocol.Ping;
    frame "02" (Protocol.Map { point = Protocol.default_point; kernel = "fir"; backend = Iced_mapper.Backend.default });
    frame "03" (Protocol.Map { point = Protocol.default_point; kernel = "fir"; backend = Iced_mapper.Backend.default });
    frame "04" (Protocol.Map { point = Protocol.default_point; kernel = "mvt"; backend = Iced_mapper.Backend.default });
    frame "05" (Protocol.Map { point = relax; kernel = "fir"; backend = Iced_mapper.Backend.default });
    frame "06" (Protocol.Map { point = Protocol.default_point; kernel = "nope"; backend = Iced_mapper.Backend.default });
    frame "07" (Protocol.Sleep 1);
    frame "08" (Protocol.Explore { spec = small_spec; kernels = [ "fir"; "mvt" ] });
    frame "09" Protocol.Ping;
    (* failure replies are part of the byte-identity contract too *)
    frame "10" (Protocol.Crash { kill = false });
    frame "11" (Protocol.Crash { kill = true });
    dframe "12" (Protocol.Sleep 50) 0;
    (* cross-backend frames: the seeded SA and Pathfinder paths must be
       as deterministic across worker counts as the default pair *)
    frame "13"
      (Protocol.Map
         { point = Protocol.default_point; kernel = "fir"; backend = Iced_mapper.Backend.sa });
    frame "14"
      (Protocol.Map
         {
           point = Protocol.default_point;
           kernel = "fir";
           backend = Iced_mapper.Backend.pathfinder;
         });
  ]

let oneshot_responses () =
  let cache = Cache.in_memory () in
  List.map (Server.handle ~cache ~stats:no_stats) identity_requests

let pool_responses workers =
  let acc = ref [] in
  let mu = Mutex.create () in
  let respond line ~latency_s:_ =
    Mutex.lock mu;
    acc := line :: !acc;
    Mutex.unlock mu
  in
  let t =
    Server.create ~respond (config ~workers ~queue_depth:64 ~cache:(Cache.in_memory ()))
  in
  List.iter (fun f -> ignore (Server.submit t f)) identity_requests;
  Server.shutdown t;
  !acc

let test_pool_byte_identity () =
  let expected = List.sort compare (oneshot_responses ()) in
  List.iter
    (fun workers ->
      Alcotest.(check (list string))
        (Printf.sprintf "%d workers" workers)
        expected
        (List.sort compare (pool_responses workers)))
    [ 1; 4 ]

let test_persistent_cache_identity () =
  (* a response computed fresh and one replayed from the persistent
     tier must render byte-identically: %.17g round-trips exactly *)
  let path = Filename.temp_file "iced-serve-cache" ".jsonl" in
  let req = frame "m" (Protocol.Map { point = Protocol.default_point; kernel = "fft"; backend = Iced_mapper.Backend.default }) in
  let once () =
    let cache = Cache.open_file path in
    let r = Server.handle ~cache ~stats:no_stats req in
    Cache.close cache;
    r
  in
  let fresh = once () in
  let replayed = once () in
  Sys.remove path;
  Alcotest.(check string) "fresh = replayed" fresh replayed

(* ---------------- the channel transport ---------------- *)

let test_serve_channels_pipe () =
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  let server =
    Domain.spawn (fun () ->
        let ic = Unix.in_channel_of_descr req_r in
        let oc = Unix.out_channel_of_descr resp_w in
        let reason =
          Server.serve_channels
            (config ~workers:2 ~queue_depth:8 ~cache:(Cache.in_memory ()))
            ic oc
        in
        flush oc;
        reason)
  in
  let client_oc = Unix.out_channel_of_descr req_w in
  let client_ic = Unix.in_channel_of_descr resp_r in
  List.iter
    (fun line ->
      output_string client_oc line;
      output_char client_oc '\n')
    [
      "{\"id\":\"a\",\"op\":\"ping\"}";
      "this is not json";
      "{\"id\":\"b\",\"op\":\"ping\"}";
      "{\"id\":\"z\",\"op\":\"shutdown\"}";
    ];
  flush client_oc;
  let responses = List.init 4 (fun _ -> input_line client_ic) in
  let reason = Domain.join server in
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ req_r; req_w; resp_r; resp_w ];
  Alcotest.(check bool) "stopped on shutdown" true (reason = Server.Requested);
  let sorted = List.sort compare responses in
  Alcotest.(check (list string))
    "response lines"
    (List.sort compare
       [
         "{\"id\":\"a\",\"status\":\"ok\",\"op\":\"ping\"}";
         "{\"status\":\"invalid\",\"error\":\"parse error: expected true at byte 0\"}";
         "{\"id\":\"b\",\"status\":\"ok\",\"op\":\"ping\"}";
         "{\"id\":\"z\",\"status\":\"ok\",\"op\":\"shutdown\"}";
       ])
    sorted

(* ---------------- deadlines ---------------- *)

let test_deadline_pre_expired () =
  let cache = Cache.in_memory () in
  Alcotest.(check string) "ping times out"
    (Protocol.response_timeout ~id:"d0" ~op:"ping")
    (Server.handle ~cache ~stats:no_stats (dframe "d0" Protocol.Ping 0));
  let rm =
    Server.handle ~cache ~stats:no_stats
      (dframe "dm" (Protocol.Map { point = Protocol.default_point; kernel = "fir"; backend = Iced_mapper.Backend.default }) 0)
  in
  match Json.parse rm with
  | Error e -> Alcotest.failf "unparseable map timeout: %s" (Json.error_to_string e)
  | Ok doc ->
    Alcotest.(check (option string))
      "map timeout status" (Some "timeout")
      (Option.bind (Json.member "status" doc) Json.get_string);
    Alcotest.(check (option string))
      "map timeout echoes kernel" (Some "fir")
      (Option.bind (Json.member "kernel" doc) Json.get_string)

let test_deadline_mid_sleep () =
  (* the sleep is cut at the deadline, not run to completion *)
  let cache = Cache.in_memory () in
  let t0 = Unix.gettimeofday () in
  let r = Server.handle ~cache ~stats:no_stats (dframe "ds" (Protocol.Sleep 5_000) 60) in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check string) "sleep timeout"
    (Protocol.response_timeout ~id:"ds" ~op:"sleep")
    r;
  Alcotest.(check bool) "returned well before the nominal sleep" true (elapsed < 2.0)

let test_default_deadline_applies () =
  (* a frame with no deadline of its own inherits the config default *)
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  let writer = Unix.out_channel_of_descr req_w in
  output_string writer "{\"id\":\"s\",\"op\":\"sleep\",\"ms\":5000}\n";
  close_out writer;
  let cfg =
    { (config ~workers:1 ~queue_depth:4 ~cache:(Cache.in_memory ())) with
      Server.default_deadline_ms = Some 40;
    }
  in
  let reason = Server.serve_fds ~once:true cfg req_r resp_w in
  Unix.close resp_w;
  let ic = Unix.in_channel_of_descr resp_r in
  let line = input_line ic in
  close_in ic;
  Unix.close req_r;
  Alcotest.(check bool) "eof" true (reason = Server.Eof);
  Alcotest.(check string) "sheds at the default deadline"
    (Protocol.response_timeout ~id:"s" ~op:"sleep")
    line

(* ---------------- supervision ---------------- *)

let test_exception_barrier () =
  (* a raising handler yields a structured reply with a stable
     fingerprint, and the same bytes on every invocation *)
  let cache = Cache.in_memory () in
  let r1 = Server.handle ~cache ~stats:no_stats (frame "c" (Protocol.Crash { kill = false })) in
  let r2 = Server.handle ~cache ~stats:no_stats (frame "c" (Protocol.Crash { kill = false })) in
  Alcotest.(check string) "stable bytes" r1 r2;
  Alcotest.(check string) "structured reply"
    (Protocol.response_internal_error ~id:"c" ~op:"crash"
       ~fingerprint:(Server.fingerprint Server.Chaos_failure))
    r1;
  (* in one-shot mode even a kill is absorbed by the barrier *)
  Alcotest.(check string) "kill absorbed when catch_kill"
    (Protocol.response_internal_error ~id:"k" ~op:"crash"
       ~fingerprint:(Server.fingerprint Server.Worker_kill))
    (Server.handle ~cache ~stats:no_stats (frame "k" (Protocol.Crash { kill = true })))

let test_supervision_restart_budget () =
  let acc = ref [] in
  let mu = Mutex.create () in
  let respond line ~latency_s:_ =
    Mutex.lock mu;
    acc := line :: !acc;
    Mutex.unlock mu
  in
  let t =
    Server.create ~respond
      {
        Server.workers = 1;
        queue_depth = 8;
        cache = Cache.in_memory ();
        restart_budget = 1;
        default_deadline_ms = None;
      }
  in
  (* first kill: absorbed, the worker restarts and keeps serving *)
  ignore (Server.submit t (frame "k1" (Protocol.Crash { kill = true })));
  Server.drain t;
  Alcotest.(check int) "one restart" 1 (Server.restarts t);
  Alcotest.(check int) "still alive" 1 (Server.alive t);
  ignore (Server.submit t (frame "p" Protocol.Ping));
  Server.drain t;
  (* second kill: budget exhausted, the worker retires *)
  ignore (Server.submit t (frame "k2" (Protocol.Crash { kill = true })));
  Server.drain t;
  Alcotest.(check int) "budget spent" 2 (Server.restarts t);
  Alcotest.(check int) "worker retired" 0 (Server.alive t);
  Alcotest.(check bool) "further submits refused" false
    (Server.submit t (frame "late" Protocol.Ping));
  Server.shutdown t;
  let expect_kill id =
    Protocol.response_internal_error ~id ~op:"crash"
      ~fingerprint:(Server.fingerprint Server.Worker_kill)
  in
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " answered") true (List.mem (expect_kill id) !acc))
    [ "k1"; "k2" ];
  Alcotest.(check bool) "work between kills still served" true
    (List.mem "{\"id\":\"p\",\"status\":\"ok\",\"op\":\"ping\"}" !acc)

(* ---------------- health ---------------- *)

let member_obj name doc =
  match Json.member name doc with
  | Some (Json.Obj _ as o) -> o
  | _ -> Alcotest.failf "missing object %S" name

let test_health_reply_shape () =
  let acc = ref [] in
  let mu = Mutex.create () in
  let respond line ~latency_s:_ =
    Mutex.lock mu;
    acc := line :: !acc;
    Mutex.unlock mu
  in
  let t =
    Server.create ~respond (config ~workers:2 ~queue_depth:8 ~cache:(Cache.in_memory ()))
  in
  ignore (Server.submit t (frame "h" Protocol.Health));
  Server.shutdown t;
  let line =
    List.find
      (fun line ->
        match Json.parse line with
        | Ok doc -> Option.bind (Json.member "op" doc) Json.get_string = Some "health"
        | Error _ -> false)
      !acc
  in
  match Json.parse line with
  | Error e -> Alcotest.failf "unparseable health: %s" (Json.error_to_string e)
  | Ok doc ->
    Alcotest.(check (option bool))
      "healthy" (Some true)
      (Option.bind (Json.member "healthy" doc) Json.get_bool);
    let workers = member_obj "workers" doc in
    Alcotest.(check (option int))
      "workers.total" (Some 2)
      (Option.bind (Json.member "total" workers) Json.get_int);
    Alcotest.(check (option int))
      "workers.restart_budget" (Some 8)
      (Option.bind (Json.member "restart_budget" workers) Json.get_int);
    let queue = member_obj "queue" doc in
    Alcotest.(check (option int))
      "queue.depth" (Some 8)
      (Option.bind (Json.member "depth" queue) Json.get_int);
    let cache = member_obj "cache" doc in
    Alcotest.(check (option string))
      "cache.tier" (Some "memory")
      (Option.bind (Json.member "tier" cache) Json.get_string)

(* ---------------- transport stop and torn frames ---------------- *)

let test_serve_fds_stop_preset () =
  (* a stop predicate that already holds interrupts before any read *)
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  let reason =
    Server.serve_fds
      ~stop:(fun () -> true)
      (config ~workers:1 ~queue_depth:4 ~cache:(Cache.in_memory ()))
      req_r resp_w
  in
  List.iter Unix.close [ req_r; req_w; resp_r; resp_w ];
  Alcotest.(check bool) "stopped" true (reason = Server.Stopped)

let test_torn_final_line_discarded () =
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  let writer = Unix.out_channel_of_descr req_w in
  output_string writer "{\"id\":\"a\",\"op\":\"ping\"}\n{\"id\":\"b\",\"op\":\"pi";
  close_out writer;
  let reason =
    Server.serve_fds ~once:true
      (config ~workers:1 ~queue_depth:4 ~cache:(Cache.in_memory ()))
      req_r resp_w
  in
  Unix.close resp_w;
  let ic = Unix.in_channel_of_descr resp_r in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Unix.close req_r;
  Alcotest.(check bool) "eof" true (reason = Server.Eof);
  Alcotest.(check (list string))
    "only the complete frame is answered"
    [ "{\"id\":\"a\",\"status\":\"ok\",\"op\":\"ping\"}" ]
    (List.rev !lines)

(* The reason [serve_fds] stops with and every reply it writes for
   [input], sent from another domain so that input past a pipe's buffer
   cannot block the server. *)
let serve_pipe ~once input =
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  let client =
    Domain.spawn (fun () ->
        let oc = Unix.out_channel_of_descr req_w in
        output_string oc input;
        close_out oc)
  in
  let reason =
    Server.serve_fds ~once (config ~workers:1 ~queue_depth:4 ~cache:(Cache.in_memory ()))
      req_r resp_w
  in
  Domain.join client;
  List.iter Unix.close [ req_r; resp_w ];
  let ic = Unix.in_channel_of_descr resp_r in
  let replies = String.split_on_char '\n' (In_channel.input_all ic) in
  close_in ic;
  (reason, List.filter (fun l -> l <> "") replies)

let test_over_long_line () =
  (* a line past the cap gets one invalid reply in both modes, and the
     frame after it is served; a frame exactly at the cap is served *)
  let cap = Iced_serve.Lineio.max_line in
  let ping = "{\"id\":\"p\",\"op\":\"ping\"}" in
  let ping_reply = Protocol.response_ping ~id:"p" in
  let too_long =
    Printf.sprintf "{\"status\":\"invalid\",\"error\":\"parse error: line too long at byte %d\"}" cap
  in
  let at_cap =
    let head = "{\"id\":\"c\",\"op\":\"ping\"" in
    head ^ String.make (cap - String.length head - 1) ' ' ^ "}"
  in
  List.iter
    (fun once ->
      let mode = if once then "once" else "pool" in
      List.iter
        (fun len ->
          match serve_pipe ~once (String.make len 'x' ^ "\n" ^ ping ^ "\n") with
          | Server.Eof, replies ->
            Alcotest.(check (list string)) (Printf.sprintf "%s, %d bytes" mode len)
              [ too_long; ping_reply ] replies
          | _ -> Alcotest.failf "%s, %d bytes: not stopped at EOF" mode len)
        [ cap + 1; (2 * cap) + 5 ];
      Alcotest.(check (list string)) (mode ^ ": a frame at the cap")
        [ Protocol.response_ping ~id:"c"; ping_reply ]
        (snd (serve_pipe ~once (at_cap ^ "\n" ^ ping ^ "\n"))))
    [ true; false ]

(* ---------------- stats ---------------- *)

let test_stats_reply_shape () =
  let acc = ref [] in
  let mu = Mutex.create () in
  let respond line ~latency_s:_ =
    Mutex.lock mu;
    acc := line :: !acc;
    Mutex.unlock mu
  in
  let t =
    Server.create ~respond (config ~workers:2 ~queue_depth:8 ~cache:(Cache.in_memory ()))
  in
  ignore (Server.submit t (frame "p1" Protocol.Ping));
  ignore
    (Server.submit t
       { (frame "p2" Protocol.Ping) with Protocol.tenant = Some "acme"; qos = Some "batch" });
  Server.drain t;
  ignore (Server.submit t (frame "s1" Protocol.Stats));
  Server.shutdown t;
  let stats_line =
    List.find
      (fun line ->
        match Json.parse line with
        | Ok doc -> Option.bind (Json.member "op" doc) Json.get_string = Some "stats"
        | Error _ -> false)
      !acc
  in
  match Json.parse stats_line with
  | Error e -> Alcotest.failf "unparseable stats: %s" (Json.error_to_string e)
  | Ok doc ->
    let int_member name =
      match Option.bind (Json.member name doc) Json.get_int with
      | Some v -> v
      | None -> Alcotest.failf "stats reply lacks %S: %s" name stats_line
    in
    Alcotest.(check int) "workers" 2 (int_member "workers");
    Alcotest.(check int) "queue_depth" 8 (int_member "queue_depth");
    Alcotest.(check int) "shed" 0 (int_member "shed");
    Alcotest.(check bool) "served >= 1" true (int_member "served" >= 1);
    (match Json.member "cache" doc with
    | Some (Json.Obj _) -> ()
    | _ -> Alcotest.fail "stats reply lacks a cache object");
    (* counters are process-global, so earlier tests may have bumped
       them — assert shape, not values *)
    (let failures = member_obj "failures" doc in
     List.iter
       (fun name ->
         match Option.bind (Json.member name failures) Json.get_int with
         | Some v -> Alcotest.(check bool) name true (v >= 0)
         | None -> Alcotest.failf "failures object lacks %S" name)
       [ "internal_errors"; "worker_restarts"; "deadline_expired"; "cache_recoveries" ]);
    (match Json.member "latency" doc with
    | Some (Json.Obj _) | Some Json.Null -> ()
    | _ -> Alcotest.fail "stats reply lacks a latency field");
    (* the tenant-tagged ping above must surface a per-tenant SLO entry
       (metrics are process-global, so other tenants may appear too) *)
    match Json.member "tenants" doc with
    | Some (Json.Arr entries) ->
      let ids =
        List.filter_map (fun e -> Option.bind (Json.member "tenant" e) Json.get_string) entries
      in
      Alcotest.(check bool) "acme listed in tenants" true (List.mem "acme" ids)
    | _ -> Alcotest.fail "stats reply lacks a tenants array"

(* An explore frame is cut short at its deadline: the default 16
   points over a 1,000-node kernel would map for minutes, so the sweep
   must stop between points and inside each point's search.  The reply
   is [timeout] for op explore, within the deadline plus a fixed slack,
   and it counts one expired deadline. *)
let test_deadline_cuts_explore () =
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  let writer = Unix.out_channel_of_descr req_w in
  output_string writer
    "{\"id\":\"e\",\"op\":\"explore\",\"kernels\":[\"rand1000x1\"],\"deadline_ms\":300}\n";
  close_out writer;
  let expired () =
    Option.value ~default:0 (Iced_obs.Metrics.counter_value "serve.deadline_expired")
  in
  let before = expired () in
  let t0 = Unix.gettimeofday () in
  let reason =
    Server.serve_fds ~once:true (config ~workers:1 ~queue_depth:4 ~cache:(Cache.in_memory ()))
      req_r resp_w
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Unix.close resp_w;
  let ic = Unix.in_channel_of_descr resp_r in
  let line = input_line ic in
  close_in ic;
  Unix.close req_r;
  Alcotest.(check bool) "eof" true (reason = Server.Eof);
  Alcotest.(check string) "explore times out"
    (Protocol.response_timeout ~id:"e" ~op:"explore")
    line;
  Alcotest.(check int) "one expired deadline counted" (before + 1) (expired ());
  if elapsed > 5.3 then Alcotest.failf "timeout reply after %.2f s (bound 5.3 s)" elapsed

let suite =
  [
    ("protocol roundtrip, all ops", `Quick, test_roundtrip_all_ops);
    ("protocol roundtrip, hostile ids", `Quick, test_roundtrip_hostile_ids);
    ("decode rejects malformed frames", `Quick, test_decode_malformed);
    ("decode rejects invalid requests", `Quick, test_decode_invalid);
    ("map backend field: implicit default, strict parse", `Quick, test_map_backend_field);
    ("tenant/qos fields: implicit absent, strict parse", `Quick, test_tenant_qos_fields);
    ("invalid replies are JSON", `Quick, test_invalid_responses_are_json);
    QCheck_alcotest.to_alcotest prop_decode_total;
    ("bqueue bounds and close", `Quick, test_bqueue_bounds);
    ("find_or_store evaluates once", `Quick, test_find_or_store_single_evaluation);
    ("timeouts are never cached", `Quick, test_timed_out_not_cached);
    ("full queue sheds with overloaded", `Quick, test_shed_overloaded);
    ("pool responses = one-shot bytes", `Quick, test_pool_byte_identity);
    ("persistent tier replays identical bytes", `Quick, test_persistent_cache_identity);
    ("serve_channels over a pipe", `Quick, test_serve_channels_pipe);
    ("stats reply shape", `Quick, test_stats_reply_shape);
    ("pre-expired deadlines shed without running", `Quick, test_deadline_pre_expired);
    ("deadlines cut sleeps short", `Quick, test_deadline_mid_sleep);
    ("config default deadline applies", `Quick, test_default_deadline_applies);
    ("exception barrier yields stable fingerprints", `Quick, test_exception_barrier);
    ("supervisor restarts within budget then retires", `Quick, test_supervision_restart_budget);
    ("health reply shape", `Quick, test_health_reply_shape);
    ("stop predicate interrupts serve_fds", `Quick, test_serve_fds_stop_preset);
    ("torn final line is discarded", `Quick, test_torn_final_line_discarded);
    ("over-long line: one invalid reply, then served", `Quick, test_over_long_line);
    ("field codecs round-trip", `Quick, test_field_codecs_roundtrip);
    ("deadlines cut explore short", `Quick, test_deadline_cuts_explore);
  ]
