(* Byte pins for the JSON the daemon and the explore cache put on the
   wire or on disk: every request frame [Protocol.encode_request]
   renders, every [Protocol.response_*] reply, the [invalid] reply for
   every reason [Protocol.decode] gives, and the write-ahead log's record
   frames and header line.  Clients and stores written by
   older builds depend on these bytes, so each expected string below is
   a literal: a change to any emitter shows up here as a diff, not as a
   silent re-rendering. *)

module Protocol = Iced_serve.Protocol
module Cache = Iced_explore.Cache
module Space = Iced_explore.Space
module Outcome = Iced_explore.Outcome
module Campaign = Iced_campaign.Campaign
module Runner = Iced_stream.Runner
module Backend = Iced_mapper.Backend
module Json = Iced_util.Json

let hostile = "q\"\\\n\t\x01"

let frame ?deadline_ms ?tenant ?qos id request =
  { Protocol.id; request; deadline_ms; tenant; qos }

let point = { Protocol.default_point with Space.floor = Iced_arch.Dvfs.Relax; unroll = 2 }

let spec =
  {
    Space.fabrics = [ (4, 4); (6, 6) ];
    islands = [ (2, 2) ];
    spm_banks = [ 4; 8 ];
    floors = [ Iced_arch.Dvfs.Rest; Iced_arch.Dvfs.Normal ];
    unrolls = [ 1; 2 ];
    max_iis = [ 32 ];
  }

(* awkward doubles: thirds, a tiny value, a huge one and an integral
   one *)
let measurement =
  {
    Outcome.kernel = "fir";
    ii = 4;
    utilization = 13.0 /. 36.0;
    dvfs = 1.0 /. 3.0;
    power_mw = 42.0;
    throughput_mips = 1.0e9 /. 7.0;
    energy_nj = 2.5e-7;
    edp = 1e21;
  }

let explore_outcomes =
  [
    {
      Outcome.point = Protocol.default_point;
      per_kernel =
        [ ("fir", Outcome.Mapped measurement);
          ("gemm", Outcome.Mapped { measurement with Outcome.kernel = "gemm"; ii = 7; power_mw = 0.1 }) ];
    };
    {
      Outcome.point;
      per_kernel = [ ("fir", Outcome.Failed "no mapping"); ("gemm", Outcome.Timed_out) ];
    };
  ]

let totals =
  {
    Runner.total_inputs = 12;
    total_time_us = 3.0;
    total_energy_uj = 0.1;
    overall_throughput_per_s = 4e6;
    overall_efficiency = -0.0;  (* negative zero *)
  }

(* one seed of the daemon's own campaign shape *)
let campaign =
  lazy
    (match
       Campaign.run
         { Campaign.default_spec with Campaign.seeds = [ 0 ]; inputs = 50; workers = 1 }
     with
    | Ok c -> c
    | Error msg -> failwith msg)

let fresh_header () =
  let path = Filename.temp_file "iced-wire" ".jsonl" in
  Sys.remove path;
  let c = Cache.open_file path in
  Cache.close c;
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  s

let requests =
  [
    ("ping", frame "a" Protocol.Ping);
    ("ping hostile id", frame hostile Protocol.Ping);
    ("sleep deadline", frame ~deadline_ms:250 "s" (Protocol.Sleep 5));
    ("map default", frame "m" (Protocol.Map { point = Protocol.default_point; kernel = "fir"; backend = Backend.default }));
    ("map sa", frame "m2" (Protocol.Map { point; kernel = "gemm"; backend = Backend.sa }));
    ("map pathfinder", frame "m3" (Protocol.Map { point; kernel = "fir"; backend = Backend.pathfinder }));
    ("map tenant qos", frame ~tenant:"acme" ~qos:"premium" "m4" (Protocol.Map { point = Protocol.default_point; kernel = "fir"; backend = Backend.default }));
    ("map every extra", frame ~deadline_ms:0 ~tenant:hostile ~qos:"batch" hostile (Protocol.Map { point; kernel = hostile; backend = Backend.sa }));
    ("explore", frame "e" (Protocol.Explore { spec; kernels = [ "fir"; "gemm" ] }));
    ("explore all kernels", frame "e2" (Protocol.Explore { spec; kernels = [] }));
    ("stream", frame "st" (Protocol.Stream { app = Iced_stream.App.Gcn; policy = Runner.Iced_dvfs; inputs = 12 }));
    ("fault", frame "f" (Protocol.Fault { app = Iced_stream.App.Lu; seeds = 2; faults = 1; inputs = 50; window = 10 }));
    ("stats", frame "" Protocol.Stats);
    ("health", frame ~tenant:"t" "h" Protocol.Health);
    ("crash", frame "c" (Protocol.Crash { kill = false }));
    ("crash kill", frame "k" (Protocol.Crash { kill = true }));
    ("shutdown", frame ~qos:"standard" "z" Protocol.Shutdown);
  ]

(* one frame for every reason [Protocol.decode] gives, plus frames with
   several faults, which pin the order the fields are read in *)
let rejections =
  [
    ("parse error", "{\"id\":\"a\",\"op\":\"pi");
    ("id not a string", "{\"id\":7,\"op\":\"ping\"}");
    ("not an object", "42");
    ("op missing", "{\"id\":\"o\"}");
    ("op not a string", "{\"id\":\"o\",\"op\":7}");
    ("op unknown", "{\"id\":\"o\",\"op\":\"fly\"}");
    ("kernel missing", "{\"id\":\"m\",\"op\":\"map\"}");
    ("kernel not a string", "{\"id\":\"m\",\"op\":\"map\",\"kernel\":7}");
    ("point not a string", "{\"id\":\"m\",\"op\":\"map\",\"kernel\":\"fir\",\"point\":7}");
    ("point bad", "{\"id\":\"m\",\"op\":\"map\",\"kernel\":\"fir\",\"point\":\"bogus\"}");
    ("backend not a string", "{\"id\":\"m\",\"op\":\"map\",\"kernel\":\"fir\",\"backend\":7}");
    ("backend unknown", "{\"id\":\"m\",\"op\":\"map\",\"kernel\":\"fir\",\"backend\":\"warp\"}");
    ("ms missing", "{\"id\":\"s\",\"op\":\"sleep\"}");
    ("ms not an integer", "{\"id\":\"s\",\"op\":\"sleep\",\"ms\":\"5\"}");
    ("ms fractional", "{\"id\":\"s\",\"op\":\"sleep\",\"ms\":1.5}");
    ("ms negative", "{\"id\":\"s\",\"op\":\"sleep\",\"ms\":-1}");
    ("fabrics not an array", "{\"id\":\"e\",\"op\":\"explore\",\"fabrics\":\"6x6\"}");
    ("fabrics item", "{\"id\":\"e\",\"op\":\"explore\",\"fabrics\":[\"0x6\"]}");
    ("islands item", "{\"id\":\"e\",\"op\":\"explore\",\"islands\":[\"6x\"]}");
    ("floors item", "{\"id\":\"e\",\"op\":\"explore\",\"floors\":[\"gated\"]}");
    ("kernels item", "{\"id\":\"e\",\"op\":\"explore\",\"kernels\":[7]}");
    ("banks not an array", "{\"id\":\"e\",\"op\":\"explore\",\"banks\":8}");
    ("unrolls item", "{\"id\":\"e\",\"op\":\"explore\",\"unrolls\":[\"1\"]}");
    ("app missing", "{\"id\":\"st\",\"op\":\"stream\"}");
    ("app not a string", "{\"id\":\"st\",\"op\":\"stream\",\"app\":7}");
    ("app unknown", "{\"id\":\"st\",\"op\":\"stream\",\"app\":\"foo\"}");
    ("policy unknown", "{\"id\":\"st\",\"op\":\"stream\",\"app\":\"lu\",\"policy\":\"warp\"}");
    ("stream inputs negative", "{\"id\":\"st\",\"op\":\"stream\",\"app\":\"lu\",\"inputs\":-1}");
    ("fault app unknown", "{\"id\":\"f\",\"op\":\"fault\",\"app\":\"foo\"}");
    ("fault seeds 0", "{\"id\":\"f\",\"op\":\"fault\",\"seeds\":0}");
    ("fault faults negative", "{\"id\":\"f\",\"op\":\"fault\",\"faults\":-1}");
    ("fault inputs 0", "{\"id\":\"f\",\"op\":\"fault\",\"inputs\":0}");
    ("fault window 0", "{\"id\":\"f\",\"op\":\"fault\",\"window\":0}");
    ("kill not a boolean", "{\"id\":\"c\",\"op\":\"crash\",\"kill\":\"yes\"}");
    ("deadline negative", "{\"id\":\"d\",\"op\":\"ping\",\"deadline_ms\":-1}");
    ("deadline not an integer", "{\"id\":\"d\",\"op\":\"ping\",\"deadline_ms\":\"soon\"}");
    ("tenant empty", "{\"id\":\"t\",\"op\":\"ping\",\"tenant\":\"\"}");
    ("tenant not a string", "{\"id\":\"t\",\"op\":\"ping\",\"tenant\":7}");
    ("qos unknown", "{\"id\":\"q\",\"op\":\"ping\",\"qos\":\"platinum\"}");
    ("fault seeds past the bound", "{\"id\":\"f\",\"op\":\"fault\",\"seeds\":33}");
    ("fault inputs 1", "{\"id\":\"f\",\"op\":\"fault\",\"inputs\":1}");
    ("fault inputs past the bound", "{\"id\":\"f\",\"op\":\"fault\",\"inputs\":2001}");
    ("point not canonical", "{\"id\":\"m\",\"op\":\"map\",\"kernel\":\"fir\",\"point\":\"+6x0o6/i2x2/b0x8/rest/u1/ii6_4\"}");
    ("fabrics not canonical", "{\"id\":\"e\",\"op\":\"explore\",\"fabrics\":[\"+4x4\"],\"islands\":[\"0b10x2\"]}");
    ("islands not canonical", "{\"id\":\"e\",\"op\":\"explore\",\"fabrics\":[\"4x4\"],\"islands\":[\"0b10x2\"]}");
    ("backend seed not canonical", "{\"id\":\"m\",\"op\":\"map\",\"kernel\":\"fir\",\"backend\":\"sa:07\"}");
    ("backend sa+dijkstra", "{\"id\":\"m\",\"op\":\"map\",\"kernel\":\"fir\",\"backend\":\"sa+dijkstra:3\"}");
    ("fault faults past the bound", "{\"id\":\"f\",\"op\":\"fault\",\"faults\":10001}");
    ("order: frame fields first", "{\"id\":\"x\",\"op\":\"fly\",\"deadline_ms\":-1,\"tenant\":\"\",\"qos\":\"gold\"}");
    ("order: tenant before qos", "{\"id\":\"x\",\"op\":\"ping\",\"tenant\":\"\",\"qos\":\"gold\"}");
    ("order: map", "{\"id\":\"x\",\"op\":\"map\",\"point\":7,\"backend\":7}");
    ("order: explore", "{\"id\":\"x\",\"op\":\"explore\",\"banks\":8,\"floors\":\"rest\",\"unrolls\":1,\"max_iis\":64,\"kernels\":\"fir\"}");
    ("order: stream", "{\"id\":\"x\",\"op\":\"stream\",\"app\":\"lu\",\"policy\":\"warp\",\"inputs\":-1}");
    ("order: fault", "{\"id\":\"x\",\"op\":\"fault\",\"seeds\":0,\"faults\":-1,\"inputs\":0,\"window\":0}");
    ("explore grid past the bound", "{\"id\":\"e\",\"op\":\"explore\",\"banks\":[1,2,3,4,5,6,7,8,9],\"unrolls\":[1,2],\"max_iis\":[8,16,32,64]}");
  ]

let rejected line =
  match Protocol.decode line with
  | Error e -> Protocol.response_invalid e
  | Ok _ -> "accepted " ^ line

(* a line past the cap never reaches [Protocol.decode]: the transport
   answers it *)
let over_long () =
  match Test_serve.serve_pipe ~once:true (String.make (Iced_serve.Lineio.max_line + 1) 'x' ^ "\n") with
  | _, replies -> String.concat "\n" replies

let responses =
  List.map (fun (name, line) -> ("invalid: " ^ name, fun () -> rejected line)) rejections
  @ [
    ("invalid: line too long", over_long);
    ("ping", fun () -> Protocol.response_ping ~id:"a");
    ("ping hostile id", fun () -> Protocol.response_ping ~id:hostile);
    ("sleep", fun () -> Protocol.response_sleep ~id:"s" ~ms:5);
    ("map mapped", fun () -> Protocol.response_map ~id:"m" ~point ~kernel:"fir" (Outcome.Mapped measurement));
    ("map failed", fun () -> Protocol.response_map ~id:hostile ~point ~kernel:hostile (Outcome.Failed hostile));
    ("map timed out", fun () -> Protocol.response_map ~id:"t" ~point:Protocol.default_point ~kernel:"fir" Outcome.Timed_out);
    ( "explore",
      fun () ->
        Protocol.response_explore ~id:"e"
          ~frontier:[ Outcome.summarize (List.hd explore_outcomes) ]
          explore_outcomes );
    ("stream", fun () -> Protocol.response_stream ~id:"st" ~app:Iced_stream.App.Gcn ~policy:Runner.Drips ~windows:3 totals);
    ("fault", fun () -> Protocol.response_fault ~id:"f" (Lazy.force campaign));
    ("shutdown", fun () -> Protocol.response_shutdown ~id:"z");
    ("timeout", fun () -> Protocol.response_timeout ~id:"s" ~op:"sleep");
    ("internal error", fun () -> Protocol.response_internal_error ~id:"c" ~op:"crash" ~fingerprint:"0123456789abcdef");
    ("error", fun () -> Protocol.response_error ~id:hostile ("unknown kernel " ^ hostile));
    ("overloaded", fun () -> Protocol.response_overloaded ~id:"o" ~depth:64);
    ( "invalid malformed",
      fun () -> Protocol.response_invalid (Protocol.Malformed { Json.at = 7; reason = "unterminated string" }) );
    ( "invalid",
      fun () -> Protocol.response_invalid (Protocol.Invalid { id = hostile; reason = "unknown op \"nope\"" }) );
  ]

let wal =
  [
    ("record ok", fun () -> Cache.frame_record ~key:("6x6|" ^ hostile) (Outcome.Mapped measurement));
    ("record fail", fun () -> Cache.frame_record ~key:"k|fail" (Outcome.Failed hostile));
    ("record timeout", fun () -> Cache.frame_record ~key:"k" Outcome.Timed_out);
    ("fresh header", fresh_header);
  ]

let cases =
  List.map (fun (name, f) -> ("request " ^ name, fun () -> Protocol.encode_request f)) requests
  @ List.map (fun (name, f) -> ("response " ^ name, f)) responses
  @ List.map (fun (name, f) -> ("wal " ^ name, f)) wal

(* rendered by the emitters as they stood before the JSON printer was
   unified; regenerate only for a deliberate wire-format change *)
let expected =
  [
    ( "request ping",
      "{\"id\":\"a\",\"op\":\"ping\"}" );
    ( "request ping hostile id",
      "{\"id\":\"q\\\"\\\\\\n\\t\\u0001\",\"op\":\"ping\"}" );
    ( "request sleep deadline",
      "{\"id\":\"s\",\"op\":\"sleep\",\"deadline_ms\":250,\"ms\":5}" );
    ( "request map default",
      "{\"id\":\"m\",\"op\":\"map\",\"point\":\"6x6/i2x2/b8/rest/u1/ii64\",\"kernel\":\"fir\"}" );
    ( "request map sa",
      "{\"id\":\"m2\",\"op\":\"map\",\"point\":\"6x6/i2x2/b8/relax/u2/ii64\",\"kernel\":\"gemm\",\"backend\":\"sa\"}" );
    ( "request map pathfinder",
      "{\"id\":\"m3\",\"op\":\"map\",\"point\":\"6x6/i2x2/b8/relax/u2/ii64\",\"kernel\":\"fir\",\"backend\":\"pathfinder\"}" );
    ( "request map tenant qos",
      "{\"id\":\"m4\",\"op\":\"map\",\"tenant\":\"acme\",\"qos\":\"premium\",\"point\":\"6x6/i2x2/b8/rest/u1/ii64\",\"kernel\":\"fir\"}" );
    ( "request map every extra",
      "{\"id\":\"q\\\"\\\\\\n\\t\\u0001\",\"op\":\"map\",\"deadline_ms\":0,\"tenant\":\"q\\\"\\\\\\n\\t\\u0001\",\"qos\":\"batch\",\"point\":\"6x6/i2x2/b8/relax/u2/ii64\",\"kernel\":\"q\\\"\\\\\\n\\t\\u0001\",\"backend\":\"sa\"}" );
    ( "request explore",
      "{\"id\":\"e\",\"op\":\"explore\",\"fabrics\":[\"4x4\",\"6x6\"],\"islands\":[\"2x2\"],\"banks\":[4,8],\"floors\":[\"rest\",\"normal\"],\"unrolls\":[1,2],\"max_iis\":[32],\"kernels\":[\"fir\",\"gemm\"]}" );
    ( "request explore all kernels",
      "{\"id\":\"e2\",\"op\":\"explore\",\"fabrics\":[\"4x4\",\"6x6\"],\"islands\":[\"2x2\"],\"banks\":[4,8],\"floors\":[\"rest\",\"normal\"],\"unrolls\":[1,2],\"max_iis\":[32]}" );
    ( "request stream",
      "{\"id\":\"st\",\"op\":\"stream\",\"app\":\"gcn\",\"policy\":\"iced\",\"inputs\":12}" );
    ( "request fault",
      "{\"id\":\"f\",\"op\":\"fault\",\"app\":\"lu\",\"seeds\":2,\"faults\":1,\"inputs\":50,\"window\":10}" );
    ( "request stats",
      "{\"id\":\"\",\"op\":\"stats\"}" );
    ( "request health",
      "{\"id\":\"h\",\"op\":\"health\",\"tenant\":\"t\"}" );
    ( "request crash",
      "{\"id\":\"c\",\"op\":\"crash\"}" );
    ( "request crash kill",
      "{\"id\":\"k\",\"op\":\"crash\",\"kill\":true}" );
    ( "request shutdown",
      "{\"id\":\"z\",\"op\":\"shutdown\",\"qos\":\"standard\"}" );
    ( "response invalid: parse error",
      "{\"status\":\"invalid\",\"error\":\"parse error: unterminated string at byte 18\"}" );
    ( "response invalid: id not a string",
      "{\"id\":\"\",\"status\":\"invalid\",\"error\":\"id must be a string\"}" );
    ( "response invalid: not an object",
      "{\"id\":\"\",\"status\":\"invalid\",\"error\":\"missing field \\\"op\\\"\"}" );
    ( "response invalid: op missing",
      "{\"id\":\"o\",\"status\":\"invalid\",\"error\":\"missing field \\\"op\\\"\"}" );
    ( "response invalid: op not a string",
      "{\"id\":\"o\",\"status\":\"invalid\",\"error\":\"field \\\"op\\\" must be a string\"}" );
    ( "response invalid: op unknown",
      "{\"id\":\"o\",\"status\":\"invalid\",\"error\":\"unknown op \\\"fly\\\"\"}" );
    ( "response invalid: kernel missing",
      "{\"id\":\"m\",\"status\":\"invalid\",\"error\":\"missing field \\\"kernel\\\"\"}" );
    ( "response invalid: kernel not a string",
      "{\"id\":\"m\",\"status\":\"invalid\",\"error\":\"field \\\"kernel\\\" must be a string\"}" );
    ( "response invalid: point not a string",
      "{\"id\":\"m\",\"status\":\"invalid\",\"error\":\"field \\\"point\\\" must be a string\"}" );
    ( "response invalid: point bad",
      "{\"id\":\"m\",\"status\":\"invalid\",\"error\":\"bad design point \\\"bogus\\\"\"}" );
    ( "response invalid: backend not a string",
      "{\"id\":\"m\",\"status\":\"invalid\",\"error\":\"field \\\"backend\\\" must be a string\"}" );
    ( "response invalid: backend unknown",
      "{\"id\":\"m\",\"status\":\"invalid\",\"error\":\"field \\\"backend\\\": unknown mapper backend \\\"warp\\\" (expected default, sa, sa:<seed>, or pathfinder)\"}" );
    ( "response invalid: ms missing",
      "{\"id\":\"s\",\"status\":\"invalid\",\"error\":\"missing field \\\"ms\\\"\"}" );
    ( "response invalid: ms not an integer",
      "{\"id\":\"s\",\"status\":\"invalid\",\"error\":\"field \\\"ms\\\" must be an integer\"}" );
    ( "response invalid: ms fractional",
      "{\"id\":\"s\",\"status\":\"invalid\",\"error\":\"field \\\"ms\\\" must be an integer\"}" );
    ( "response invalid: ms negative",
      "{\"id\":\"s\",\"status\":\"invalid\",\"error\":\"field \\\"ms\\\" must be >= 0\"}" );
    ( "response invalid: fabrics not an array",
      "{\"id\":\"e\",\"status\":\"invalid\",\"error\":\"field \\\"fabrics\\\" must be an array\"}" );
    ( "response invalid: fabrics item",
      "{\"id\":\"e\",\"status\":\"invalid\",\"error\":\"field \\\"fabrics\\\": expected dimensions \\\"RxC\\\"\"}" );
    ( "response invalid: islands item",
      "{\"id\":\"e\",\"status\":\"invalid\",\"error\":\"field \\\"islands\\\": expected dimensions \\\"RxC\\\"\"}" );
    ( "response invalid: floors item",
      "{\"id\":\"e\",\"status\":\"invalid\",\"error\":\"field \\\"floors\\\": expected \\\"rest\\\", \\\"relax\\\", or \\\"normal\\\"\"}" );
    ( "response invalid: kernels item",
      "{\"id\":\"e\",\"status\":\"invalid\",\"error\":\"field \\\"kernels\\\": expected a string\"}" );
    ( "response invalid: banks not an array",
      "{\"id\":\"e\",\"status\":\"invalid\",\"error\":\"field \\\"banks\\\" must be an array\"}" );
    ( "response invalid: unrolls item",
      "{\"id\":\"e\",\"status\":\"invalid\",\"error\":\"field \\\"unrolls\\\": expected an integer\"}" );
    ( "response invalid: app missing",
      "{\"id\":\"st\",\"status\":\"invalid\",\"error\":\"missing field \\\"app\\\"\"}" );
    ( "response invalid: app not a string",
      "{\"id\":\"st\",\"status\":\"invalid\",\"error\":\"field \\\"app\\\" must be a string\"}" );
    ( "response invalid: app unknown",
      "{\"id\":\"st\",\"status\":\"invalid\",\"error\":\"field \\\"app\\\" must be \\\"gcn\\\" or \\\"lu\\\"\"}" );
    ( "response invalid: policy unknown",
      "{\"id\":\"st\",\"status\":\"invalid\",\"error\":\"field \\\"policy\\\" must be \\\"static\\\", \\\"iced\\\", or \\\"drips\\\"\"}" );
    ( "response invalid: stream inputs negative",
      "{\"id\":\"st\",\"status\":\"invalid\",\"error\":\"field \\\"inputs\\\" must be >= 0\"}" );
    ( "response invalid: fault app unknown",
      "{\"id\":\"f\",\"status\":\"invalid\",\"error\":\"field \\\"app\\\" must be \\\"gcn\\\" or \\\"lu\\\"\"}" );
    ( "response invalid: fault seeds 0",
      "{\"id\":\"f\",\"status\":\"invalid\",\"error\":\"field \\\"seeds\\\" must be > 0\"}" );
    ( "response invalid: fault faults negative",
      "{\"id\":\"f\",\"status\":\"invalid\",\"error\":\"field \\\"faults\\\" must be >= 0\"}" );
    ( "response invalid: fault inputs 0",
      "{\"id\":\"f\",\"status\":\"invalid\",\"error\":\"field \\\"inputs\\\" must be > 0\"}" );
    ( "response invalid: fault window 0",
      "{\"id\":\"f\",\"status\":\"invalid\",\"error\":\"field \\\"window\\\" must be > 0\"}" );
    ( "response invalid: kill not a boolean",
      "{\"id\":\"c\",\"status\":\"invalid\",\"error\":\"field \\\"kill\\\" must be a boolean\"}" );
    ( "response invalid: deadline negative",
      "{\"id\":\"d\",\"status\":\"invalid\",\"error\":\"field \\\"deadline_ms\\\" must be >= 0\"}" );
    ( "response invalid: deadline not an integer",
      "{\"id\":\"d\",\"status\":\"invalid\",\"error\":\"field \\\"deadline_ms\\\" must be an integer\"}" );
    ( "response invalid: tenant empty",
      "{\"id\":\"t\",\"status\":\"invalid\",\"error\":\"field \\\"tenant\\\" must be non-empty\"}" );
    ( "response invalid: tenant not a string",
      "{\"id\":\"t\",\"status\":\"invalid\",\"error\":\"field \\\"tenant\\\" must be a string\"}" );
    ( "response invalid: qos unknown",
      "{\"id\":\"q\",\"status\":\"invalid\",\"error\":\"field \\\"qos\\\" must be \\\"batch\\\", \\\"standard\\\", or \\\"premium\\\"\"}" );
    ( "response invalid: fault seeds past the bound",
      "{\"id\":\"f\",\"status\":\"invalid\",\"error\":\"field \\\"seeds\\\" must be <= 32\"}" );
    ( "response invalid: fault inputs 1",
      "{\"id\":\"f\",\"status\":\"invalid\",\"error\":\"field \\\"inputs\\\" must be >= 2\"}" );
    ( "response invalid: fault inputs past the bound",
      "{\"id\":\"f\",\"status\":\"invalid\",\"error\":\"field \\\"inputs\\\" must be <= 2000\"}" );
    ( "response invalid: point not canonical",
      "{\"id\":\"m\",\"status\":\"invalid\",\"error\":\"bad design point \\\"+6x0o6/i2x2/b0x8/rest/u1/ii6_4\\\"\"}" );
    ( "response invalid: fabrics not canonical",
      "{\"id\":\"e\",\"status\":\"invalid\",\"error\":\"field \\\"fabrics\\\": expected dimensions \\\"RxC\\\"\"}" );
    ( "response invalid: islands not canonical",
      "{\"id\":\"e\",\"status\":\"invalid\",\"error\":\"field \\\"islands\\\": expected dimensions \\\"RxC\\\"\"}" );
    ( "response invalid: backend seed not canonical",
      "{\"id\":\"m\",\"status\":\"invalid\",\"error\":\"field \\\"backend\\\": unknown mapper backend \\\"sa:07\\\" (expected default, sa, sa:<seed>, or pathfinder)\"}" );
    ( "response invalid: backend sa+dijkstra",
      "{\"id\":\"m\",\"status\":\"invalid\",\"error\":\"field \\\"backend\\\": unknown mapper backend \\\"sa+dijkstra:3\\\" (expected default, sa, sa:<seed>, or pathfinder)\"}" );
    ( "response invalid: fault faults past the bound",
      "{\"id\":\"f\",\"status\":\"invalid\",\"error\":\"field \\\"faults\\\" must be <= 10000\"}" );
    ( "response invalid: order: frame fields first",
      "{\"id\":\"x\",\"status\":\"invalid\",\"error\":\"field \\\"deadline_ms\\\" must be >= 0\"}" );
    ( "response invalid: order: tenant before qos",
      "{\"id\":\"x\",\"status\":\"invalid\",\"error\":\"field \\\"tenant\\\" must be non-empty\"}" );
    ( "response invalid: order: map",
      "{\"id\":\"x\",\"status\":\"invalid\",\"error\":\"missing field \\\"kernel\\\"\"}" );
    ( "response invalid: order: explore",
      "{\"id\":\"x\",\"status\":\"invalid\",\"error\":\"field \\\"max_iis\\\" must be an array\"}" );
    ( "response invalid: order: stream",
      "{\"id\":\"x\",\"status\":\"invalid\",\"error\":\"field \\\"policy\\\" must be \\\"static\\\", \\\"iced\\\", or \\\"drips\\\"\"}" );
    ( "response invalid: order: fault",
      "{\"id\":\"x\",\"status\":\"invalid\",\"error\":\"field \\\"seeds\\\" must be > 0\"}" );
    ( "response invalid: explore grid past the bound",
      "{\"id\":\"e\",\"status\":\"invalid\",\"error\":\"the grid has 1 x 16 x 9 x 1 x 2 x 4 (fabrics x islands x banks x floors x unrolls x max_iis) combinations, more than 1024\"}" );
    ( "response invalid: line too long",
      "{\"status\":\"invalid\",\"error\":\"parse error: line too long at byte 1048576\"}" );
    ( "response ping",
      "{\"id\":\"a\",\"status\":\"ok\",\"op\":\"ping\"}" );
    ( "response ping hostile id",
      "{\"id\":\"q\\\"\\\\\\n\\t\\u0001\",\"status\":\"ok\",\"op\":\"ping\"}" );
    ( "response sleep",
      "{\"id\":\"s\",\"status\":\"ok\",\"op\":\"sleep\",\"ms\":5}" );
    ( "response map mapped",
      "{\"id\":\"m\",\"status\":\"ok\",\"op\":\"map\",\"point\":\"6x6/i2x2/b8/relax/u2/ii64\",\"kernel\":\"fir\",\"ii\":4,\"util\":0.3611111111111111,\"dvfs\":0.33333333333333331,\"power_mw\":42,\"throughput_mips\":142857142.85714287,\"energy_nj\":2.4999999999999999e-07,\"edp\":1e+21}" );
    ( "response map failed",
      "{\"id\":\"q\\\"\\\\\\n\\t\\u0001\",\"status\":\"unmapped\",\"op\":\"map\",\"point\":\"6x6/i2x2/b8/relax/u2/ii64\",\"kernel\":\"q\\\"\\\\\\n\\t\\u0001\",\"msg\":\"q\\\"\\\\\\n\\t\\u0001\"}" );
    ( "response map timed out",
      "{\"id\":\"t\",\"status\":\"timeout\",\"op\":\"map\",\"point\":\"6x6/i2x2/b8/rest/u1/ii64\",\"kernel\":\"fir\"}" );
    ( "response explore",
      "{\"id\":\"e\",\"status\":\"ok\",\"op\":\"explore\",\"points\":2,\"pairs\":4,\"summaries\":[{\"point\":\"6x6/i2x2/b8/rest/u1/ii64\",\"mapped\":2,\"total\":2,\"geo_thpt_mips\":142857142.85714298,\"mean_energy_nj\":2.4999999999999999e-07,\"mean_edp\":1e+21,\"mean_power_mw\":21.050000000000001,\"pareto\":true},{\"point\":\"6x6/i2x2/b8/relax/u2/ii64\",\"mapped\":0,\"total\":2,\"geo_thpt_mips\":\"nan\",\"mean_energy_nj\":\"nan\",\"mean_edp\":\"nan\",\"mean_power_mw\":\"nan\",\"pareto\":false}]}" );
    ( "response stream",
      "{\"id\":\"st\",\"status\":\"ok\",\"op\":\"stream\",\"app\":\"gcn\",\"policy\":\"drips\",\"windows\":3,\"inputs\":12,\"throughput_per_s\":4000000,\"power_mw\":33.333333333333336,\"efficiency\":-0}" );
    ( "response fault",
      "{\"id\":\"f\",\"status\":\"ok\",\"op\":\"fault\",\"app\":\"lu\",\"cells\":4,\"policies\":[{\"recovery\":\"remap\",\"cells\":1,\"survival\":1,\"mean_retention\":0.95285891395983136,\"mean_mttr_us\":0},{\"recovery\":\"gate\",\"cells\":1,\"survival\":1,\"mean_retention\":0.95285891395983136,\"mean_mttr_us\":0},{\"recovery\":\"raise\",\"cells\":1,\"survival\":1,\"mean_retention\":1,\"mean_mttr_us\":0},{\"recovery\":\"fail-stop\",\"cells\":1,\"survival\":0,\"mean_retention\":0.12,\"mean_mttr_us\":0}]}" );
    ( "response shutdown",
      "{\"id\":\"z\",\"status\":\"ok\",\"op\":\"shutdown\"}" );
    ( "response timeout",
      "{\"id\":\"s\",\"status\":\"timeout\",\"op\":\"sleep\"}" );
    ( "response internal error",
      "{\"id\":\"c\",\"status\":\"internal_error\",\"op\":\"crash\",\"fingerprint\":\"0123456789abcdef\"}" );
    ( "response error",
      "{\"id\":\"q\\\"\\\\\\n\\t\\u0001\",\"status\":\"error\",\"error\":\"unknown kernel q\\\"\\\\\\n\\t\\u0001\"}" );
    ( "response overloaded",
      "{\"id\":\"o\",\"status\":\"overloaded\",\"queue_depth\":64}" );
    ( "response invalid malformed",
      "{\"status\":\"invalid\",\"error\":\"parse error: unterminated string at byte 7\"}" );
    ( "response invalid",
      "{\"id\":\"q\\\"\\\\\\n\\t\\u0001\",\"status\":\"invalid\",\"error\":\"unknown op \\\"nope\\\"\"}" );
    ( "wal record ok",
      "000000dd:2c8b4ed34647f3a3:{\"v\":2,\"h\":\"390c46699c889362\",\"k\":\"6x6|q\\\"\\\\\\n\\t\\u0001\",\"s\":\"ok\",\"kernel\":\"fir\",\"ii\":4,\"util\":0.3611111111111111,\"dvfs\":0.33333333333333331,\"power\":42,\"thpt\":142857142.85714287,\"energy\":2.4999999999999999e-07,\"edp\":1e+21}\n" );
    ( "wal record fail",
      "0000004e:8583c67a9d952cd4:{\"v\":2,\"h\":\"8e327b3e527bc202\",\"k\":\"k|fail\",\"s\":\"fail\",\"msg\":\"q\\\"\\\\\\n\\t\\u0001\"}\n" );
    ( "wal record timeout",
      "00000034:13b71359ce315309:{\"v\":2,\"h\":\"af63e64c8601fd8a\",\"k\":\"k\",\"s\":\"timeout\"}\n" );
    ( "wal fresh header",
      "{\"iced_explore_cache\":2}\n" );
  ]

let check prefix () =
  let mine = List.filter (fun (name, _) -> String.starts_with ~prefix name) cases in
  Alcotest.(check int) "every case pinned" (List.length mine)
    (List.length (List.filter (fun (name, _) -> String.starts_with ~prefix name) expected));
  List.iter
    (fun (name, render) ->
      match List.assoc_opt name expected with
      | Some want -> Alcotest.(check string) name want (render ())
      | None -> Alcotest.failf "no pinned bytes for %s" name)
    mine

let suite =
  [
    ("request frames byte-identical", `Quick, check "request ");
    ("responses byte-identical", `Quick, check "response ");
    ("wal frames and header byte-identical", `Quick, check "wal ");
  ]
