(* serve-hot and serve-mixed: `iced serve` under a closed loop.

   Callers of the daemon wait for each reply, so the load generator is
   a closed loop: [clients] requests in flight, the next sent when one
   completes.  Frames go in as raw lines through Server.submit_line to
   a pool of one worker domain, with the generator on the main domain
   (two domains on a two-core machine).  Every response is compared
   byte for byte, id aside, with the serial Server.handle oracle.

   serve-hot: 8 clients; 90% map over the 21 Table I kernels at the
   default point, with the cache warmed in set-up, and 10% ping.  Only
   cache reads: decode, queue, lookup and encode dominate and the mapper
   is idle, so a mapper change must show nothing here.

   serve-mixed: 2 clients over 126 keys (21 kernels x floor
   {rest,relax,normal} x islands {2x2,3x3}, unroll 1), each sent 4 times
   in seeded order on a fresh cache per pass: one miss and three hits
   per key.  Misses evaluate and store, and hits queue behind them, so
   a change that speeds one side at the other's cost shows on one of
   the two serve workloads.  Unroll 2 is left out: its slowest misses
   (0.2 s) left one pass per run.  With 4 or 8 clients the median fell
   on the steep knee between hits served at once and hits queued
   behind a miss, and moved by a sixth or more from run to run; with 2 it is a
   hit's latency and the queueing shows in the tail. *)

module Server = Iced_serve.Server
module Protocol = Iced_serve.Protocol
module Cache = Iced_explore.Cache
module Space = Iced_explore.Space
module Json = Iced_util.Json

(* Lines and responses are handled as an id-free remainder: a frame
   with id "" renders as {"id":"" followed by the rest, and a frame
   with id N as {"id":"N" followed by the same rest. *)
let blank_id = "{\"id\":\"\""

let rest_of line =
  let n = String.length blank_id in
  if String.length line >= n && String.sub line 0 n = blank_id then
    String.sub line n (String.length line - n)
  else invalid_arg ("unexpected frame layout: " ^ line)

let with_id i rest = "{\"id\":\"" ^ string_of_int i ^ "\"" ^ rest

(* The frame index in a response line, and the remainder after it. *)
let split_response line =
  let close = String.index_from line 7 '"' in
  (int_of_string (String.sub line 7 (close - 7)), String.sub line (close + 1) (String.length line - close - 1))

(* A request as its id-free remainder. *)
let key_of_request request =
  rest_of (Protocol.encode_request { Protocol.id = ""; request; deadline_ms = None; tenant = None; qos = None })

let map_key ?(point = Protocol.default_point) kernel =
  key_of_request (Protocol.Map { point; kernel; backend = Iced_mapper.Backend.default })

let no_stats ~id:_ = ""

(* Serial oracle: the response remainder Server.handle gives for a key. *)
let handle cache key =
  match Protocol.decode (blank_id ^ key) with
  | Ok frame -> rest_of (Server.handle ~cache ~stats:no_stats frame)
  | Error _ -> invalid_arg "bench frame does not decode"

(* (ii, power_mw) of a map response. *)
let quality_of rest =
  match Json.parse (blank_id ^ rest) with
  | Ok v -> (
    match
      ( Option.bind (Json.member "ii" v) Json.get_int,
        Option.bind (Json.member "power_mw" v) Json.get_number )
    with
    | Some ii, Some p -> Some (ii, p)
    | _ -> None)
  | Error _ -> None

(* One closed-loop run of [clients] against a fresh one-worker pool on
   [cache].
   [next i] is the key of frame i, or None to stop; the loop also stops
   at [deadline].  [on_response ~key rest] judges each response. *)
type loop = {
  keys_sent : Bytes.t;  (* key index per frame *)
  submitted_at : Float.Array.t;
  latency_s : Float.Array.t;
  slot_of : Bytes.t;  (* client slot per frame, for the trace tracks *)
  mutable frames : int;
  mutable wall_s : float;  (* net of speed sampling *)
  mutable shed : int;
}

let closed_loop ~clients ~capacity ~cache ~keys ~deadline ~next ~on_response =
  let l =
    { keys_sent = Bytes.create capacity; submitted_at = Float.Array.create capacity;
      latency_s = Float.Array.create capacity; slot_of = Bytes.create capacity;
      frames = 0; wall_s = 0.0; shed = 0 }
  in
  let mu = Mutex.create () and cond = Condition.create () in
  let free = ref (List.init clients Fun.id) and outstanding = ref 0 in
  let respond line ~latency_s:_ =
    let t = Tracer.now () in
    let i, rest = split_response line in
    Mutex.lock mu;
    Float.Array.set l.latency_s i (t -. Float.Array.get l.submitted_at i);
    on_response ~key:(Char.code (Bytes.get l.keys_sent i)) rest;
    free := Char.code (Bytes.get l.slot_of i) :: !free;
    decr outstanding;
    Condition.signal cond;
    Mutex.unlock mu
  in
  let server =
    Server.create ~respond
      { Server.workers = 1; queue_depth = 64; cache; restart_budget = 0;
        default_deadline_ms = None }
  in
  let drain () =
    Mutex.lock mu;
    while !outstanding > 0 do
      Condition.wait cond mu
    done;
    Mutex.unlock mu
  in
  let rec go i =
    match next i with
    | Some k when i < capacity && Tracer.now () < deadline ->
      (* the speed reference runs while nothing is in flight *)
      if Speed.due () then begin
        drain ();
        Speed.sample ()
      end;
      Mutex.lock mu;
      while !outstanding >= clients do
        Condition.wait cond mu
      done;
      incr outstanding;
      let slot = List.hd !free in
      free := List.tl !free;
      Mutex.unlock mu;
      Bytes.set l.keys_sent i (Char.chr k);
      Bytes.set l.slot_of i (Char.chr slot);
      Float.Array.set l.submitted_at i (Tracer.now ());
      (match Server.submit_line server (with_id i keys.(k)) with
      | `Rejected -> l.shed <- l.shed + 1
      | `Submitted | `Invalid | `Shutdown -> ());
      go (i + 1)
    | _ -> i
  in
  let (), wall_s, _ =
    Speed.net (fun () ->
        l.frames <- go 0;
        drain ())
  in
  l.wall_s <- wall_s;
  Server.shutdown server;
  l

let latencies l =
  List.init l.frames (fun i ->
      (Float.Array.get l.submitted_at i, Float.Array.get l.latency_s i *. 1e3))

(* Traced runs: each pool request as a span on its client's track,
   then the first [limit] frames replayed serially through decode and
   handle, each layer in its own span.  The serial time of a frame is
   what its pool latency would be without queueing, which gives the
   queue-wait share. *)
let replay ~limit ~cache ~keys ~is_hit l =
  for i = 0 to min limit l.frames - 1 do
    Tracer.complete ~tid:(1 + Char.code (Bytes.get l.slot_of i)) ~layer:"serve.request"
      ~ts:(Float.Array.get l.submitted_at i) ~dur:(Float.Array.get l.latency_s i)
  done;
  let waited = ref 0.0 and total = ref 0.0 in
  for i = 0 to min limit l.frames - 1 do
    let k = Char.code (Bytes.get l.keys_sent i) in
    let t0 = Tracer.now () in
    Tracer.span "bench" (fun () ->
        let line = with_id i keys.(k) in
        match Tracer.span "serve.decode" (fun () -> Protocol.decode line) with
        | Error _ -> ()
        | Ok frame ->
          let layer = if is_hit k then "serve.handle_hit" else "serve.handle_miss" in
          ignore (Tracer.span layer (fun () -> Server.handle ~cache ~stats:no_stats frame)));
    let serial = Tracer.now () -. t0 and lat = Float.Array.get l.latency_s i in
    waited := !waited +. Float.max 0.0 (lat -. serial);
    total := !total +. lat
  done;
  ("serve.queue_wait_pct", if !total > 0.0 then 100.0 *. !waited /. !total else 0.0)

(* Cache activity since [before] (hits, misses, coalesced), which the
   caller read when its traffic began. *)
let cache_counts cache = (Cache.hits cache, Cache.misses cache, Cache.coalesced cache)

let cache_layer cache ~before:(h0, m0, c0) ~shed =
  let hits, misses, coalesced = cache_counts cache in
  let hits = hits - h0 and misses = misses - m0 in
  [ ("cache.hit_ratio", float_of_int hits /. float_of_int (max 1 (hits + misses)));
    ("cache.misses", float_of_int misses);
    ("cache.coalesced", float_of_int (coalesced - c0));
    ("serve.shed", float_of_int shed) ]

let mean_quality fails pairs =
  let qs =
    List.filter_map
      (fun (name, rest) ->
        match quality_of rest with
        | Some q -> Some q
        | None ->
          Workload.fail fails (name ^ ": response carries no ii/power_mw");
          None)
      pairs
  in
  (List.fold_left (fun acc (ii, _) -> acc + ii) 0 qs, Workload.mean (List.map snd qs))

(* ------------------------------------------------------------------ *)

type hot = {
  hot_keys : string array;  (* the 21 maps, then ping *)
  hot_names : string array;
  hot_cache : Cache.t;  (* warmed: every map key stored *)
  expected : string array;  (* oracle response remainder per key *)
  hot_seed : int;
  hot_smoke : bool;
}

let hot_setup (c : Workload.config) =
  let kernels =
    if c.smoke then [ "fir"; "relu" ]
    else List.map (fun (k : Iced_kernels.Kernel.t) -> k.name) Iced_kernels.Registry.all
  in
  let keys = Array.of_list (List.map map_key kernels @ [ key_of_request Protocol.Ping ]) in
  let cache = Cache.in_memory () in
  {
    hot_keys = keys;
    hot_names = Array.of_list (kernels @ [ "ping" ]);
    hot_cache = cache;
    expected = Array.map (handle cache) keys;
    hot_seed = c.seed;
    hot_smoke = c.smoke;
  }

let hot_measure st ~seconds =
  let fails = Workload.failures () in
  let rng = Iced_util.Rng.create st.hot_seed in
  let maps = Array.length st.hot_keys - 1 in
  let next _ = Some (if Iced_util.Rng.int rng 10 = 0 then maps else Iced_util.Rng.int rng maps) in
  let on_response ~key rest =
    Workload.check fails (rest = st.expected.(key))
      (lazy (st.hot_names.(key) ^ ": response differs from the serial oracle"))
  in
  let before = cache_counts st.hot_cache in
  let limit = if st.hot_smoke then 500 else max_int in
  let capacity = min limit (int_of_float (seconds *. 60_000.0) + 1000) in
  let l =
    closed_loop ~clients:8 ~capacity ~cache:st.hot_cache ~keys:st.hot_keys
      ~deadline:(Tracer.now () +. seconds) ~next ~on_response
  in
  let cache = cache_layer st.hot_cache ~before ~shed:l.shed in
  let queue =
    if Tracer.enabled () then
      [ replay ~limit:20_000 ~cache:st.hot_cache ~keys:st.hot_keys ~is_hit:(fun _ -> true) l ]
    else []
  in
  let ii_sum, power_mw_mean =
    mean_quality fails
      (List.init maps (fun k -> (st.hot_names.(k), st.expected.(k))))
  in
  {
    Workload.ops = latencies l;
    wall_s = l.wall_s;
    failed = fails.n;
    failures = List.rev fails.msgs;
    ii_sum;
    power_mw_mean;
    layer = cache @ queue;
    counters = [];
  }

let hot = Workload.W
    { name = "serve-hot"; tail_pct = 95.0; domains = 2; setup = hot_setup; measure = hot_measure }

(* ------------------------------------------------------------------ *)

type mixed = {
  mixed_keys : string array;
  mixed_names : string array;
  mixed_seed : int;  (* orders each pass's frames *)
  oracle : string option array;
      (* serial Server.handle response remainder for every fourth key,
         computed on a fresh cache; a fixed quarter, so that set-up costs
         the same for every seed *)
}

let repeats = 4

let mixed_setup (c : Workload.config) =
  let kernels =
    if c.smoke then [ "fir"; "relu" ]
    else List.map (fun (k : Iced_kernels.Kernel.t) -> k.name) Iced_kernels.Registry.all
  in
  let points =
    List.concat_map
      (fun floor ->
        List.map
          (fun (island_rows, island_cols) ->
            { Protocol.default_point with Space.floor; island_rows; island_cols })
          [ (2, 2); (3, 3) ])
      (if c.smoke then [ Iced_arch.Dvfs.Rest ] else Iced_arch.Dvfs.[ Rest; Relax; Normal ])
  in
  let pairs = List.concat_map (fun k -> List.map (fun p -> (k, p)) points) kernels in
  let keys = Array.of_list (List.map (fun (k, point) -> map_key ~point k) pairs) in
  let cache = Cache.in_memory () in
  {
    mixed_keys = keys;
    mixed_names = Array.of_list (List.map (fun (k, p) -> k ^ " " ^ Space.to_string p) pairs);
    mixed_seed = c.seed;
    oracle = Array.mapi (fun i key -> if i mod 4 = 0 then Some (handle cache key) else None) keys;
  }

let mixed_measure st ~seconds =
  let fails = Workload.failures () in
  let n = Array.length st.mixed_keys in
  (* the first response seen for a key is what every later one must match *)
  let seen = Array.make n None in
  let on_response ~key rest =
    match seen.(key) with
    | None -> seen.(key) <- Some rest
    | Some first ->
      Workload.check fails (rest = first)
        (lazy (st.mixed_names.(key) ^ ": responses for one key differ"))
  in
  (* every pass sends each key [repeats] times in a fresh seeded order,
     so a run averages over many interleavings of misses and hits *)
  let rng = Iced_util.Rng.create st.mixed_seed in
  let frames = repeats * n in
  let run_pass () =
    let schedule =
      Array.of_list
        (Iced_util.Rng.shuffle rng (List.concat (List.init repeats (fun _ -> List.init n Fun.id))))
    in
    let cache = Cache.in_memory () in
    let l =
      closed_loop ~clients:2 ~capacity:frames ~cache ~keys:st.mixed_keys ~deadline:infinity
        ~next:(fun i -> if i < frames then Some schedule.(i) else None)
        ~on_response
    in
    (l, cache)
  in
  let ops = ref [] and wall_s = ref 0.0 and first = ref None in
  ignore
    (Workload.repeat ~seconds (fun i ->
         let l, cache = run_pass () in
         ops := latencies l :: !ops;
         wall_s := !wall_s +. l.wall_s;
         if i = 0 then first := Some (l, cache)));
  let l, cache = Option.get !first in
  let traced = Tracer.enabled () in
  let queue =
    if traced then begin
      (* serially, on a fresh cache: a key's first frame misses *)
      let fresh = Cache.in_memory () and sent = Array.make n false in
      let is_hit k = sent.(k) || (sent.(k) <- true; false) in
      [ replay ~limit:frames ~cache:fresh ~keys:st.mixed_keys ~is_hit l ]
    end
    else begin
      Array.iteri
        (fun k expected ->
          if expected <> None then
            Workload.check fails (seen.(k) = expected)
              (lazy (st.mixed_names.(k) ^ ": response differs from the serial oracle")))
        st.oracle;
      []
    end
  in
  let ii_sum, power_mw_mean =
    mean_quality fails
      (List.init n (fun k -> (st.mixed_names.(k), Option.value ~default:"" seen.(k))))
  in
  {
    Workload.ops = List.concat (List.rev !ops);
    wall_s = !wall_s;
    failed = fails.n;
    failures = List.rev fails.msgs;
    ii_sum;
    power_mw_mean;
    layer = cache_layer cache ~before:(0, 0, 0) ~shed:l.shed @ queue;
    counters = [];
  }

let mixed =
  Workload.W
    { name = "serve-mixed"; tail_pct = 99.0; domains = 2; setup = mixed_setup; measure = mixed_measure }
