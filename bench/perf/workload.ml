(* What every workload hands back to the runner, and the pass loop most
   of them share. *)

type config = {
  seed : int;
  smoke : bool;  (* shrink the inputs to a sub-second sanity run *)
  golden : string;  (* path of test/golden/certified_ii.txt *)
}

type measurement = {
  ops : (float * float) list;  (* every timed op: start (s), latency (ms) *)
  wall_s : float;  (* wall time of the timed phase, net of speed sampling *)
  failed : int;  (* ops that errored or failed a correctness check *)
  failures : string list;  (* what went wrong, first occurrences *)
  ii_sum : int;  (* sum of II over every distinct mapping produced *)
  power_mw_mean : float;  (* mean modelled power of those mappings *)
  layer : (string * float) list;
      (* per-layer metrics measured from outside (counters, ratios) *)
  counters : (string * float) list;
      (* deterministic work counts for one pass: same seed, same counts *)
}

type t =
  | W : {
      name : string;
      tail_pct : float;  (* the percentile reported as op_ms_tail *)
      domains : int;
          (* domains it runs on; on one, the speed reference is sampled on a timer *)
      setup : config -> 's;
      measure : 's -> seconds:float -> measurement;
    }
      -> t

(* Failure bookkeeping: count everything, keep the first few messages. *)
type failures = { mutable n : int; mutable msgs : string list }

let failures () = { n = 0; msgs = [] }

let fail f msg =
  f.n <- f.n + 1;
  if List.length f.msgs < 8 then f.msgs <- msg :: f.msgs

let check f ok msg = if not ok then fail f (Lazy.force msg)

(* Run [pass i] (i = 0, 1, ...) back to back until another pass would
   overrun [seconds]; at least one pass always runs.  Returns the
   elapsed seconds.  Whole passes keep the set of ops identical from
   run to run, so medians and tails compare like with like. *)
let repeat ~seconds pass =
  let t0 = Tracer.now () in
  let rec go i =
    pass i;
    let elapsed = Tracer.now () -. t0 in
    if elapsed +. (elapsed /. float_of_int (i + 1)) <= seconds then go (i + 1) else elapsed
  in
  go 0

(* What a pass calls to time one op. *)
type op = { time : 'a. (unit -> 'a) -> 'a }

(* [repeat], timing each op a pass hands to [op.time], in
   milliseconds.  Times are net of speed sampling. *)
let passes ~seconds pass =
  let samples = ref [] in
  let op =
    { time =
        (fun f ->
          let t0 = Tracer.now () in
          let r, dt, _ = Speed.net f in
          samples := (t0, dt *. 1e3) :: !samples;
          r) }
  in
  let (), wall_s, _ = Speed.net (fun () -> ignore (repeat ~seconds (fun i -> pass i op))) in
  (List.rev !samples, wall_s)

(* Summed in sorted order, so the result does not depend on the
   seeded op order. *)
let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 (List.sort Float.compare xs) /. float_of_int (List.length xs)

(* Mapper telemetry as per-layer metrics; [alloc_bytes] is what the
   mapper calls allocated on the minor heap. *)
let mapper_layer (s : Iced_mapper.Mapper.stats) ~alloc_bytes =
  let f = float_of_int in
  let ratio a b = if b = 0 then 0.0 else f a /. f b in
  [ ("mapper.attempts", f s.attempts);
    ("mapper.ii_bumps", f s.ii_bumps);
    ("mapper.placements", f s.placements_tried);
    ("mapper.route_calls", f s.route_calls);
    ("mapper.expansions", f s.expansions);
    ("mapper.alloc_mb", alloc_bytes /. 1048576.0);
    ("mapper.sa_temp_steps", f s.sa_temp_steps);
    ("mapper.pf_rounds", f s.pf_rounds);
    ("mapper.pf_overflow", f s.pf_overflow);
    ("mapper.route_fail_ratio", ratio s.route_failures s.route_calls);
    ("mapper.sa_accept_ratio",
      ratio s.sa_moves_accepted (s.sa_moves_accepted + s.sa_moves_rejected)) ]

(* Work counts of one pass that repeat exactly for a seed: the nonzero
   mapper and solver counters plus what the timed calls allocated. *)
let counters (s : Iced_mapper.Mapper.stats) ~alloc_bytes =
  let f = float_of_int in
  List.filter
    (fun (_, v) -> v <> 0.0)
    [ ("mapper.attempts", f s.attempts);
      ("mapper.placements", f s.placements_tried);
      ("mapper.route_calls", f s.route_calls);
      ("mapper.expansions", f s.expansions);
      ("mapper.sa_temp_steps", f s.sa_temp_steps);
      ("mapper.pf_rounds", f s.pf_rounds);
      ("exact.conflicts", f s.sat_conflicts);
      ("exact.decisions", f s.sat_decisions);
      ("exact.propagations", f s.sat_propagations);
      ("alloc_mb", alloc_bytes /. 1048576.0) ]

(* Minor-heap allocation of [f ()], added to [total]. *)
let counting_alloc total f =
  let r, _, bytes = Speed.net f in
  total := !total +. bytes;
  r

let seeded_order ~seed xs = Iced_util.Rng.shuffle (Iced_util.Rng.create seed) xs

(* Passes over ops that each yield a mapping's (II, power).  An op's
   first result goes into [reference], which outlives one measurement,
   and every later evaluation of it -- the next pass, or the traced
   run's layer-by-layer path -- must reproduce it exactly.  The
   references give ii_sum and power_mw_mean; mapper telemetry and
   allocation of the first pass give the layer metrics and counters. *)
let mapping_passes ~seconds ~reference ~name ~eval ops =
  let fails = failures () in
  let stats = Iced_mapper.Mapper.create_stats () and alloc = ref 0.0 in
  let first_pass = ref ([], []) in
  let ops, wall_s =
    passes ~seconds (fun i op ->
        List.iter
          (fun o ->
            let name = name o in
            match
              ( op.time (fun () -> Tracer.span ~name "bench" (fun () -> eval ~stats ~alloc o)),
                Hashtbl.find_opt reference name )
            with
            | Error msg, _ -> fail fails (name ^ ": " ^ msg)
            | Ok r, None -> Hashtbl.replace reference name r
            | Ok r, Some expected ->
              check fails (r = expected)
                (lazy (name ^ ": (II, power) differs from its first evaluation")))
          ops;
        if i = 0 then
          first_pass := (mapper_layer stats ~alloc_bytes:!alloc, counters stats ~alloc_bytes:!alloc))
  in
  let results = Hashtbl.fold (fun _ r acc -> r :: acc) reference [] in
  {
    ops;
    wall_s;
    failed = fails.n;
    failures = List.rev fails.msgs;
    ii_sum = List.fold_left (fun acc (ii, _) -> acc + ii) 0 results;
    power_mw_mean = mean (List.map snd results);
    layer = fst !first_pass;
    counters = snd !first_pass;
  }
