(* Tests for the design-space exploration subsystem: space enumeration
   and sampling, the persistent evaluation cache, the domain pool, the
   Pareto extractor, and end-to-end sweep determinism. *)

open Iced_explore

let tiny_spec =
  {
    Space.fabrics = [ (4, 4) ];
    islands = [ (1, 1); (2, 2); (4, 4); (3, 3) ];  (* 3x3 does not tile 4x4 *)
    spm_banks = [ 8 ];
    floors = [ Iced_arch.Dvfs.Rest ];
    unrolls = [ 1 ];
    max_iis = [ 32 ];
  }

let tiny_kernels =
  List.filter_map Iced_kernels.Registry.by_name [ "fir"; "relu" ]

(* ---------------- Space ---------------- *)

let test_space_enumerate_valid () =
  let points = Space.enumerate Space.default_spec in
  Alcotest.(check bool) "non-empty" true (points <> []);
  List.iter
    (fun p ->
      Alcotest.(check bool) (Space.to_string p ^ " valid") true (Space.is_valid p);
      Alcotest.(check int) "rows tiled" 0 (p.Space.rows mod p.Space.island_rows);
      Alcotest.(check int) "cols tiled" 0 (p.Space.cols mod p.Space.island_cols))
    points

let test_space_filters_non_tiling () =
  let points = Space.enumerate tiny_spec in
  (* 3x3 islands cannot tile a 4x4 fabric *)
  Alcotest.(check int) "three island shapes survive" 3 (List.length points);
  Alcotest.(check bool) "no 3x3 point" true
    (List.for_all (fun p -> p.Space.island_rows <> 3) points)

let test_space_roundtrip () =
  List.iter
    (fun p ->
      match Space.of_string (Space.to_string p) with
      | Some p' -> Alcotest.(check bool) "roundtrip" true (p = p')
      | None -> Alcotest.fail ("of_string failed on " ^ Space.to_string p))
    (Space.enumerate Space.default_spec);
  Alcotest.(check bool) "garbage rejected" true (Space.of_string "6x6/bogus" = None)

let test_space_sample_deterministic () =
  let spec = { Space.default_spec with Space.unrolls = [ 1; 2 ] } in
  let a = Space.sample spec ~seed:7 ~count:5 in
  let b = Space.sample spec ~seed:7 ~count:5 in
  Alcotest.(check int) "count honoured" 5 (List.length a);
  Alcotest.(check bool) "same seed, same sample" true (a = b);
  let all = Space.enumerate spec in
  Alcotest.(check bool) "sample is a sublist of the enumeration" true
    (List.for_all (fun p -> List.mem p all) a);
  (* canonical order is preserved: indices are increasing *)
  let indices =
    List.map
      (fun p ->
        let rec index i = function
          | [] -> -1
          | q :: _ when q = p -> i
          | _ :: rest -> index (i + 1) rest
        in
        index 0 all)
      a
  in
  Alcotest.(check bool) "canonical order" true (List.sort compare indices = indices);
  Alcotest.(check bool) "small space returned whole" true
    (Space.sample tiny_spec ~seed:1 ~count:100 = Space.enumerate tiny_spec)

(* ---------------- Pool ---------------- *)

let test_pool_matches_serial () =
  let items = Array.init 50 (fun i -> i) in
  let f x = x * x in
  let serial = Pool.map ~workers:1 f items in
  let parallel = Pool.map ~workers:4 f items in
  Alcotest.(check bool) "same results in same slots" true (serial = parallel)

let test_pool_on_item_counts () =
  let seen = ref 0 in
  let _ = Pool.map ~workers:3 ~on_item:(fun _ -> incr seen) (fun x -> x) (Array.make 17 0) in
  Alcotest.(check int) "every item notified once" 17 !seen

(* ---------------- Pareto ---------------- *)

let test_pareto_hand_built () =
  (* maximize both coordinates; frontier is c, d, e (b is dominated by
     c, a by everything) *)
  let points =
    [ ("a", [ 1.0; 1.0 ]); ("b", [ 2.0; 2.0 ]); ("c", [ 3.0; 2.0 ]);
      ("d", [ 2.0; 3.0 ]); ("e", [ 4.0; 1.0 ]) ]
  in
  let frontier = Pareto.frontier ~objectives:snd points in
  Alcotest.(check (list string)) "frontier members" [ "c"; "d"; "e" ]
    (List.map fst frontier)

let test_pareto_duplicates_survive () =
  let points = [ ("a", [ 1.0; 2.0 ]); ("b", [ 1.0; 2.0 ]) ] in
  Alcotest.(check int) "equal vectors both survive" 2
    (List.length (Pareto.frontier ~objectives:snd points))

let test_pareto_nan_excluded () =
  let points = [ ("a", [ nan; 9.0 ]); ("b", [ 1.0; 1.0 ]) ] in
  Alcotest.(check (list string)) "nan never joins nor dominates" [ "b" ]
    (List.map fst (Pareto.frontier ~objectives:snd points))

(* ---------------- Cache ---------------- *)

let with_temp_cache f =
  let path = Filename.temp_file "iced_explore" ".jsonl" in
  let finally () =
    Sys.remove path;
    let bak = path ^ ".bak" in
    if Sys.file_exists bak then Sys.remove bak
  in
  Fun.protect ~finally (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_cache_roundtrip () =
  with_temp_cache (fun path ->
      let m =
        {
          Outcome.kernel = "fir"; ii = 4; utilization = 0.75; dvfs = 0.5;
          power_mw = 66.25; throughput_mips = 108.5; energy_nj = 0.61; edp = 0.0056;
        }
      in
      let c = Cache.open_file path in
      Cache.store c ~key:"k1" (Outcome.Mapped m);
      Cache.store c ~key:"k2" (Outcome.Failed "no mapping up to II=8 (last: \"x\")");
      Cache.store c ~key:"k3" Outcome.Timed_out;
      Cache.close c;
      let c = Cache.open_file path in
      (match Cache.find c "k1" with
      | Some (Outcome.Mapped m') -> Alcotest.(check bool) "measurement survives" true (m = m')
      | _ -> Alcotest.fail "k1 missing after reload");
      (match Cache.find c "k2" with
      | Some (Outcome.Failed msg) ->
        Alcotest.(check string) "message survives escaping" "no mapping up to II=8 (last: \"x\")" msg
      | _ -> Alcotest.fail "k2 missing after reload");
      Alcotest.(check bool) "timeouts are never persisted" true (Cache.find c "k3" = None);
      Alcotest.(check int) "hits" 2 (Cache.hits c);
      Alcotest.(check int) "misses" 1 (Cache.misses c);
      Cache.close c)

let test_cache_skips_corrupt_lines () =
  with_temp_cache (fun path ->
      let c = Cache.open_file path in
      Cache.store c ~key:"good" (Outcome.Failed "nope");
      Cache.close c;
      let intact = read_file path in
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"v\":1,\"k\":\"trunc";
      close_out oc;
      let c = Cache.open_file path in
      Alcotest.(check bool) "good record survives" true (Cache.find c "good" <> None);
      Alcotest.(check int) "corrupt tail dropped" 1 (Cache.size c);
      (match Cache.recovery c with
      | Some r ->
        Alcotest.(check int) "kept one record" 1 r.Cache.kept_records;
        Alcotest.(check bool) "truncated, not set aside" false r.Cache.renamed_bak
      | None -> Alcotest.fail "recovery not reported");
      Cache.close c;
      Alcotest.(check string) "file truncated back to the intact prefix" intact
        (read_file path))

let test_cache_version_mismatch_resets () =
  with_temp_cache (fun path ->
      let foreign = "{\"iced_explore_cache\":999}\n{\"v\":999,\"k\":\"old\",\"s\":\"timeout\"}\n" in
      write_file path foreign;
      let c = Cache.open_file path in
      Alcotest.(check int) "foreign store ignored" 0 (Cache.size c);
      Alcotest.(check bool) "old key gone" true (Cache.find c "old" = None);
      (match Cache.recovery c with
      | Some r -> Alcotest.(check bool) "set aside as .bak" true r.Cache.renamed_bak
      | None -> Alcotest.fail "recovery not reported");
      Cache.close c;
      Alcotest.(check string) "old store preserved byte-for-byte" foreign
        (read_file (path ^ ".bak")))

(* The crash-safety contract: a cache image cut at ANY byte offset
   reopens to exactly the records whose frames lie fully before the
   cut, and the file is repaired to that byte-identical prefix. *)
let test_cache_truncation_at_every_byte () =
  with_temp_cache (fun path ->
      let c = Cache.open_file path in
      Cache.store c ~key:"k1" (Outcome.Failed "one");
      Cache.store c ~key:"k2" Outcome.(
        Mapped
          {
            kernel = "fir"; ii = 3; utilization = 0.5; dvfs = 0.7; power_mw = 12.5;
            throughput_mips = 96.0; energy_nj = 0.13; edp = 0.0014;
          });
      Cache.store c ~key:"k3" (Outcome.Failed "three");
      Cache.close c;
      let image = read_file path in
      let total = String.length image in
      let entries = Cache.wal_entries image in
      Alcotest.(check int) "three frames on disk" 3 (List.length entries);
      let header_len = fst (List.hd entries) - 26 in
      let frame_ends = List.map (fun (off, len) -> off + len + 1) entries in
      for cut = 0 to total do
        let label fmt = Printf.ksprintf (fun s -> Printf.sprintf "cut@%d: %s" cut s) fmt in
        write_file path (String.sub image 0 cut);
        let c = Cache.open_file path in
        if cut = 0 then begin
          Alcotest.(check int) (label "empty file starts fresh") 0 (Cache.size c);
          Alcotest.(check bool) (label "no recovery") true (Cache.recovery c = None)
        end
        else if cut < header_len then begin
          (* an unrecognizable header prefix: set aside, start fresh *)
          Alcotest.(check int) (label "torn header keeps nothing") 0 (Cache.size c);
          (match Cache.recovery c with
          | Some r -> Alcotest.(check bool) (label ".bak") true r.Cache.renamed_bak
          | None -> Alcotest.fail (label "recovery not reported"));
          Sys.remove (path ^ ".bak")
        end
        else begin
          let kept = List.length (List.filter (fun e -> e <= cut) frame_ends) in
          let boundary =
            List.fold_left (fun acc e -> if e <= cut then e else acc) header_len frame_ends
          in
          Alcotest.(check int) (label "records before the cut survive") kept (Cache.size c);
          (if cut > boundary then
             match Cache.recovery c with
             | Some r ->
               Alcotest.(check int) (label "kept_records") kept r.Cache.kept_records;
               Alcotest.(check int) (label "dropped_bytes") (cut - boundary)
                 r.Cache.dropped_bytes
             | None -> Alcotest.fail (label "recovery not reported")
           else
             Alcotest.(check bool) (label "clean prefix needs no recovery") true
               (Cache.recovery c = None));
          Cache.close c;
          Alcotest.(check string)
            (label "repaired to the byte-identical prefix")
            (String.sub image 0 boundary)
            (read_file path);
          (* reopening the repaired file is quiet *)
          let c = Cache.open_file path in
          Alcotest.(check bool) (label "second open is clean") true
            (Cache.recovery c = None);
          Alcotest.(check int) (label "records stable on reopen") kept (Cache.size c)
        end;
        Cache.close c
      done)

let test_cache_flip_any_byte_keeps_prefix () =
  with_temp_cache (fun path ->
      let c = Cache.open_file path in
      Cache.store c ~key:"k1" (Outcome.Failed "one");
      Cache.store c ~key:"k2" (Outcome.Failed "two");
      Cache.store c ~key:"k3" (Outcome.Failed "three");
      Cache.close c;
      let image = read_file path in
      let entries = Cache.wal_entries image in
      let header_len = fst (List.hd entries) - 26 in
      let frame_start (off, _) = off - 26 in
      for pos = 0 to String.length image - 1 do
        let label s = Printf.sprintf "flip@%d: %s" pos s in
        let damaged = Bytes.of_string image in
        Bytes.set damaged pos (Char.chr (Char.code image.[pos] lxor 0x01));
        write_file path (Bytes.to_string damaged);
        let c = Cache.open_file path in
        if pos < header_len then begin
          Alcotest.(check int) (label "damaged header keeps nothing") 0 (Cache.size c);
          Sys.remove (path ^ ".bak")
        end
        else begin
          (* every frame strictly before the damaged one survives *)
          let kept =
            List.length (List.filter (fun e -> frame_start e + 26 + snd e + 1 <= pos) entries)
          in
          Alcotest.(check int) (label "frames before the flip survive") kept (Cache.size c)
        end;
        Cache.close c
      done)

let test_cache_garbage_prepended_sets_aside () =
  with_temp_cache (fun path ->
      let c = Cache.open_file path in
      Cache.store c ~key:"k" (Outcome.Failed "x");
      Cache.close c;
      let original = read_file path in
      write_file path ("GARBAGE" ^ original);
      let c = Cache.open_file path in
      Alcotest.(check int) "nothing trusted" 0 (Cache.size c);
      Cache.store c ~key:"post" (Outcome.Failed "y");
      Cache.close c;
      Alcotest.(check string) "damaged image preserved as .bak" ("GARBAGE" ^ original)
        (read_file (path ^ ".bak"));
      let c = Cache.open_file path in
      Alcotest.(check int) "fresh store works after set-aside" 1 (Cache.size c);
      Alcotest.(check bool) "new record present" true (Cache.find c "post" <> None);
      Cache.close c)

let test_cache_fsync_roundtrip () =
  with_temp_cache (fun path ->
      let c = Cache.open_file ~fsync:true path in
      Cache.store c ~key:"durable" (Outcome.Failed "synced");
      Cache.close c;
      let c = Cache.open_file ~fsync:true path in
      Alcotest.(check bool) "fsynced record survives" true (Cache.find c "durable" <> None);
      Cache.close c)

let test_cache_wal_frame_consistency () =
  with_temp_cache (fun path ->
      let c = Cache.open_file path in
      Cache.store c ~key:"k1" (Outcome.Failed "one");
      Cache.close c;
      let image = read_file path in
      (* what store appended is exactly what frame_record renders *)
      let expected = Cache.frame_record ~key:"k1" (Outcome.Failed "one") in
      let tail = String.sub image (String.length image - String.length expected)
          (String.length expected) in
      Alcotest.(check string) "frame bytes" expected tail;
      match Cache.wal_entries image with
      | [ (off, len) ] ->
        Alcotest.(check bool) "payload parses back" true
          (String.length (String.sub image off len) = len)
      | entries -> Alcotest.failf "expected 1 frame, scanned %d" (List.length entries))

let test_cache_content_hash_stable () =
  Alcotest.(check string) "FNV-1a of empty" "cbf29ce484222325" (Cache.content_hash "");
  Alcotest.(check bool) "distinct keys, distinct hashes" true
    (Cache.content_hash "a" <> Cache.content_hash "b")

(* ---------------- Sweep ---------------- *)

let points3 () =
  Space.enumerate tiny_spec

let test_sweep_cache_hit_semantics () =
  with_temp_cache (fun path ->
      let c = Cache.open_file path in
      let _, stats1 = Sweep.run ~cache:c (points3 ()) tiny_kernels in
      Alcotest.(check int) "first run maps everything" stats1.Sweep.pairs stats1.Sweep.fresh;
      Cache.close c;
      let c = Cache.open_file path in
      let outcomes1, _ = Sweep.run ~cache:c (points3 ()) tiny_kernels in
      Cache.close c;
      let c = Cache.open_file path in
      let outcomes2, stats2 = Sweep.run ~cache:c (points3 ()) tiny_kernels in
      Alcotest.(check int) "second sweep does zero fresh mappings" 0 stats2.Sweep.fresh;
      Alcotest.(check int) "everything served from cache" stats2.Sweep.pairs
        stats2.Sweep.cached;
      Alcotest.(check string) "cached report identical"
        (Report.render outcomes1) (Report.render outcomes2);
      Cache.close c)

let test_sweep_parallel_matches_serial () =
  let run workers =
    let config = { Sweep.default_config with Sweep.workers } in
    let outcomes, _ =
      Sweep.run ~config ~cache:(Cache.in_memory ()) (points3 ()) tiny_kernels
    in
    outcomes
  in
  let serial = run 1 and parallel = run 2 in
  Alcotest.(check bool) "identical outcomes" true (serial = parallel);
  Alcotest.(check string) "byte-identical report"
    (Report.render serial) (Report.render parallel);
  Alcotest.(check string) "byte-identical CSV" (Report.csv serial) (Report.csv parallel)

let test_sweep_smoke_results () =
  let outcomes, stats =
    Sweep.run ~cache:(Cache.in_memory ()) (points3 ()) tiny_kernels
  in
  Alcotest.(check int) "3 points x 2 kernels" 6 stats.Sweep.pairs;
  List.iter
    (fun (r : Outcome.point_result) ->
      List.iter
        (fun (kernel, status) ->
          match status with
          | Outcome.Mapped m ->
            Alcotest.(check bool) (kernel ^ " positive energy") true (m.Outcome.energy_nj > 0.0);
            Alcotest.(check bool) (kernel ^ " positive throughput") true
              (m.Outcome.throughput_mips > 0.0)
          | Outcome.Failed msg -> Alcotest.fail (kernel ^ " failed: " ^ msg)
          | Outcome.Timed_out -> Alcotest.fail (kernel ^ " timed out"))
        r.Outcome.per_kernel)
    outcomes;
  let frontier = Report.frontier_summaries outcomes in
  Alcotest.(check bool) "frontier non-empty" true (frontier <> [])

let test_sweep_mapper_stats () =
  let sink = Iced_mapper.Mapper.create_stats () in
  let _, stats =
    Sweep.run ~mapper_stats:sink ~cache:(Cache.in_memory ()) (points3 ()) tiny_kernels
  in
  Alcotest.(check bool) "fresh mappings happened" true (stats.Sweep.fresh > 0);
  Alcotest.(check bool) "attempts accumulated" true
    (sink.Iced_mapper.Telemetry.attempts >= stats.Sweep.fresh);
  Alcotest.(check bool) "routes accumulated" true (sink.Iced_mapper.Telemetry.route_calls > 0);
  (* a fully-cached sweep runs the mapper zero times *)
  let cache = Cache.in_memory () in
  let _ = Sweep.run ~cache (points3 ()) tiny_kernels in
  let sink2 = Iced_mapper.Mapper.create_stats () in
  let _, stats2 = Sweep.run ~mapper_stats:sink2 ~cache (points3 ()) tiny_kernels in
  Alcotest.(check int) "all cached" 0 stats2.Sweep.fresh;
  Alcotest.(check int) "no mapper work recorded" 0 sink2.Iced_mapper.Telemetry.attempts

let test_sweep_timeout_skips () =
  let config = { Sweep.default_config with Sweep.timeout_s = -1.0 } in
  let outcomes, stats =
    Sweep.run ~config
      ~cache:(Cache.in_memory ())
      [ List.hd (points3 ()) ]
      (List.filteri (fun i _ -> i < 1) tiny_kernels)
  in
  Alcotest.(check int) "the pair timed out" 1 stats.Sweep.timed_out;
  match outcomes with
  | [ { Outcome.per_kernel = [ (_, Outcome.Timed_out) ]; _ } ] -> ()
  | _ -> Alcotest.fail "expected a single timed-out pair"

let test_evaluate_below_mii_fails () =
  (* an II cap below the kernel's MII fails in the mapper; a hook that
     never fires leaves that failure [Failed], with the mapper's message *)
  let k = List.hd tiny_kernels in
  let _, _, rec_mii = Iced_kernels.Kernel.stats k.Iced_kernels.Kernel.dfg in
  let p = { (List.hd (points3 ())) with Space.max_ii = rec_mii - 1 } in
  let mapper_msg =
    match
      Iced.Design.evaluate ~cgra:(Space.cgra p) ~label_floor:p.Space.floor
        ~max_ii:p.Space.max_ii Iced.Design.Iced k
    with
    | Error msg -> msg
    | Ok _ -> Alcotest.fail "mapped below its MII"
  in
  match Outcome.evaluate_kernel ~cancel:(fun () -> false) p k with
  | Outcome.Failed msg -> Alcotest.(check string) "the mapper's message" mapper_msg msg
  | Outcome.Timed_out -> Alcotest.fail "a hook that never fired timed out"
  | Outcome.Mapped _ -> Alcotest.fail "mapped below its MII"

let suite =
  [
    ("space: enumeration is valid", `Quick, test_space_enumerate_valid);
    ("space: non-tiling islands filtered", `Quick, test_space_filters_non_tiling);
    ("space: to_string/of_string roundtrip", `Quick, test_space_roundtrip);
    ("space: sampling deterministic", `Quick, test_space_sample_deterministic);
    ("pool: parallel matches serial", `Quick, test_pool_matches_serial);
    ("pool: on_item fires per item", `Quick, test_pool_on_item_counts);
    ("pareto: hand-built frontier", `Quick, test_pareto_hand_built);
    ("pareto: duplicates survive", `Quick, test_pareto_duplicates_survive);
    ("pareto: nan excluded", `Quick, test_pareto_nan_excluded);
    ("cache: file roundtrip", `Quick, test_cache_roundtrip);
    ("cache: corrupt lines skipped", `Quick, test_cache_skips_corrupt_lines);
    ("cache: version mismatch resets", `Quick, test_cache_version_mismatch_resets);
    ("cache: content hash stable", `Quick, test_cache_content_hash_stable);
    ("cache: truncation at every byte recovers prefix", `Slow, test_cache_truncation_at_every_byte);
    ("cache: any flipped byte keeps intact prefix", `Slow, test_cache_flip_any_byte_keeps_prefix);
    ("cache: prepended garbage set aside as .bak", `Quick, test_cache_garbage_prepended_sets_aside);
    ("cache: fsync roundtrip", `Quick, test_cache_fsync_roundtrip);
    ("cache: wal frames match frame_record", `Quick, test_cache_wal_frame_consistency);
    ("sweep: second run is all cache hits", `Slow, test_sweep_cache_hit_semantics);
    ("sweep: 2 workers = serial, byte-identical", `Slow, test_sweep_parallel_matches_serial);
    ("sweep: smoke over a tiny space", `Quick, test_sweep_smoke_results);
    ("sweep: per-point timeout skips", `Quick, test_sweep_timeout_skips);
    ("evaluate: below the MII fails, not times out", `Quick, test_evaluate_below_mii_fails);
    ("sweep: mapper telemetry accumulates", `Quick, test_sweep_mapper_stats);
  ]
