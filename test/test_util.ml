(* Unit and property tests for Iced_util: Rng, Stats, Heap, Table, Fnv,
   Json. *)

open Iced_util

let check_float = Alcotest.(check (float 1e-9))

(* ---------------- Rng ---------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  let seq r = List.init 32 (fun _ -> Rng.int r 1000) in
  Alcotest.(check (list int)) "same seed, same stream" (seq a) (seq b)

let test_rng_distinct_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let seq r = List.init 16 (fun _ -> Rng.int r 1_000_000) in
  Alcotest.(check bool) "different seeds diverge" true (seq a <> seq b)

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "Rng.int out of range: %d" v
  done

let test_rng_int_in () =
  let r = Rng.create 9 in
  for _ = 1 to 1000 do
    let v = Rng.int_in r (-5) 5 in
    if v < -5 || v > 5 then Alcotest.failf "Rng.int_in out of range: %d" v
  done

let test_rng_float_bounds () =
  let r = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "Rng.float out of range: %f" v
  done

let test_rng_split_independent () =
  let parent = Rng.create 5 in
  let child = Rng.split parent in
  let a = List.init 8 (fun _ -> Rng.int parent 100) in
  let b = List.init 8 (fun _ -> Rng.int child 100) in
  Alcotest.(check bool) "split streams differ" true (a <> b)

let test_rng_invalid () =
  let r = Rng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0));
  Alcotest.check_raises "empty choose" (Invalid_argument "Rng.choose: empty list") (fun () ->
      ignore (Rng.choose r []))

let prop_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (small_list int))
    (fun (seed, items) ->
      let r = Rng.create seed in
      let shuffled = Rng.shuffle r items in
      List.sort compare shuffled = List.sort compare items)

(* ---------------- Stats ---------------- *)

let test_stats_mean () = check_float "mean" 2.5 (Stats.mean [ 1.0; 2.0; 3.0; 4.0 ])

let test_stats_mean_empty () =
  Alcotest.(check bool) "mean [] = nan" true (Float.is_nan (Stats.mean []))

let test_stats_geomean () = check_float "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ])

let test_stats_geomean_invalid () =
  Alcotest.check_raises "non-positive sample"
    (Invalid_argument "Stats.geomean: non-positive sample") (fun () ->
      ignore (Stats.geomean [ 1.0; 0.0 ]))

let test_stats_stddev () =
  check_float "stddev of constant" 0.0 (Stats.stddev [ 3.0; 3.0; 3.0 ]);
  check_float "stddev" 2.0 (Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ])

let test_stats_percentile () =
  check_float "p0" 1.0 (Stats.percentile 0.0 [ 3.0; 1.0; 2.0 ]);
  check_float "p100" 3.0 (Stats.percentile 100.0 [ 3.0; 1.0; 2.0 ]);
  check_float "p50" 2.0 (Stats.percentile 50.0 [ 3.0; 1.0; 2.0 ]);
  check_float "interpolated" 1.5 (Stats.percentile 25.0 [ 1.0; 2.0; 3.0 ])

let test_stats_minmax () =
  check_float "min" (-2.0) (Stats.minimum [ 3.0; -2.0; 1.0 ]);
  check_float "max" 3.0 (Stats.maximum [ 3.0; -2.0; 1.0 ])

let test_ratio_series () =
  Alcotest.(check (list (float 1e-9)))
    "elementwise" [ 2.0; 3.0 ]
    (Stats.ratio_series [ 4.0; 9.0 ] [ 2.0; 3.0 ]);
  Alcotest.check_raises "mismatch" (Invalid_argument "Stats.ratio_series: length mismatch")
    (fun () -> ignore (Stats.ratio_series [ 1.0 ] []))

let prop_percentile_bounded =
  QCheck.Test.make ~name:"percentile within min..max" ~count:200
    QCheck.(pair (float_bound_inclusive 100.0) (list_of_size Gen.(1 -- 20) (float_bound_inclusive 50.0)))
    (fun (p, samples) ->
      let v = Stats.percentile p samples in
      v >= Stats.minimum samples -. 1e-9 && v <= Stats.maximum samples +. 1e-9)

(* ---------------- Heap ---------------- *)

(* Remove the minimum entry as (priority, payload). *)
let heap_pop h =
  let p = Heap.min_priority h in
  (p, Heap.pop h)

(* Pop every entry, minimum first. *)
let heap_drain h =
  let rec go acc = if Heap.is_empty h then List.rev acc else go (heap_pop h :: acc) in
  go []

let test_heap_order () =
  let h = Heap.create () in
  List.iter (fun p -> Heap.push h p p) [ 5; 1; 4; 1; 3; 9; 2 ];
  Alcotest.(check (list int)) "sorted" [ 1; 1; 2; 3; 4; 5; 9 ] (List.map fst (heap_drain h))

(* Equal priorities pop in the order the sift discipline (strict [<],
   left child first) leaves them, not in push order; the router's
   choice among equal-cost paths depends on exactly this order. *)
let test_heap_tie_order () =
  let h = Heap.create () in
  List.iteri (fun payload p -> Heap.push h p payload) [ 3; 1; 3; 1; 2; 1; 3 ];
  let first = heap_pop h in
  let second = heap_pop h in
  Heap.push h 1 7;
  Heap.push h 2 8;
  Alcotest.(check (list (pair int int)))
    "pop order"
    [ (1, 1); (1, 3); (1, 5); (1, 7); (2, 4); (2, 8); (3, 0); (3, 6); (3, 2) ]
    (first :: second :: heap_drain h)

let test_heap_empty () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.check_raises "pop raises" (Invalid_argument "Heap.pop") (fun () ->
      ignore (Heap.pop h));
  Alcotest.check_raises "min_priority raises" (Invalid_argument "Heap.min_priority")
    (fun () -> ignore (Heap.min_priority h))

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list int)
    (fun items ->
      let h = Heap.create () in
      List.iter (fun p -> Heap.push h p 0) items;
      List.map fst (heap_drain h) = List.sort compare items)

let test_heap_clear () =
  let h = Heap.create () in
  List.iter (fun p -> Heap.push h p p) [ 3; 1; 2 ];
  Heap.clear h;
  Alcotest.(check bool) "empty after clear" true (Heap.is_empty h);
  Alcotest.(check int) "size 0" 0 (Heap.size h);
  Alcotest.check_raises "pop raises" (Invalid_argument "Heap.pop") (fun () ->
      ignore (Heap.pop h));
  (* the heap stays usable after a clear *)
  List.iter (fun p -> Heap.push h p p) [ 9; 4 ];
  Alcotest.(check (pair int int)) "min after refill" (4, 4) (heap_pop h)

let test_heap_grows () =
  let h = Heap.create () in
  (* a fresh heap has no storage: every push past the current capacity
     must grow it transparently *)
  for p = 40 downto 1 do
    Heap.push h p p
  done;
  Alcotest.(check int) "holds all entries" 40 (Heap.size h);
  Alcotest.(check (list (pair int int)))
    "sorted" (List.init 40 (fun i -> (i + 1, i + 1))) (heap_drain h)

(* Model check: a heap interleaving pushes, pops, and clears behaves
   exactly like a sorted list under the same script. *)
let prop_heap_model =
  QCheck.Test.make ~name:"heap matches sorted-list model (push/pop/clear)" ~count:300
    QCheck.(list (pair (int_bound 2) small_int))
    (fun script ->
      let h = Heap.create () in
      let model = ref [] in
      let log_h = ref [] and log_m = ref [] in
      List.iter
        (fun (op, v) ->
          match op with
          | 0 ->
            Heap.push h v v;
            model := List.sort compare (v :: !model)
          | 1 ->
            log_h := (if Heap.is_empty h then min_int else fst (heap_pop h)) :: !log_h;
            (match !model with
            | m :: rest ->
              log_m := m :: !log_m;
              model := rest
            | [] -> log_m := min_int :: !log_m)
          | _ ->
            Heap.clear h;
            model := [])
        script;
      !log_h = !log_m && Heap.size h = List.length !model)

(* The heap as it was before its sifts moved a hole: swapping sifts
   with the same comparisons.  The hole version must leave every entry
   where this one does, so both pop equal priorities in one order. *)
module Swap_heap = struct
  type t = { mutable prio : int array; mutable payload : int array; mutable size : int }

  let create () = { prio = [||]; payload = [||]; size = 0 }
  let clear h = h.size <- 0

  let swap h i j =
    let p = h.prio.(i) and v = h.payload.(i) in
    h.prio.(i) <- h.prio.(j);
    h.payload.(i) <- h.payload.(j);
    h.prio.(j) <- p;
    h.payload.(j) <- v

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if h.prio.(i) < h.prio.(parent) then begin
        swap h i parent;
        sift_up h parent
      end
    end

  let rec sift_down h i =
    let left = (2 * i) + 1 and right = (2 * i) + 2 in
    let smallest = ref i in
    if left < h.size && h.prio.(left) < h.prio.(!smallest) then smallest := left;
    if right < h.size && h.prio.(right) < h.prio.(!smallest) then smallest := right;
    if !smallest <> i then begin
      swap h i !smallest;
      sift_down h !smallest
    end

  let push h priority payload =
    if h.size = Array.length h.prio then begin
      let bigger a =
        let b = Array.make (max 16 (2 * h.size)) 0 in
        Array.blit a 0 b 0 h.size;
        b
      in
      h.prio <- bigger h.prio;
      h.payload <- bigger h.payload
    end;
    h.prio.(h.size) <- priority;
    h.payload.(h.size) <- payload;
    h.size <- h.size + 1;
    sift_up h (h.size - 1)

  let pop h =
    let top = (h.prio.(0), h.payload.(0)) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.prio.(0) <- h.prio.(h.size);
      h.payload.(0) <- h.payload.(h.size);
      sift_down h 0
    end;
    top
end

(* Random push/pop/clear scripts over few priorities, so most pops
   choose among ties; payloads number the pushes. *)
let prop_heap_matches_swap_heap =
  QCheck.Test.make ~name:"heap pops like the swapping heap, ties included" ~count:500
    QCheck.(list (pair (int_bound 9) (int_bound 3)))
    (fun script ->
      let h = Heap.create () and s = Swap_heap.create () in
      let same = ref true in
      List.iteri
        (fun step (op, priority) ->
          if op < 6 then begin
            Heap.push h priority step;
            Swap_heap.push s priority step
          end
          else if op < 9 then begin
            if Heap.size h <> s.Swap_heap.size then same := false
            else if s.Swap_heap.size > 0 && heap_pop h <> Swap_heap.pop s then same := false
          end
          else begin
            Heap.clear h;
            Swap_heap.clear s
          end)
        script;
      while !same && s.Swap_heap.size > 0 do
        if heap_pop h <> Swap_heap.pop s then same := false
      done;
      !same && Heap.is_empty h)

(* ---------------- Fnv ---------------- *)

(* Digest pinning: these exact values are what makes persisted explore
   cache keys and seeded fault campaigns stable across releases.  The
   reference digests come from the published FNV-1a 64-bit test
   vectors. *)
let test_fnv_pinned_digests () =
  let hex s = Fnv.to_hex (Fnv.hash_string s) in
  Alcotest.(check string) "empty string" "cbf29ce484222325" (hex "");
  Alcotest.(check string) "\"a\"" "af63dc4c8601ec8c" (hex "a");
  Alcotest.(check string) "\"foobar\"" "85944171f73967e8" (hex "foobar")

let test_fnv_constants () =
  Alcotest.(check string) "offset basis" "cbf29ce484222325" (Fnv.to_hex Fnv.offset_basis);
  Alcotest.(check string) "prime" "00000100000001b3" (Fnv.to_hex Fnv.prime)

let test_fnv_string_matches_bytes () =
  let s = "iced-dvfs" in
  let folded = String.fold_left Fnv.byte Fnv.offset_basis s in
  Alcotest.(check string) "string = fold byte"
    (Fnv.to_hex folded)
    (Fnv.to_hex (Fnv.string Fnv.offset_basis s))

let test_fnv_int_order_sensitive () =
  let a = Fnv.int (Fnv.int Fnv.offset_basis 1) 2 in
  let b = Fnv.int (Fnv.int Fnv.offset_basis 2) 1 in
  Alcotest.(check bool) "order matters" true (a <> b)

let prop_fnv_hex_roundtrip =
  QCheck.Test.make ~name:"fnv hex is 16 lowercase hex digits" ~count:200
    QCheck.(string_gen_of_size Gen.(0 -- 64) Gen.printable)
    (fun s ->
      let h = Fnv.to_hex (Fnv.hash_string s) in
      String.length h = 16
      && String.for_all (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) h)

(* ---------------- Table ---------------- *)

let test_table_render () =
  let t = Table.create ~title:"t" ~columns:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  let rendered = Table.render t in
  Alcotest.(check bool) "has title" true (String.length rendered > 0);
  Alcotest.(check bool) "contains cell"
    true
    (String.length rendered > 10 && String.contains rendered '1')

let test_table_arity () =
  let t = Table.create ~title:"t" ~columns:[ "a" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch") (fun () ->
      Table.add_row t [ "1"; "2" ])

let test_fmt_float () =
  Alcotest.(check string) "integer" "3" (Table.fmt_float 3.0);
  Alcotest.(check string) "nan" "-" (Table.fmt_float nan)

(* ---------------- Json ---------------- *)

let parse_ok s =
  match Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse %S: %s" s (Json.error_to_string e)

let test_json_scalars () =
  Alcotest.(check bool) "null" true (parse_ok "null" = Json.Null);
  Alcotest.(check bool) "true" true (parse_ok "true" = Json.Bool true);
  Alcotest.(check bool) "false" true (parse_ok " false " = Json.Bool false);
  Alcotest.(check bool) "int" true (parse_ok "42" = Json.Num 42.0);
  Alcotest.(check bool) "negative exp" true (parse_ok "-1.5e3" = Json.Num (-1500.0));
  Alcotest.(check bool) "string" true (parse_ok "\"hi\"" = Json.Str "hi")

let test_json_escapes () =
  Alcotest.(check bool) "simple escapes" true
    (parse_ok "\"a\\n\\t\\\\\\\"b\\/\"" = Json.Str "a\n\t\\\"b/");
  Alcotest.(check bool) "\\u BMP to UTF-8" true
    (parse_ok "\"caf\\u00e9\"" = Json.Str "caf\xc3\xa9");
  Alcotest.(check bool) "surrogate pair" true
    (parse_ok "\"\\ud83d\\ude00\"" = Json.Str "\xf0\x9f\x98\x80")

let test_json_nested () =
  let doc = parse_ok "{\"a\": [1, {\"b\": null}, \"x\"], \"n\": -0.5}" in
  (match Option.bind (Json.member "a" doc) Json.get_list with
  | Some [ Json.Num 1.0; Json.Obj [ ("b", Json.Null) ]; Json.Str "x" ] -> ()
  | _ -> Alcotest.fail "nested array structure");
  Alcotest.(check (option (float 1e-12))) "number member" (Some (-0.5))
    (Option.bind (Json.member "n" doc) Json.get_number);
  Alcotest.(check (option int)) "get_int rejects fractions" None
    (Option.bind (Json.member "n" doc) Json.get_int)

let test_json_rejects () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [
      "";
      "{";
      "[1,2";
      "\"abc";  (* truncated string *)
      "\"\\u12";  (* truncated escape *)
      "\"\\x\"";  (* unknown escape *)
      "\"\\ud800\"";  (* lone surrogate *)
      "\"a\x01b\"";  (* raw control byte *)
      "{\"a\":1,}";
      "1 2";  (* trailing garbage *)
      "tru";
      "nan";
    ]

let test_json_error_position () =
  match Json.parse "[1,x]" with
  | Error e ->
    Alcotest.(check bool) "position points at the x" true
      (String.length (Json.error_to_string e) > 0);
    Alcotest.(check int) "byte offset" 3 (match e with { Json.at; _ } -> at)
  | Ok _ -> Alcotest.fail "accepted [1,x]"

let prop_json_quote_roundtrip =
  QCheck.Test.make ~count:500 ~name:"json quote/parse roundtrip" QCheck.string (fun s ->
      Json.parse (Json.quote s) = Ok (Json.Str s))

let prop_json_parse_total =
  QCheck.Test.make ~count:500 ~name:"json parse never raises" QCheck.string (fun s ->
      match Json.parse s with Ok _ | Error _ -> true)

(* ---------------- Json printer ---------------- *)

(* finite doubles, weighted towards the awkward ones: signed zeros, the
   extremes of the exponent range, and integral values on both sides of
   the [string_of_int] fast path *)
let finite_float_gen =
  QCheck.Gen.(
    oneof
      [ map (fun f -> if Float.is_finite f then f else 0.5) float;
        map float_of_int int;
        oneofl
          [ 0.0; -0.0; 1e-300; -1e-300; 1e300; 4.9e-324; max_float; 1e15; -1e15; 1e16;
            0.1; 1.0 /. 3.0; 42.0 ] ])

let json_tree_gen =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [ return Json.Null; map (fun b -> Json.Bool b) bool;
                 map (fun f -> Json.Num f) finite_float_gen;
                 map (fun s -> Json.Str s) (string_size (0 -- 8)) ]
           in
           if n <= 0 then leaf
           else
             frequency
               [ (2, leaf);
                 (1, map (fun l -> Json.Arr l) (list_size (0 -- 4) (self (n / 4))));
                 ( 1,
                   map
                     (fun l -> Json.Obj l)
                     (list_size (0 -- 4) (pair (string_size (0 -- 6)) (self (n / 4)))) ) ]))

let prop_json_to_string_roundtrip =
  QCheck.Test.make ~count:500 ~name:"json to_string/parse roundtrip"
    (QCheck.make ~print:Json.to_string json_tree_gen)
    (fun v ->
      let s = Json.to_string v in
      (* [=] equates the two zeros; the re-rendering tells them apart *)
      match Json.parse s with Ok v' -> v' = v && Json.to_string v' = s | Error _ -> false)

let prop_json_number_is_17g =
  QCheck.Test.make ~count:1000 ~name:"json number is %.17g for finite floats"
    (QCheck.make ~print:string_of_float finite_float_gen)
    (fun f -> Json.number f = Printf.sprintf "%.17g" f)

let test_json_integral_numbers () =
  List.iter
    (fun i ->
      Alcotest.(check string) (string_of_int i) (Printf.sprintf "%d" i)
        (Json.to_string (Json.int i)))
    [ 0; 1; -1; 42; 1_000_000; -123_456_789; 1 lsl 52; 1 lsl 53; -(1 lsl 53) ];
  Alcotest.(check string) "negative zero keeps its sign" "-0" (Json.to_string (Json.Num (-0.0)));
  Alcotest.(check string) "fractions at full precision" "0.10000000000000001"
    (Json.to_string (Json.Num 0.1))

let test_json_non_finite () =
  let doc = Json.to_string (Json.Arr [ Json.Num infinity; Json.Num neg_infinity; Json.Num nan ]) in
  Alcotest.(check string) "quoted" "[\"inf\",\"-inf\",\"nan\"]" doc;
  Alcotest.(check bool) "and parseable" true (Result.is_ok (Json.parse doc))

let test_json_member_order () =
  Alcotest.(check string) "document order, duplicates kept"
    "{\"b\":1,\"a\":null,\"b\":[true,{}],\"c\":[]}"
    (Json.to_string
       (Json.Obj
          [ ("b", Json.Num 1.0); ("a", Json.Null);
            ("b", Json.Arr [ Json.Bool true; Json.Obj [] ]); ("c", Json.Arr []) ]))

let test_json_control_bytes () =
  Alcotest.(check string) "short escapes, \\u00XX below 0x20, the rest raw"
    "\"q\\\"\\\\\\n\\r\\t\\u0000\\u0001\\u001f\x7f\xc3\xa9\""
    (Json.to_string (Json.Str "q\"\\\n\r\t\x00\x01\x1f\x7f\xc3\xa9"))

let test_nat_canonical () =
  let nat = Iced_util.Nat.of_string in
  List.iter
    (fun n -> Alcotest.(check (option int)) (string_of_int n) (Some n) (nat (string_of_int n)))
    [ 0; 1; 7; 10; 32; 64; 1_000_000; max_int ];
  List.iter
    (fun s -> Alcotest.(check (option int)) (Printf.sprintf "%S rejected" s) None (nat s))
    [ ""; "+6"; "-1"; "06"; "00"; "0x8"; "0o6"; "0b10"; "6_4"; " 6"; "6 "; "1e3";
      "4611686018427387904"; "99999999999999999999" ]

(* The SplitMix64 stream, pinned draw by draw: per seed, the first 16
   [Rng.int r 1_000_003], then 16 [Rng.float r 1.0] (as [%h]), then 16
   [Rng.bool r] (as 0/1), then 16 draws of [Rng.split r]'s child and
   the parent's next [Rng.int r 1_000_003].  Every seeded experiment,
   the annealer's moves included, reads this stream, so a change to the
   generator's representation must reproduce it bit for bit. *)
let rng_stream_pins =
  [
    ( 0,
      [ 1248; 607872; 218951; 899533; 285792; 425248; 273623; 710615; 482413; 393695; 605590;
        282667; 789622; 838252; 646090; 225386 ],
      [ "0x1.f4a60971d5484p-2"; "0x1.879e2e2056fefp-1"; "0x1.a3374d041c8a4p-3";
        "0x1.b0351a56b489p-1"; "0x1.b602c05620173p-1"; "0x1.52071524304bep-1";
        "0x1.dbebe3b21b945p-1"; "0x1.5125ab59ef498p-2"; "0x1.baf803a9ea80ep-1";
        "0x1.26bd05e3b6989p-1"; "0x1.a6e0baf2488ccp-2"; "0x1.034a7ad5f7874p-2";
        "0x1.45e13b5768b8cp-1"; "0x1.dca43af41e9a7p-1"; "0x1.e2d2a5dce5e68p-1";
        "0x1.bbe9aef5472p-3" ],
      "0111111100010111",
      [ 428871; 424955; 654140; 611508; 218976; 884791; 998483; 956588; 283522; 501469; 825423;
        606061; 328728; 380916; 571037; 954254 ],
      896760 );
    ( 1,
      [ 436383; 652540; 556454; 322844; 253574; 594335; 365055; 925014; 715265; 479072; 246728;
        851348; 868519; 380766; 269051; 810709 ],
      [ "0x1.4a694d4d6ffa1p-1"; "0x1.a175a1b4ae575p-1"; "0x1.5d086f2c615f1p-1";
        "0x1.c4c6306ee7decp-1"; "0x1.0e2c46865e98p-4"; "0x1.4d7973c5c2a4p-4";
        "0x1.fbc7f43b45522p-2"; "0x1.f8410633ef3p-4"; "0x1.25cc171746aaep-2";
        "0x1.88680fb82ef6p-5"; "0x1.07f2394f0c94ep-1"; "0x1.6d735dde1a5bep-1";
        "0x1.6662c8a88b79p-5"; "0x1.fed8cfd03212ep-1"; "0x1.3219ae16258bap-1";
        "0x1.2c5632cf920f1p-1" ],
      "1010110001101000",
      [ 896752; 875248; 701396; 305810; 866897; 92828; 327513; 468454; 285857; 91303; 166733;
        363023; 298226; 739598; 624155; 206025 ],
      497321 );
    ( 42,
      [ 447975; 791068; 442972; 304401; 479651; 938870; 936569; 679004; 571148; 43184; 339443;
        740358; 11707; 949024; 924285; 17465 ],
      [ "0x1.a83d752f35eb8p-4"; "0x1.fb64000fd9fe6p-2"; "0x1.7eadff448a868p-4";
        "0x1.60bd943452e57p-1"; "0x1.ea268896c8ab4p-1"; "0x1.2b3a6dd261f68p-4";
        "0x1.331b1f6201942p-1"; "0x1.3d58eba8a8e99p-1"; "0x1.2fc33f229b7b8p-4";
        "0x1.1c3a9f8de6438p-2"; "0x1.7be4b62a0c415p-1"; "0x1.922cfc331f733p-1";
        "0x1.e2444c639b90dp-1"; "0x1.636b3e36a6b0bp-1"; "0x1.946edb428427bp-1";
        "0x1.ae582d24a13a5p-1" ],
      "1011110001011001",
      [ 574013; 840363; 321236; 303515; 413562; 152479; 312578; 506355; 721063; 482344; 90616;
        344109; 747079; 222898; 838867; 950979 ],
      488484 );
    ( -1,
      [ 13903; 56817; 515118; 707109; 102799; 370548; 120999; 538874; 765257; 699285; 937351;
        765534; 118854; 713734; 600921; 30890 ],
      [ "0x1.a21e0a7a12978p-2"; "0x1.895aa52ca2b74p-3"; "0x1.1885ea55f4b74p-3";
        "0x1.b17b7d708ef88p-2"; "0x1.752fb9eb3321ep-2"; "0x1.58598ccf3747p-1";
        "0x1.e2828fac5b05cp-2"; "0x1.8dd7e30e83b88p-3"; "0x1.79b759ba8e888p-3";
        "0x1.30c5e9a71539bp-1"; "0x1.b0e0b0f8c0fecp-1"; "0x1.ca2ef99148f3ap-2";
        "0x1.835e566f90c7bp-1"; "0x1.1df7a46e5adep-6"; "0x1.25efb02f70c4p-3";
        "0x1.bc56bb6ca54a8p-1" ],
      "1100011110110001",
      [ 609695; 544865; 901232; 523540; 674467; 915690; 361038; 76515; 720918; 846407; 685714;
        855291; 195598; 972431; 155519; 444523 ],
      366926 );
    ( max_int,
      [ 872517; 614747; 450663; 52017; 210538; 789331; 521894; 496981; 526408; 977821; 663515;
        823062; 248911; 219671; 621497; 883435 ],
      [ "0x1.5ad3bd0317153p-1"; "0x1.b273bdb256a2cp-1"; "0x1.19d24effa3f31p-1";
        "0x1.f74cd8213e7d8p-3"; "0x1.5ad4d18795e28p-3"; "0x1.a80aeecfb1f09p-1";
        "0x1.40c38a207ebcp-7"; "0x1.dadedfa07ed18p-3"; "0x1.b0cb38a41a3a8p-2";
        "0x1.b4eb3b9c7412p-2"; "0x1.4a1b1762e0c9cp-1"; "0x1.3ca49fa31fcbbp-1";
        "0x1.dedef1708374ap-1"; "0x1.0a57ac520ef69p-1"; "0x1.a1f4c0e315398p-1";
        "0x1.4096201414e74p-2" ],
      "1011011110001100",
      [ 31995; 686984; 662315; 454636; 602897; 465752; 853407; 607374; 917209; 498311; 731264;
        838843; 232177; 294468; 967496; 592741 ],
      653916 )
  ]

let test_rng_stream_pinned () =
  List.iter
    (fun (seed, ints, floats, bools, child_ints, parent_next) ->
      let r = Rng.create seed in
      let draw n f = List.init n (fun _ -> f ()) in
      let name what = Printf.sprintf "seed %d: %s" seed what in
      Alcotest.(check (list int)) (name "int") ints (draw 16 (fun () -> Rng.int r 1_000_003));
      Alcotest.(check (list string))
        (name "float") floats
        (draw 16 (fun () -> Printf.sprintf "%h" (Rng.float r 1.0)));
      Alcotest.(check string)
        (name "bool") bools
        (String.concat "" (draw 16 (fun () -> if Rng.bool r then "1" else "0")));
      let child = Rng.split r in
      Alcotest.(check (list int))
        (name "split child") child_ints
        (draw 16 (fun () -> Rng.int child 1_000_003));
      Alcotest.(check int) (name "parent after split") parent_next (Rng.int r 1_000_003))
    rng_stream_pins

let suite =
  [
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng distinct seeds", `Quick, test_rng_distinct_seeds);
    ("rng int bounds", `Quick, test_rng_bounds);
    ("rng int_in bounds", `Quick, test_rng_int_in);
    ("rng float bounds", `Quick, test_rng_float_bounds);
    ("rng split", `Quick, test_rng_split_independent);
    ("rng invalid args", `Quick, test_rng_invalid);
    QCheck_alcotest.to_alcotest prop_shuffle_permutation;
    ("stats mean", `Quick, test_stats_mean);
    ("stats mean empty", `Quick, test_stats_mean_empty);
    ("stats geomean", `Quick, test_stats_geomean);
    ("stats geomean invalid", `Quick, test_stats_geomean_invalid);
    ("stats stddev", `Quick, test_stats_stddev);
    ("stats percentile", `Quick, test_stats_percentile);
    ("stats min/max", `Quick, test_stats_minmax);
    ("stats ratio series", `Quick, test_ratio_series);
    QCheck_alcotest.to_alcotest prop_percentile_bounded;
    ("heap order", `Quick, test_heap_order);
    ("heap empty", `Quick, test_heap_empty);
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    ("heap clear", `Quick, test_heap_clear);
    ("heap grows on demand", `Quick, test_heap_grows);
    QCheck_alcotest.to_alcotest prop_heap_model;
    ("fnv pinned digests", `Quick, test_fnv_pinned_digests);
    ("fnv constants", `Quick, test_fnv_constants);
    ("fnv string folds bytes", `Quick, test_fnv_string_matches_bytes);
    ("fnv int order sensitive", `Quick, test_fnv_int_order_sensitive);
    QCheck_alcotest.to_alcotest prop_fnv_hex_roundtrip;
    ("table render", `Quick, test_table_render);
    ("table arity", `Quick, test_table_arity);
    ("table float format", `Quick, test_fmt_float);
    ("json scalars", `Quick, test_json_scalars);
    ("json escapes", `Quick, test_json_escapes);
    ("json nested access", `Quick, test_json_nested);
    ("json rejects malformed", `Quick, test_json_rejects);
    ("json error position", `Quick, test_json_error_position);
    QCheck_alcotest.to_alcotest prop_json_quote_roundtrip;
    QCheck_alcotest.to_alcotest prop_json_parse_total;
    QCheck_alcotest.to_alcotest prop_json_to_string_roundtrip;
    QCheck_alcotest.to_alcotest prop_json_number_is_17g;
    ("json integral floats print as ints", `Quick, test_json_integral_numbers);
    ("json non-finite floats print quoted", `Quick, test_json_non_finite);
    ("json member order kept", `Quick, test_json_member_order);
    ("json control bytes escaped", `Quick, test_json_control_bytes);
    (* appended so the earlier cases keep their alcotest indices *)
    ("heap tie order", `Quick, test_heap_tie_order);
    QCheck_alcotest.to_alcotest prop_heap_matches_swap_heap;
    ("nat: canonical decimals only", `Quick, test_nat_canonical);
    ("rng stream pinned", `Quick, test_rng_stream_pinned);
  ]
