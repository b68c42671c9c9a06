(* Tests for the island-recovery module the runner (kernels) and the
   tenancy scheduler (tenants) share.  Holders are fakes whose resize
   is a lookup in a table of (holder, island count) fits. *)

module Recovery = Iced_stream.Recovery

let holder ?(floor = 1) name owned =
  { Recovery.item = name; floor; count = List.length owned; owned }

(* [resize] accepts exactly the listed fits and logs every attempt *)
let table fits =
  let log = ref [] in
  let resize (h : string Recovery.holder) =
    log := (h.item, h.count) :: !log;
    if List.mem (h.item, h.count) fits then Ok () else Error "no fit"
  in
  (resize, fun () -> List.rev !log)

let ok = Alcotest.(result unit string)
let attempts = Alcotest.(list (pair string int))
let islands = Alcotest.(list int)

let test_shrinks_first () =
  let a = holder "a" [ 0; 1; 2 ] and b = holder "b" [ 3; 4; 5; 6 ] in
  let resize, log = table [ ("a", 2); ("b", 3) ] in
  Alcotest.check ok "gated" (Ok ()) (Recovery.gate ~resize [ a; b ] a ~island:1);
  Alcotest.check islands "victim keeps its survivors" [ 0; 2 ] a.owned;
  Alcotest.(check int) "victim shrank" 2 a.count;
  Alcotest.check islands "richer holder untouched" [ 3; 4; 5; 6 ] b.owned;
  Alcotest.check attempts "one resize, the victim's" [ ("a", 2) ] (log ())

let test_borrows_from_richest () =
  let a = holder "a" [ 0 ] and b = holder "b" [ 1; 2 ] and e = holder "e" [ 5; 6; 7 ] in
  let resize, log = table [ ("a", 1); ("b", 1); ("e", 2) ] in
  Alcotest.check ok "gated" (Ok ()) (Recovery.gate ~resize [ a; b; e ] a ~island:0);
  Alcotest.check islands "victim got the donor's last island" [ 7 ] a.owned;
  Alcotest.check islands "richest donor shrank" [ 5; 6 ] e.owned;
  Alcotest.(check int) "donor count" 2 e.count;
  Alcotest.check attempts "donor shrinks, then the victim reloads" [ ("e", 2); ("a", 1) ]
    (log ());
  (* equal counts: the caller's order decides *)
  let a = holder "a" [ 0 ] and b = holder "b" [ 1; 2 ] and c = holder "c" [ 3; 4 ] in
  let resize, _ = table [ ("a", 1); ("b", 1); ("c", 1) ] in
  Alcotest.check ok "gated" (Ok ()) (Recovery.gate ~resize [ a; c; b ] a ~island:0);
  Alcotest.check islands "first of the tied donors gave" [ 4 ] a.owned;
  Alcotest.check islands "the other kept its islands" [ 1; 2 ] b.owned

let test_skips_refusing_donor () =
  let a = holder "a" [ 0 ] and b = holder "b" [ 1; 2 ] and e = holder "e" [ 5; 6; 7 ] in
  let resize, log = table [ ("a", 1); ("b", 1) ] in
  Alcotest.check ok "gated" (Ok ()) (Recovery.gate ~resize [ a; b; e ] a ~island:0);
  Alcotest.check islands "refusing donor restored" [ 5; 6; 7 ] e.owned;
  Alcotest.(check int) "refusing donor count restored" 3 e.count;
  Alcotest.check islands "next donor gave" [ 2 ] a.owned;
  Alcotest.check attempts "attempts in donor order" [ ("e", 2); ("b", 1); ("a", 1) ] (log ())

let test_victim_reload_fails () =
  let a = holder "a" [ 0 ] and e = holder "e" [ 5; 6; 7 ] in
  let resize, _ = table [ ("e", 2) ] in
  Alcotest.(check bool) "error" true (Result.is_error (Recovery.gate ~resize [ a; e ] a ~island:0));
  Alcotest.check islands "the donor's shrink stays committed" [ 5; 6 ] e.owned

let test_no_donor () =
  let a = holder "a" [ 0 ] and b = holder "b" [ 1 ] and c = holder ~floor:2 "c" [ 2; 3 ] in
  let resize, log = table [ ("a", 1); ("b", 0); ("c", 1) ] in
  Alcotest.(check bool) "error" true
    (Result.is_error (Recovery.gate ~resize [ a; b; c ] a ~island:0));
  Alcotest.check attempts "holders at their floor are never asked" [] (log ());
  Alcotest.check islands "the dead island is gone" [] a.owned

(* Random fleets of 2-6 holders with random fit tables lose random
   islands; a victim whose recovery fails is evicted, as the scheduler
   does.  After every successful gate, islands stay partitioned and
   every holder's bookkeeping holds. *)
let prop_gate_invariants =
  let gen =
    QCheck.Gen.(
      int_range 2 6 >>= fun n ->
      list_repeat n (pair (int_range 1 2) (int_range 0 2)) >>= fun shapes ->
      list_repeat n (list_repeat 6 bool) >>= fun fits ->
      list_size (int_range 1 12) (int_range 0 23) >>= fun dead ->
      return (shapes, fits, dead))
  in
  let print (shapes, _, dead) =
    Printf.sprintf "shapes [%s] dead [%s]"
      (String.concat ";" (List.map (fun (f, e) -> Printf.sprintf "%d+%d" f e) shapes))
      (String.concat ";" (List.map string_of_int dead))
  in
  QCheck.Test.make ~name:"gate keeps islands partitioned" ~count:300 (QCheck.make ~print gen)
    (fun (shapes, fits, dead) ->
      let next = ref 0 in
      let holders =
        List.mapi
          (fun i (floor, extra) ->
            let owned = List.init (floor + extra) (fun k -> !next + k) in
            next := !next + floor + extra;
            { Recovery.item = i; floor; count = floor + extra; owned })
          shapes
      in
      let resize (h : int Recovery.holder) =
        if List.nth (List.nth fits h.item) h.count then Ok () else Error "no fit"
      in
      let live = ref holders and gone = ref [] in
      List.for_all
        (fun island ->
          gone := island :: !gone;
          match Recovery.owner !live island with
          | None -> true
          | Some victim -> (
            match Recovery.gate ~resize !live victim ~island with
            | Error _ ->
              live := List.filter (fun h -> h != victim) !live;
              true
            | Ok () ->
              let all = List.concat_map (fun (h : int Recovery.holder) -> h.owned) !live in
              List.length (List.sort_uniq compare all) = List.length all
              && List.for_all (fun i -> not (List.mem i !gone)) all
              && List.for_all
                   (fun (h : int Recovery.holder) ->
                     h.count = List.length h.owned && h.count >= h.floor)
                   !live))
        dead)

let suite =
  [
    ("shrinks first", `Quick, test_shrinks_first);
    ("borrows from the richest, ties in caller order", `Quick, test_borrows_from_richest);
    ("skips a donor whose resize fails", `Quick, test_skips_refusing_donor);
    ("error when the victim's reload fails", `Quick, test_victim_reload_fails);
    ("error when no donor exists", `Quick, test_no_donor);
    QCheck_alcotest.to_alcotest prop_gate_invariants;
  ]
